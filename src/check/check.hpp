// rvdyn::check — differential correctness harness.
//
// The stack keeps two independent implementations of RV64GC value
// semantics (semantics/ spec strings vs. emu/machine.cpp switch cases) and
// three frame steppers with no cross-validation. This module makes the
// emulator the executable oracle for everything above it, in the spirit of
// formal-semantics-first binary tools:
//
//  * run_lockstep      — for every mnemonic with a precise semantics spec
//    (and every RVC form expanding to one), evaluate semantics_of +
//    const_eval against a single-stepped emu::Machine over randomized
//    register/memory states plus adversarial corners, and report any
//    mismatch in written register, store addr/size/value, next-pc, or
//    x0-write suppression.
//  * run_roundtrip     — decode→encode→decode property check: re-encoding
//    a decoded instruction (compressed and uncompressed) reproduces the
//    original bytes and the operand read/write sets.
//  * run_shadow_stack  — the emulator retires jal/jalr/ret into a
//    ground-truth call stack; StackWalker::walk is invoked at randomized
//    step counts (mid-prologue, mid-epilogue, and leaf pcs included) and
//    diffed frame-by-frame against the shadow.
//
// Every run is reproducible from (seed, options); divergences carry the
// failing encoding/stop so a one-line filter reruns just that case. The
// harness exports rvdyn.check.* counters through rvdyn::obs, so bench runs
// carry oracle coverage in their rvdyn_meta block.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "emu/jit/jit.hpp"
#include "isa/instruction.hpp"

namespace rvdyn::check {

/// One observed disagreement between an oracle and the implementation
/// under test. `detail` is a full human-readable reproduction record.
struct Divergence {
  std::string oracle;        ///< "lockstep" | "roundtrip" | "shadow-stack"
  std::string subject;       ///< mnemonic text or workload name
  std::uint64_t seed = 0;    ///< per-case seed that reproduces it
  std::uint32_t encoding = 0;  ///< raw instruction bytes (lockstep/roundtrip)
  std::string detail;
};

// ---------------------------------------------------------------------------
// Lockstep semantics oracle
// ---------------------------------------------------------------------------

struct LockstepOptions {
  std::uint64_t seed = 0x5eedULL;
  /// Random-state floor per precise-spec mnemonic; mnemonics below it after
  /// the run appear in LockstepReport::uncovered.
  unsigned states_per_mnemonic = 10000;
  /// Random states evaluated per generated encoding.
  unsigned states_per_encoding = 20;
  /// Exhaustively sweep all 65536 compressed halfwords (a few states each).
  bool rvc_exhaustive = true;
  unsigned rvc_states = 3;
  /// Restrict the run to one mnemonic (reproduction mode); kInvalid = all.
  isa::Mnemonic only = isa::Mnemonic::kInvalid;
  /// Stop recording (but keep counting) divergences past this many.
  unsigned max_recorded = 50;
};

struct LockstepReport {
  std::uint64_t states = 0;      ///< total (encoding, state) pairs executed
  std::uint64_t encodings = 0;   ///< distinct 32-bit encodings exercised
  std::uint64_t rvc_forms = 0;   ///< valid compressed halfwords exercised
  std::uint64_t divergence_count = 0;  ///< total, recorded or not
  std::vector<Divergence> divergences;
  /// States executed per mnemonic (coverage ledger).
  std::map<isa::Mnemonic, std::uint64_t> per_mnemonic;
  /// Precise-spec mnemonics that ended below states_per_mnemonic.
  std::vector<isa::Mnemonic> uncovered;
  bool ok() const { return divergence_count == 0 && uncovered.empty(); }
};

/// All mnemonics the lockstep oracle must cover: a precise semantics spec
/// exists and the instruction is single-steppable in isolation (ecall and
/// ebreak, which divert into the kernel surface, have no precise spec).
std::vector<isa::Mnemonic> lockstep_mnemonics();

LockstepReport run_lockstep(const LockstepOptions& opts = {});

// ---------------------------------------------------------------------------
// Round-trip fuzzer
// ---------------------------------------------------------------------------

struct RoundTripOptions {
  std::uint64_t seed = 0x5eedULL;
  std::uint64_t random_words = 200000;  ///< random 32-bit encodings
  bool rvc_exhaustive = true;           ///< all 65536 halfwords
  unsigned max_recorded = 50;
};

struct RoundTripReport {
  std::uint64_t decoded32 = 0;   ///< random words that decoded
  std::uint64_t decoded16 = 0;   ///< halfwords that decoded
  std::uint64_t checks = 0;      ///< individual property checks run
  /// Compressed halfwords whose canonical re-compression chose a different
  /// but operand-identical encoding (none expected; kept separate from
  /// divergences so a future alias is a visible policy decision).
  std::uint64_t rvc_aliases = 0;
  std::uint64_t divergence_count = 0;
  std::vector<Divergence> divergences;
  bool ok() const { return divergence_count == 0; }
};

RoundTripReport run_roundtrip(const RoundTripOptions& opts = {});

// ---------------------------------------------------------------------------
// JIT-tier differential oracle
// ---------------------------------------------------------------------------

struct JitDiffOptions {
  std::uint64_t seed = 0x5eedULL;
  /// Compile on the second execution of a block so even short workloads
  /// spend most of their retirement in compiled code.
  std::uint32_t hot_threshold = 2;
  std::uint64_t max_steps = 50'000'000;
  /// 0 = one uninterrupted run; N > 0 = drive the JIT machine through N
  /// randomized run(k) chunks, exercising budget side-exits and session
  /// re-entry mid-trace.
  unsigned chunks = 0;
  /// Diff the per-pc hit/cycle profile as well as final state.
  bool with_profile = true;
  /// Meta-test hook: compile this mnemonic with a deliberately wrong
  /// template (forwarded to emu::jit::Config::sabotage). The oracle is
  /// expected to report divergences when set.
  isa::Mnemonic sabotage = isa::Mnemonic::kInvalid;
  /// Backend of the subject machine.
  emu::jit::BackendKind backend = emu::jit::BackendKind::Auto;
  unsigned max_recorded = 20;
};

struct JitDiffReport {
  std::uint64_t steps = 0;          ///< instructions retired (reference)
  std::uint64_t jit_steps = 0;      ///< of which the subject retired in JIT
  std::uint64_t blocks_compiled = 0;
  std::uint64_t profile_pcs = 0;    ///< per-pc profile entries compared
  std::uint64_t divergence_count = 0;
  std::vector<Divergence> divergences;
  bool ok() const { return divergence_count == 0; }
};

/// Assemble `asm_src` and run it twice — once interpreter-only, once with
/// the JIT tier hot — then diff stop reason, exit code, pc, every x/f
/// register, instret, cycles, a whole-memory digest, and (optionally) the
/// per-pc profile. Divergences carry the register/pc detail needed to
/// reproduce. The subject run must actually enter compiled code or a
/// divergence is reported (guards against the tier silently not engaging).
JitDiffReport run_jit_diff(const std::string& name, const std::string& asm_src,
                           const JitDiffOptions& opts = {});

// ---------------------------------------------------------------------------
// Shadow-stack walk oracle
// ---------------------------------------------------------------------------

struct ShadowStackOptions {
  std::uint64_t seed = 0x5eedULL;
  /// Randomized stop points over the program's full retirement trace.
  unsigned stops = 200;
  /// Walk after every retired instruction instead (small programs only).
  bool walk_every_step = false;
  /// Abort the oracle if the program retires more than this many
  /// instructions without exiting.
  std::uint64_t max_steps = 50'000'000;
  unsigned max_recorded = 20;
};

struct ShadowStackReport {
  std::uint64_t steps = 0;            ///< instructions retired
  std::uint64_t stops = 0;            ///< walks performed
  std::uint64_t frames_compared = 0;  ///< frame-by-frame comparisons
  std::uint64_t max_depth = 0;        ///< deepest shadow stack seen
  std::uint64_t divergence_count = 0;
  std::vector<Divergence> divergences;
  bool ok() const { return divergence_count == 0; }
};

/// Assemble `asm_src`, run it to completion once to learn the retirement
/// count, then rerun stopping at randomized points, diffing
/// StackWalker::walk against the emulator's ground-truth call stack.
/// `name` labels divergences (workload name).
ShadowStackReport run_shadow_stack(const std::string& name,
                                   const std::string& asm_src,
                                   const ShadowStackOptions& opts = {});

}  // namespace rvdyn::check
