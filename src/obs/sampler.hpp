// rvdyn::obs sampling profiler (the tentpole of the v2 observability
// layer): a deterministic guest-level profiler driven by retired-
// instruction budgets instead of signals or timers.
//
// The Sampler installs Machine::set_sample_hook(interval, ...); the
// emulator's run loop then stops at *exact* instruction boundaries
// (instret == k·interval) regardless of which tier — interpreter, cached
// blocks, or JIT-compiled code — executed the preceding instructions (the
// loop caps JIT session budgets and whole-block execution at the boundary
// and single-steps the remainder). At each stop the Sampler walks the
// guest call stack through StackwalkerAPI (per-function dataflow analyses
// are cached across samples), symbolizes every frame through ParseAPI, and
// folds the stack into a FoldedStacks aggregate.
//
// Determinism is the point: the sampled (instret, pc, registers, memory)
// tuple is an architectural invariant, so the same binary at the same
// interval produces byte-identical folded output run-to-run AND with the
// JIT tier on or off — profiles are reproducible evidence, and the
// differential tests hold the sampled profile against the exact
// BlockProfiler the way src/check/ holds the JIT against the interpreter.
//
// JIT attribution: compiled code only ever pauses at precise guest pcs
// (the side-exit contract), and the run loop's slice capping means no
// mapping from host code back to guest state is ever needed at sample
// time. The Tier's BlockInfo side-table is still consulted per sample to
// tell which samples landed inside compiled regions (jit_samples()) —
// occupancy is reported separately and deliberately kept OUT of the folded
// keys, which must not differ between tiers.
#pragma once

#include <cstdint>
#include <memory>

#include "emu/machine.hpp"
#include "obs/flamegraph.hpp"
#include "parse/cfg.hpp"
#include "stackwalk/stackwalker.hpp"

namespace rvdyn::obs {

struct SamplerOptions {
  /// Retired instructions between samples. The default (the largest prime
  /// below 2^18) keeps walk + fold overhead well under the <5% budget on
  /// JIT-speed workloads while still taking thousands of samples per
  /// second of guest time. It is prime on purpose: a deterministic
  /// sampler whose period shares a factor with a hot loop's instruction
  /// count aliases onto one phase of the loop and attributes everything
  /// to a single pc; a prime period is coprime to every loop length.
  std::uint64_t interval = 262139;  // largest prime < 2^18
  unsigned max_depth = 64;   ///< stack-walk depth cap per sample
  bool capture_stacks = true;  ///< false: fold the leaf frame only (cheaper)
};

class Sampler {
 public:
  /// Attaches to `m` on construction. `co` must be parsed and must outlive
  /// the Sampler; it provides symbolization and the walker's dataflow.
  Sampler(emu::Machine& m, const parse::CodeObject& co,
          SamplerOptions opts = {});
  ~Sampler();

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Remove the machine hook (destructor does this too). The collected
  /// profile stays readable after detaching.
  void detach();
  /// Re-install the hook after a detach. The next sample boundary is
  /// `interval` instructions from the machine's current instret.
  void attach();
  bool attached() const { return attached_; }

  // --- results ---
  const FoldedStacks& stacks() const { return stacks_; }
  std::string folded() const { return stacks_.folded(); }
  std::vector<FoldedStacks::FuncTotal> hot_table() const {
    return stacks_.hot_table();
  }
  std::uint64_t samples() const { return samples_; }
  /// Samples whose pc sat inside a JIT-compiled region (per the Tier's
  /// BlockInfo side-table) — compiled-code occupancy at sample points.
  std::uint64_t jit_samples() const { return jit_samples_; }
  /// Walks cut short by the depth cap.
  std::uint64_t truncated_walks() const { return truncated_walks_; }
  const SamplerOptions& options() const { return opts_; }

  /// Drop collected samples (the hook stays installed if attached).
  void reset();

 private:
  void on_sample(emu::Machine& m);

  emu::Machine& m_;
  const parse::CodeObject& co_;
  SamplerOptions opts_;
  stackwalk::MachineAccess access_;
  stackwalk::StackWalker walker_;
  FoldedStacks stacks_;
  std::uint64_t samples_ = 0;
  std::uint64_t jit_samples_ = 0;
  std::uint64_t truncated_walks_ = 0;
  bool attached_ = false;
};

}  // namespace rvdyn::obs
