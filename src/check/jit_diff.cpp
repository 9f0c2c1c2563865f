// JIT-tier differential oracle: the interpreter is the executable spec;
// the JIT tier must be observationally identical. Two machines run the
// same workload — one with the tier disabled, one tiered up aggressively
// (hot_threshold=2 by default) — and every piece of architectural state
// the tier is allowed to touch is diffed: stop reason, exit code, pc,
// all 31 integer and 32 float registers, instret, cycles, an
// order-independent whole-memory digest, and the per-pc hit/cycle
// profile. A chunked mode re-enters the JIT session at randomized budget
// boundaries to catch state that is only materialized lazily on
// side-exits.
#include <random>
#include <sstream>

#include "assembler/assembler.hpp"
#include "check/check.hpp"
#include "emu/machine.hpp"
#include "obs/metrics.hpp"

namespace rvdyn::check {

namespace {

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

}  // namespace

JitDiffReport run_jit_diff(const std::string& name, const std::string& asm_src,
                           const JitDiffOptions& opts) {
  JitDiffReport rep;
  auto diverge = [&](const std::string& what) {
    ++rep.divergence_count;
    if (rep.divergences.size() < opts.max_recorded)
      rep.divergences.push_back(
          Divergence{"jit-diff", name, opts.seed, 0, what});
  };
  const symtab::Symtab bin = assembler::assemble(asm_src);

  // Reference: interpreter only.
  emu::Machine ref;
  ref.set_jit_enabled(false);
  ref.enable_pc_profile(opts.with_profile);
  ref.load(bin);
  const emu::StopReason ref_stop = ref.run(opts.max_steps);
  rep.steps = ref.instret();

  // Subject: tiered up fast, optionally sabotaged, optionally chunked.
  emu::Machine m;
  m.jit_config().hot_threshold = opts.hot_threshold;
  m.jit_config().sabotage = opts.sabotage;
  m.jit_config().backend = opts.backend;
  m.enable_pc_profile(opts.with_profile);
  m.load(bin);

  emu::StopReason sub_stop;
  if (opts.chunks == 0) {
    sub_stop = m.run(opts.max_steps);
  } else {
    // Randomized budgets: sessions end mid-trace on kExitBudget, forcing
    // the tier to materialize full state and resume cold each chunk.
    std::mt19937_64 rng(opts.seed);
    const std::uint64_t mean = std::max<std::uint64_t>(
        1, rep.steps / std::max(1u, opts.chunks));
    std::uint64_t left = opts.max_steps;
    do {
      const std::uint64_t k = 1 + rng() % std::max<std::uint64_t>(1, 2 * mean);
      sub_stop = m.run(std::min(k, left));
      left -= std::min(k, left);
    } while (sub_stop == emu::StopReason::Running && left > 0);
  }

  const emu::jit::Stats js = m.jit_stats();
  rep.jit_steps = js.insns_retired;
  rep.blocks_compiled = js.blocks_compiled;

  if (static_cast<int>(sub_stop) != static_cast<int>(ref_stop))
    diverge("stop reason: interp=" +
            std::to_string(static_cast<int>(ref_stop)) +
            " jit=" + std::to_string(static_cast<int>(sub_stop)));
  if (m.exit_code() != ref.exit_code())
    diverge("exit code: interp=" + std::to_string(ref.exit_code()) +
            " jit=" + std::to_string(m.exit_code()));
  if (m.pc() != ref.pc())
    diverge("pc: interp=" + hex(ref.pc()) + " jit=" + hex(m.pc()));
  if (m.instret() != ref.instret())
    diverge("instret: interp=" + std::to_string(ref.instret()) +
            " jit=" + std::to_string(m.instret()));
  if (m.cycles() != ref.cycles())
    diverge("cycles: interp=" + std::to_string(ref.cycles()) +
            " jit=" + std::to_string(m.cycles()));
  for (unsigned i = 1; i < 32; ++i)
    if (m.get_x(i) != ref.get_x(i))
      diverge("x" + std::to_string(i) + ": interp=" + hex(ref.get_x(i)) +
              " jit=" + hex(m.get_x(i)));
  for (unsigned i = 0; i < 32; ++i)
    if (m.get_f(i) != ref.get_f(i))
      diverge("f" + std::to_string(i) + ": interp=" + hex(ref.get_f(i)) +
              " jit=" + hex(m.get_f(i)));
  if (m.memory().digest() != ref.memory().digest())
    diverge("memory digest: interp=" + hex(ref.memory().digest()) +
            " jit=" + hex(m.memory().digest()));

  // The oracle is only meaningful if the tier actually ran compiled code.
  // A clean workload that never tiers up is a silent false pass.
  if (opts.sabotage == isa::Mnemonic::kInvalid && rep.jit_steps == 0 &&
      rep.steps > 4 * opts.hot_threshold)
    diverge("JIT tier never engaged (0 of " + std::to_string(rep.steps) +
            " insns retired in compiled code)");

  if (opts.with_profile) {
    const auto& rp = ref.pc_profile();
    const auto& sp = m.pc_profile();
    for (const auto& [pc, e] : rp) {
      ++rep.profile_pcs;
      auto it = sp.find(pc);
      if (it == sp.end()) {
        diverge("profile: pc " + hex(pc) + " missing under JIT (interp hits=" +
                std::to_string(e.hits) + ")");
        continue;
      }
      if (it->second.hits != e.hits || it->second.cycles != e.cycles)
        diverge("profile @" + hex(pc) + ": interp hits=" +
                std::to_string(e.hits) + " cycles=" +
                std::to_string(e.cycles) + " jit hits=" +
                std::to_string(it->second.hits) + " cycles=" +
                std::to_string(it->second.cycles));
    }
    for (const auto& [pc, e] : sp)
      if (!rp.count(pc))
        diverge("profile: pc " + hex(pc) + " present only under JIT (hits=" +
                std::to_string(e.hits) + ")");
  }

  RVDYN_OBS_COUNT_N("rvdyn.check.jit.steps", rep.steps);
  RVDYN_OBS_COUNT_N("rvdyn.check.jit.jit_steps", rep.jit_steps);
  RVDYN_OBS_COUNT_N("rvdyn.check.jit.profile_pcs", rep.profile_pcs);
  RVDYN_OBS_COUNT_N("rvdyn.check.jit.divergences", rep.divergence_count);
  return rep;
}

}  // namespace rvdyn::check
