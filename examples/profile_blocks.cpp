// Instrumentation-driven basic-block profiling (the paper's performance-
// tool use case): instrument every block of a workload with a counter
// snippet, run the rewritten binary, and print the hot-block table with
// disassembly. The same run is cross-checked against the emulator's own
// per-PC profile, so the tool validates the numbers it prints.
//
// Observability flags:
//   --flamegraph <path>  sample the uninstrumented run with obs::Sampler
//                        and write FlameGraph/speedscope folded stacks
//   --postmortem         print an obs::postmortem_report of the final
//                        machine state (block trace enabled for the run)
#include <cstdio>
#include <optional>
#include <string>

#include "assembler/assembler.hpp"
#include "obs/metrics.hpp"
#include "obs/postmortem.hpp"
#include "obs/profiler.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "parse/cfg.hpp"
#include "proccontrol/process.hpp"
#include "workloads/workloads.hpp"

using namespace rvdyn;

int main(int argc, char** argv) {
  std::string flame_path;
  bool postmortem = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--flamegraph" && i + 1 < argc) {
      flame_path = argv[++i];
    } else if (a == "--postmortem") {
      postmortem = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--flamegraph <path>] [--postmortem]\n", argv[0]);
      return 2;
    }
  }

  obs::TraceSink::instance().set_enabled(true);

  const std::string src = workloads::matmul_program(8, 4);
  const symtab::Symtab bin = assembler::assemble(src, {});
  parse::CodeObject co(bin);
  co.parse();

  // Ground truth: emulator-side per-PC profile of the original binary.
  auto truth = proccontrol::Process::launch(bin);
  truth->enable_pc_profile(true);
  if (postmortem) truth->machine().enable_block_trace(true);
  std::optional<obs::Sampler> sampler;
  if (!flame_path.empty()) {
    obs::SamplerOptions sopts;
    sopts.interval = 1021;  // short demo workload: sample densely (prime
                            // interval, see SamplerOptions::interval)
    sampler.emplace(truth->machine(), co, sopts);
  }
  const auto ev0 = truth->continue_run();
  if (ev0.kind != proccontrol::Event::Kind::Exited) {
    std::fprintf(stderr, "uninstrumented run did not exit\n");
    return 1;
  }

  // Instrument every basic block and run the rewritten binary.
  obs::BlockProfiler profiler(bin);
  auto proc = proccontrol::Process::launch(profiler.rewritten());
  proc->install_trap_table(profiler.trap_table());
  const auto ev = proc->continue_run();
  if (ev.kind != proccontrol::Event::Kind::Exited ||
      ev.exit_code != ev0.exit_code) {
    std::fprintf(stderr, "instrumented run diverged (kind=%d exit=%d/%d)\n",
                 static_cast<int>(ev.kind), ev.exit_code, ev0.exit_code);
    return 1;
  }

  const auto hot = profiler.counts(proc->machine());
  if (hot.empty()) {
    std::fprintf(stderr, "no blocks instrumented\n");
    return 1;
  }

  std::printf("hot blocks (%zu instrumented, instret=%llu):\n", hot.size(),
              static_cast<unsigned long long>(proc->machine().instret()));
  std::printf("%-18s %-12s %-20s %s\n", "block", "entries", "function",
              "first insns");
  int rows = 0;
  std::uint64_t total = 0;
  for (const auto& hb : hot) {
    total += hb.count;
    if (rows++ >= 10) continue;  // print the top 10, sum everything
    // Disassemble the first few instructions of the block.
    std::string disas;
    for (const auto& [entry, func] : profiler.code().functions()) {
      const auto* blk = func->block_at(hb.block);
      if (!blk) continue;
      unsigned shown = 0;
      for (const auto& pi : blk->insns()) {
        if (shown++ == 3) {
          disas += "; ...";
          break;
        }
        if (!disas.empty()) disas += "; ";
        disas += pi.insn.to_string();
      }
      break;
    }
    std::printf("0x%-16llx %-12llu %-20s %s\n",
                static_cast<unsigned long long>(hb.block),
                static_cast<unsigned long long>(hb.count), hb.func.c_str(),
                disas.c_str());
  }
  std::printf("total block entries: %llu\n",
              static_cast<unsigned long long>(total));

  // Validate against the emulator profile: exact per-block agreement.
  const auto& pc_prof = truth->pc_profile();
  for (const auto& hb : hot) {
    const auto it = pc_prof.find(hb.block);
    const std::uint64_t emulated = it == pc_prof.end() ? 0 : it->second.hits;
    if (hb.count != emulated) {
      std::fprintf(stderr,
                   "mismatch at block 0x%llx: instrumented=%llu emulated=%llu\n",
                   static_cast<unsigned long long>(hb.block),
                   static_cast<unsigned long long>(hb.count),
                   static_cast<unsigned long long>(emulated));
      return 1;
    }
  }
  if (total == 0) {
    std::fprintf(stderr, "no block entries recorded\n");
    return 1;
  }
  std::printf("emulator cross-check: all %zu blocks agree exactly\n",
              hot.size());

  if (sampler) {
    sampler->detach();
    std::printf("\nsampled profile (%llu samples, interval %llu):\n%s",
                static_cast<unsigned long long>(sampler->samples()),
                static_cast<unsigned long long>(sampler->options().interval),
                sampler->stacks().hot_table_text().c_str());
    if (!sampler->stacks().write_folded(flame_path)) {
      std::fprintf(stderr, "failed to write %s\n", flame_path.c_str());
      return 1;
    }
    std::printf("folded stacks written to %s (feed to flamegraph.pl or "
                "speedscope)\n", flame_path.c_str());
  }

  if (postmortem)
    std::printf("\n%s", obs::postmortem_report(*truth, co).c_str());

  proc->machine().publish_metrics();
  obs::TraceSink::instance().set_enabled(false);
  std::printf("\nmetrics snapshot:\n%s\n",
              obs::Registry::instance().to_json().c_str());
  std::printf("\ntimeline:\n%s", obs::TraceSink::instance().text().c_str());
  return 0;
}
