// Observability-layer benchmark: what the v2 obs surface costs. Writes
// BENCH_obs.json with three groups of entries:
//
//   * sampling_overhead_*  — JIT-tier matmul throughput with the sampling
//     profiler attached at several intervals vs. unsampled baseline; the
//     default interval (2^18) must stay under the 5% budget.
//   * export               — latency of one prometheus_text() and one
//     json_snapshot() over a populated registry.
//   * postmortem           — time to assemble one full postmortem_report
//     (register dump + stack walk + block trace + trace-sink tail).
//
// Hand-rolled timing (steady_clock around Machine::run) like bench_jit:
// each entry is a pair of long deterministic runs and the quantity of
// interest is the ratio.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "assembler/assembler.hpp"
#include "bench_util.hpp"
#include "emu/machine.hpp"
#include "obs/export.hpp"
#include "obs/postmortem.hpp"
#include "obs/sampler.hpp"
#include "parse/cfg.hpp"
#include "workloads/workloads.hpp"

using namespace rvdyn;

namespace {

double run_timed(emu::Machine& m, const symtab::Symtab& bin) {
  m.set_jit_enabled(true);
  m.load(bin);
  const auto t0 = std::chrono::steady_clock::now();
  const auto r = m.run(4'000'000'000ULL);
  const auto t1 = std::chrono::steady_clock::now();
  if (r != emu::StopReason::Exited) {
    std::fprintf(stderr, "workload did not exit (stop=%d)\n",
                 static_cast<int>(r));
    std::exit(1);
  }
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main() {
  // Long enough (~tens of millions of retired insns) that JIT warmup and
  // scheduler noise sit in the measurement floor; best-of-3 filters the
  // rest. The quantity of interest is a ratio of two long runs.
  const std::string src = workloads::matmul_program(96, 8);
  const auto bin = assembler::assemble(src);
  parse::CodeObject co(bin);
  co.parse();
  constexpr int kReps = 3;

  bench::JsonWriter out("BENCH_obs.json");

  // --- sampling overhead vs. rate -----------------------------------------
  double base_s = 0;
  std::uint64_t base_instret = 0;
  for (int i = 0; i < kReps; ++i) {
    emu::Machine m;
    const double s = run_timed(m, bin);
    if (i == 0 || s < base_s) base_s = s;
    base_instret = m.instret();
    if (i + 1 == kReps) m.publish_metrics();  // populate the export bench
  }
  const double base_ips = base_instret / base_s;
  std::printf("%-26s %12.3g insns/s (baseline, no sampler)\n", "matmul/jit",
              base_ips);

  // Largest primes below 2^14 / 2^16 / 2^18 / 2^20 — prime for the same
  // anti-aliasing reason as the SamplerOptions default.
  const std::uint64_t intervals[] = {16381, 65521, 262139, 1048573};
  for (const std::uint64_t interval : intervals) {
    obs::SamplerOptions opts;
    opts.interval = interval;
    double best_s = 0;
    std::uint64_t samples = 0, jit_samples = 0, instret = 0;
    for (int i = 0; i < kReps; ++i) {
      emu::Machine m;
      obs::Sampler sampler(m, co, opts);
      const double s = run_timed(m, bin);
      sampler.detach();
      if (i == 0 || s < best_s) best_s = s;
      samples = sampler.samples();
      jit_samples = sampler.jit_samples();
      instret = m.instret();
    }
    const double overhead = bench::pct_overhead(
        static_cast<std::uint64_t>(base_s * 1e9),
        static_cast<std::uint64_t>(best_s * 1e9));
    char name[64];
    std::snprintf(name, sizeof(name), "sampling_overhead_i%llu",
                  static_cast<unsigned long long>(interval));
    out.add(name, {
                      {"interval", static_cast<double>(interval)},
                      {"baseline_insns_per_s", base_ips},
                      {"sampled_insns_per_s", instret / best_s},
                      {"overhead_pct", overhead},
                      {"samples", static_cast<double>(samples)},
                      {"jit_samples", static_cast<double>(jit_samples)},
                  });
    std::printf("%-26s %12.3g insns/s  %+6.2f%%  (%llu samples)\n", name,
                instret / best_s, overhead,
                static_cast<unsigned long long>(samples));
    if (interval == 262139 && overhead > 5.0)
      std::fprintf(stderr,
                   "WARNING: default-rate sampling overhead %.2f%% exceeds "
                   "the 5%% budget\n", overhead);
  }

  // --- export latency ------------------------------------------------------
  {
    constexpr int kIters = 200;
    std::size_t prom_bytes = 0, json_bytes = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) prom_bytes = obs::prometheus_text().size();
    auto t1 = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) json_bytes = obs::json_snapshot().size();
    auto t2 = std::chrono::steady_clock::now();
    const double prom_us =
        std::chrono::duration<double, std::micro>(t1 - t0).count() / kIters;
    const double json_us =
        std::chrono::duration<double, std::micro>(t2 - t1).count() / kIters;
    out.add("export", {
                          {"prometheus_us", prom_us},
                          {"json_snapshot_us", json_us},
                          {"prometheus_bytes", static_cast<double>(prom_bytes)},
                          {"json_bytes", static_cast<double>(json_bytes)},
                      });
    std::printf("%-26s prometheus %.1fus (%zuB), json %.1fus (%zuB)\n",
                "export", prom_us, prom_bytes, json_us, json_bytes);
  }

  // --- postmortem generation time -----------------------------------------
  {
    emu::Machine m;
    m.enable_block_trace(true);
    m.load(bin);
    const auto r = m.run(4'000'000'000ULL);
    constexpr int kIters = 50;
    std::size_t bytes = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i)
      bytes = obs::postmortem_report(m, co, r).size();
    const auto t1 = std::chrono::steady_clock::now();
    const double us =
        std::chrono::duration<double, std::micro>(t1 - t0).count() / kIters;
    out.add("postmortem", {
                              {"report_us", us},
                              {"report_bytes", static_cast<double>(bytes)},
                          });
    std::printf("%-26s %.1fus per report (%zuB)\n", "postmortem", us, bytes);
  }

  if (!out.write()) {
    std::fprintf(stderr, "failed to write BENCH_obs.json\n");
    return 1;
  }
  return 0;
}
