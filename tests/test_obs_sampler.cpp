// Sampling-profiler tests: the two properties the tentpole promises.
//
//  1. Determinism. Samples fire at exact retired-instruction boundaries,
//     so the folded-stacks output is a pure function of (binary, interval)
//     — byte-identical across repeated runs AND with the JIT tier on or
//     off. This is the profiler analogue of the check/ lockstep oracles.
//
//  2. Agreement with ground truth. The sampled per-function self shares
//     must match the exact instruction-weighted shares from the
//     instrumentation-based BlockProfiler: identical top-5 hot ranking and
//     per-function share within 2 percentage points, on every workload the
//     paper's perf-tool use case cares about (matmul, sort, call churn),
//     with the JIT engaged on the sampled side.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "assembler/assembler.hpp"
#include "emu/machine.hpp"
#include "obs/profiler.hpp"
#include "obs/sampler.hpp"
#include "parse/cfg.hpp"
#include "proccontrol/process.hpp"
#include "workloads/workloads.hpp"

namespace rvdyn {
namespace {

struct SampledRun {
  std::string folded;
  std::uint64_t samples = 0;
  std::uint64_t jit_samples = 0;
  std::vector<obs::FoldedStacks::FuncTotal> hot;
  std::uint64_t total_weight = 0;
};

SampledRun sampled_run(const symtab::Symtab& bin, bool jit,
                       std::uint64_t interval) {
  parse::CodeObject co(bin);
  co.parse();
  emu::Machine m;
  m.set_jit_enabled(jit);
  m.load(bin);
  obs::SamplerOptions opts;
  opts.interval = interval;
  obs::Sampler sampler(m, co, opts);
  EXPECT_EQ(m.run(2'000'000'000ULL), emu::StopReason::Exited);
  sampler.detach();
  return {sampler.folded(), sampler.samples(), sampler.jit_samples(),
          sampler.hot_table(), sampler.stacks().total_weight()};
}

/// Exact per-function instruction-share ground truth from the
/// instrumentation-based BlockProfiler: block entries × static block size.
std::map<std::string, double> exact_shares(const symtab::Symtab& bin) {
  obs::BlockProfiler profiler(bin);
  auto proc = proccontrol::Process::launch(profiler.rewritten());
  proc->install_trap_table(profiler.trap_table());
  EXPECT_EQ(proc->continue_run().kind, proccontrol::Event::Kind::Exited);
  std::map<std::string, double> weight;
  double total = 0;
  for (const auto& hb : profiler.counts(proc->machine())) {
    const double w =
        static_cast<double>(hb.count) * static_cast<double>(hb.n_insns);
    weight[hb.func] += w;
    total += w;
  }
  EXPECT_GT(total, 0);
  for (auto& [name, w] : weight) w /= total;
  return weight;
}

std::vector<std::string> top_n(const std::map<std::string, double>& shares,
                               std::size_t n) {
  std::vector<std::pair<double, std::string>> order;
  for (const auto& [name, share] : shares) order.push_back({-share, name});
  std::sort(order.begin(), order.end());
  std::vector<std::string> out;
  for (std::size_t i = 0; i < order.size() && i < n; ++i)
    out.push_back(order[i].second);
  return out;
}

void expect_sampled_matches_exact(const std::string& src,
                                  std::uint64_t interval) {
  const auto bin = assembler::assemble(src);
  const auto exact = exact_shares(bin);
  const auto run = sampled_run(bin, /*jit=*/true, interval);
  ASSERT_GT(run.samples, 100u) << "too few samples to compare shares";

  std::map<std::string, double> sampled;
  for (const auto& ft : run.hot)
    sampled[ft.name] =
        static_cast<double>(ft.self) / static_cast<double>(run.total_weight);

  // Identical top-5 hot ranking (both sides are deterministic, so strict
  // order comparison is stable).
  EXPECT_EQ(top_n(exact, 5), top_n(sampled, 5));

  // Every function's share agrees within 2 percentage points, whichever
  // side it appears on.
  std::map<std::string, double> all = exact;
  for (const auto& [name, share] : sampled)
    all.emplace(name, 0.0);
  for (const auto& [name, unused] : all) {
    const auto e = exact.count(name) ? exact.at(name) : 0.0;
    const auto s = sampled.count(name) ? sampled.at(name) : 0.0;
    EXPECT_NEAR(e, s, 0.02) << "function " << name;
  }
}

TEST(Sampler, FoldedOutputIsByteIdenticalAcrossRunsAndTiers) {
  const auto bin = assembler::assemble(workloads::matmul_program(16, 3));
  const auto a = sampled_run(bin, /*jit=*/true, 4096);
  const auto b = sampled_run(bin, /*jit=*/true, 4096);
  const auto c = sampled_run(bin, /*jit=*/false, 4096);
  EXPECT_EQ(a.folded, b.folded);  // run-to-run
  EXPECT_EQ(a.folded, c.folded);  // JIT tier on vs. off
  EXPECT_EQ(a.samples, c.samples);
  EXPECT_GT(a.samples, 0u);
  EXPECT_FALSE(a.folded.empty());
}

TEST(Sampler, IntervalChangesSampleCountNotDeterminism) {
  const auto bin = assembler::assemble(workloads::fib_program(20));
  const auto coarse = sampled_run(bin, true, 8192);
  const auto fine = sampled_run(bin, true, 1024);
  const auto fine2 = sampled_run(bin, true, 1024);
  EXPECT_EQ(fine.folded, fine2.folded);
  EXPECT_GT(fine.samples, coarse.samples);
}

TEST(Sampler, DetachStopsSamplingAndKeepsProfile) {
  const auto bin = assembler::assemble(workloads::fib_program(20));
  parse::CodeObject co(bin);
  co.parse();
  emu::Machine m;
  m.load(bin);
  obs::SamplerOptions opts;
  opts.interval = 500;
  obs::Sampler sampler(m, co, opts);
  ASSERT_EQ(m.run(100000), emu::StopReason::Running);
  sampler.detach();
  const auto frozen = sampler.samples();
  EXPECT_EQ(m.run(2'000'000'000ULL), emu::StopReason::Exited);
  EXPECT_EQ(sampler.samples(), frozen);  // no samples while detached
  EXPECT_EQ(sampler.folded(), sampler.folded());
}

TEST(Sampler, LeafOnlyModeFoldsSingleFrames) {
  const auto bin = assembler::assemble(workloads::fib_program(18));
  parse::CodeObject co(bin);
  co.parse();
  emu::Machine m;
  m.load(bin);
  obs::SamplerOptions opts;
  opts.interval = 1000;
  opts.capture_stacks = false;
  obs::Sampler sampler(m, co, opts);
  EXPECT_EQ(m.run(2'000'000'000ULL), emu::StopReason::Exited);
  ASSERT_GT(sampler.samples(), 0u);
  // No ';' anywhere: every folded key is a single frame.
  EXPECT_EQ(sampler.folded().find(';'), std::string::npos);
}

// The interval is prime: a deterministic sampler whose period shares a
// factor with a loop's instruction count aliases — every sample lands on
// the same phase of the loop (call_churn's 32-insn iteration under a
// 256-insn interval attributes 100% to one pc). A prime interval is
// coprime to every loop period, so samples sweep all phases uniformly.
TEST(SamplerVsExact, Matmul) {
  expect_sampled_matches_exact(workloads::matmul_program(20, 2), 251);
}

TEST(SamplerVsExact, Sort) {
  expect_sampled_matches_exact(workloads::sort_program(600), 251);
}

TEST(SamplerVsExact, CallChurn) {
  expect_sampled_matches_exact(workloads::call_churn_program(20000), 251);
}

}  // namespace
}  // namespace rvdyn
