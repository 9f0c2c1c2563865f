// The campaign loop end-to-end: coverage-guided search must find the
// seeded ebreak behind a staged magic compare, triage it with a
// postmortem, and keep per-worker metrics in their own scoped namespaces.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "assembler/assembler.hpp"
#include "fuzz/fuzz.hpp"
#include "obs/metrics.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace rvdyn;

symtab::Symtab target_binary(const std::string& magic) {
  return assembler::assemble(workloads::fuzz_target_program(magic));
}

fuzz::CampaignOptions fast_opts(unsigned workers = 1) {
  fuzz::CampaignOptions o;
  o.workers = workers;
  o.max_execs = 300000;
  o.batch = 16;
  o.seed = 42;
  return o;
}

TEST(FuzzCampaign, FindsSeededBugThroughStagedCompares) {
  fuzz::Campaign c(target_binary("RV"), fast_opts());
  const auto r = c.run();

  ASSERT_TRUE(c.target().trap_entries == 0);
  ASSERT_TRUE(r.found_crash())
      << "budget " << r.execs << " execs, corpus " << r.corpus_size
      << ", edges " << r.edges_covered;
  const fuzz::CrashReport& cr = r.crashes.front();
  EXPECT_EQ(cr.reason, emu::StopReason::Breakpoint);
  ASSERT_GE(cr.input.size(), 2u);
  EXPECT_EQ(cr.input[0], 'R');
  EXPECT_EQ(cr.input[1], 'V');
  EXPECT_FALSE(cr.postmortem.empty());
  EXPECT_NE(cr.postmortem.find("ebreak"), std::string::npos)
      << cr.postmortem;
  EXPECT_GT(cr.found_at_exec, 0u);
  EXPECT_LE(cr.found_at_exec, r.execs);
}

TEST(FuzzCampaign, CoverageCurveRises) {
  auto opts = fast_opts();
  opts.max_execs = 40000;
  opts.stop_on_crash = false;
  fuzz::Campaign c(target_binary("XYZQ"), opts);
  const auto r = c.run();

  ASSERT_GE(r.coverage_curve.size(), 2u)
      << "search never found anything novel after the seed";
  for (std::size_t i = 1; i < r.coverage_curve.size(); ++i) {
    EXPECT_LE(r.coverage_curve[i - 1].first, r.coverage_curve[i].first);
    EXPECT_LE(r.coverage_curve[i - 1].second, r.coverage_curve[i].second);
  }
  EXPECT_GT(r.coverage_curve.back().second, r.coverage_curve.front().second);
  EXPECT_EQ(r.coverage_curve.back().second, r.edges_covered);
  EXPECT_GT(r.corpus_size, 1u);
}

TEST(FuzzCampaign, MultiWorkerShardsAndStillFindsTheBug) {
  fuzz::Campaign c(target_binary("RV"), fast_opts(2));
  const auto r = c.run();
  ASSERT_TRUE(r.found_crash());

  // Per-worker counters live in their own namespaces and sum to the
  // campaign total.
  const auto& reg = obs::Registry::instance();
  const std::uint64_t w0 = reg.value("rvdyn.fuzz.w0.execs");
  const std::uint64_t w1 = reg.value("rvdyn.fuzz.w1.execs");
  EXPECT_EQ(w0 + w1, r.execs);
  EXPECT_GT(w0, 0u);  // worker 0 at least ran the seed calibration
}

// Back-to-back campaigns must not accumulate worker counters (the scoped
// registry reset) and must not leak coverage state between instances.
TEST(FuzzCampaign, RepeatCampaignsStartClean) {
  const auto bin = target_binary("RV");
  std::uint64_t execs_per_run[2];
  std::uint64_t found_at[2];
  for (int i = 0; i < 2; ++i) {
    fuzz::Campaign c(bin, fast_opts());
    const auto r = c.run();
    ASSERT_TRUE(r.found_crash()) << "run " << i;
    execs_per_run[i] = r.execs;
    found_at[i] = r.crashes.front().found_at_exec;
    EXPECT_EQ(obs::Registry::instance().value("rvdyn.fuzz.w0.execs"),
              r.execs)
        << "scoped reset failed: counters accumulated across campaigns";
  }
  // Determinism: same binary, same seed, fresh campaign — same search.
  EXPECT_EQ(execs_per_run[0], execs_per_run[1]);
  EXPECT_EQ(found_at[0], found_at[1]);
}

// Schedule pin: a single worker pops its own LIFO stack of corpus indices
// (admitted entries, then a fresh pick after every item). Any change to
// that order moves the exec count at which the bug is found, so these
// figures must stay fixed.
TEST(FuzzCampaign, SingleWorkerScheduleIsPinned) {
  const auto bin = target_binary("RV!");
  const std::pair<std::uint64_t, std::uint64_t> pins[] = {{1, 18218},
                                                          {2, 35754}};
  for (const auto& [seed, found_at] : pins) {
    fuzz::CampaignOptions o;
    o.seed = seed;
    o.max_input_len = 8;
    o.max_execs = 3000000;
    fuzz::Campaign c(bin, o);
    const auto r = c.run();
    ASSERT_TRUE(r.found_crash()) << "seed " << seed;
    EXPECT_EQ(r.crashes.front().found_at_exec, found_at) << "seed " << seed;
  }
}

TEST(FuzzCampaign, ScopedViewIsolatesNamespaces) {
  obs::ScopedView a("fuzztest.a"), b("fuzztest.b");
  const auto ca = a.counter("hits");
  const auto cb = b.counter("hits");
  ca.add(3);
  cb.add(5);
  EXPECT_EQ(a.value("hits"), 3u);
  EXPECT_EQ(b.value("hits"), 5u);
  a.reset();
  EXPECT_EQ(a.value("hits"), 0u);
  EXPECT_EQ(b.value("hits"), 5u) << "prefix reset bled into a sibling";
}

TEST(FuzzCampaign, RejectsTargetWithoutContractSymbols) {
  EXPECT_THROW(
      fuzz::Campaign(assembler::assemble(workloads::fib_program(5))),
      rvdyn::Error);
}

}  // namespace
