// The benchmark's own tests: the seeded corpus is deterministic and every
// program in it runs to exit, its jump tables stay resolvable, and a
// deliberately corrupted instrumentation counter is counted as a failed op.
#include <gtest/gtest.h>

#include "corpus.hpp"
#include "parse/cfg.hpp"
#include "proccontrol/process.hpp"
#include "symtab/symtab.hpp"
#include "workload.hpp"

namespace rvdyn_bench {
namespace {

using namespace rvdyn;

TEST(Corpus, SameSeedGivesByteIdenticalElf) {
  for (const int n : {1, 40, 600}) {
    const auto a = assemble_program(generate_program(7, n));
    const auto b = assemble_program(generate_program(7, n));
    EXPECT_EQ(a, b) << n << " functions";
    EXPECT_NE(a, assemble_program(generate_program(8, n))) << n << " functions";
  }
}

TEST(Corpus, SizesAreTheLogUniformLadder) {
  const auto s = corpus_sizes(5);
  ASSERT_EQ(s.size(), 5u);
  EXPECT_EQ(s.front(), 100);
  EXPECT_EQ(s.back(), 8000);
  for (std::size_t i = 1; i < s.size(); ++i) EXPECT_GT(s[i], s[i - 1]);
}

TEST(Corpus, EveryProgramRunsToExitWithResolvedJumpTables) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    for (const int n : {1, 2, 30, 400}) {
      const std::string src = generate_program(seed, n);
      const auto bin = symtab::Symtab::read(assemble_program(src));
      auto proc = proccontrol::Process::launch(bin);
      const auto ev = proc->continue_run(50'000'000);
      EXPECT_EQ(ev.kind, proccontrol::Event::Kind::Exited)
          << "seed " << seed << ", " << n << " functions";

      parse::CodeObject co(bin);
      co.parse();
      std::size_t switches = 0;
      for (std::size_t at = src.find("jr t2"); at != std::string::npos;
           at = src.find("jr t2", at + 1))
        ++switches;
      EXPECT_EQ(co.total_stats().n_jump_tables, switches)
          << "seed " << seed << ", " << n << " functions";
    }
}

TEST(Stats, TailHasTenSamplesBeyondIt) {
  std::vector<double> v;
  for (int i = 1; i <= 40; ++i) v.push_back(i);
  std::size_t rank = 0;
  EXPECT_EQ(tail(v, &rank), 30);
  EXPECT_EQ(rank, 30u);
  EXPECT_EQ(median(v), 20.5);
  EXPECT_EQ(tail({3, 1, 2}, &rank), 3);  // too few samples: the maximum
}

// The counters start at 1 instead of 0: every counter check must fail, and
// the op must be counted as failed while the clean run passes.
void expect_corruption_caught(const char* workload) {
  Tracer off(false);
  Options clean;
  clean.seed = 3;
  Options corrupt = clean;
  corrupt.corrupt_counters = true;
  auto good = make_workload(workload, clean, off);
  auto bad = make_workload(workload, corrupt, off);
  EXPECT_TRUE(good->run_op(0, off).ok) << workload;
  EXPECT_FALSE(bad->run_op(0, off).ok) << workload;
}

TEST(Checks, CorruptedCounterIsAFailedOpOnRewrite) { expect_corruption_caught("rewrite"); }
TEST(Checks, CorruptedCounterIsAFailedOpOnProfile) { expect_corruption_caught("profile"); }

TEST(Checks, FuzzCampaignFindsTheSeededBug) {
  Tracer off(false);
  Options o;
  o.seed = 5;
  auto w = make_workload("fuzz", o, off);
  const OpResult r = w->run_op(0, off);
  EXPECT_TRUE(r.ok);
  EXPECT_GT(r.work, 0);
  EXPECT_GT(w->overhead_pct(), 0);
}

}  // namespace
}  // namespace rvdyn_bench
