// JIT differential oracle: every workload must run divergence-free on
// both backends (final registers, memory digest, per-pc profile), chunked
// session re-entry included — and a deliberately sabotaged template must
// be CAUGHT, proving the oracle has teeth.
#include <gtest/gtest.h>

#include "check/check.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace rvdyn;
using check::JitDiffOptions;
using emu::jit::BackendKind;

struct Workload {
  const char* name;
  std::string src;
};

std::vector<Workload> suite() {
  return {
      {"matmul", workloads::matmul_program(10, 2)},
      {"sort", workloads::sort_program(64)},
      {"fib", workloads::fib_program(14)},
      {"dispatch", workloads::dispatch_program(48)},
      {"call_churn", workloads::call_churn_program(300)},
  };
}

void expect_clean(const check::JitDiffReport& rep, const std::string& label) {
  EXPECT_EQ(rep.divergence_count, 0u) << label;
  for (const auto& d : rep.divergences)
    ADD_FAILURE() << label << ": " << d.subject << ": " << d.detail;
  EXPECT_GT(rep.jit_steps, 0u) << label;
  EXPECT_GT(rep.blocks_compiled, 0u) << label;
  EXPECT_GT(rep.profile_pcs, 0u) << label;
}

TEST(CheckJit, AllWorkloadsBothBackends) {
  for (const auto bk : {BackendKind::X64, BackendKind::Threaded}) {
    for (const auto& w : suite()) {
      JitDiffOptions opts;
      opts.backend = bk;
      const auto rep = check::run_jit_diff(w.name, w.src, opts);
      expect_clean(rep, std::string(w.name) + "/" +
                            (bk == BackendKind::X64 ? "x64" : "threaded"));
    }
  }
}

// Randomized run(k) chunks force budget side-exits and session re-entry at
// arbitrary points in the trace; state must still be bit-exact.
TEST(CheckJit, ChunkedSessionsStayExact) {
  for (const auto& w : suite()) {
    JitDiffOptions opts;
    opts.chunks = 37;
    const auto rep = check::run_jit_diff(w.name, w.src, opts);
    expect_clean(rep, std::string(w.name) + "/chunked");
  }
}

// Meta-test: compile `add` with a deliberately wrong template (result
// xor 1). If the oracle does not light up, it is not actually comparing
// anything that matters.
TEST(CheckJit, SabotagedTemplateIsCaught) {
  for (const auto bk : {BackendKind::X64, BackendKind::Threaded}) {
    JitDiffOptions opts;
    opts.backend = bk;
    opts.sabotage = isa::Mnemonic::add;
    const auto rep =
        check::run_jit_diff("matmul", workloads::matmul_program(10, 1), opts);
    EXPECT_GT(rep.divergence_count, 0u)
        << (bk == BackendKind::X64 ? "x64" : "threaded")
        << ": sabotaged add template produced zero divergences — the "
           "oracle is blind";
  }
}

// Sabotaging a mnemonic the workload never executes must stay clean: the
// hook perturbs only the targeted template, not the tier at large.
TEST(CheckJit, SabotageOfUnusedMnemonicIsClean) {
  JitDiffOptions opts;
  opts.sabotage = isa::Mnemonic::xor_;
  const auto rep =
      check::run_jit_diff("fib", workloads::fib_program(12), opts);
  EXPECT_EQ(rep.divergence_count, 0u);
  for (const auto& d : rep.divergences) ADD_FAILURE() << d.detail;
}

}  // namespace
