// Postmortem-report tests: when a guest run stops somewhere it should not,
// postmortem_report() must assemble the stop reason, faulting-instruction
// disassembly, register file, stack walk, block-trace tail, and trace-sink
// tail into one deterministic text report.
#include <gtest/gtest.h>

#include <string>

#include "assembler/assembler.hpp"
#include "emu/machine.hpp"
#include "obs/postmortem.hpp"
#include "obs/trace.hpp"
#include "parse/cfg.hpp"
#include "proccontrol/process.hpp"

namespace rvdyn {
namespace {

// Two-deep call chain ending in an ebreak, with proper sp-height frames so
// the walk recovers _start -> outer -> boom.
constexpr const char* kTrapChain = R"(
    .globl _start
    .globl outer
    .globl boom
_start:
    call outer
    li a7, 93
    li a0, 0
    ecall
outer:
    addi sp, sp, -16
    sd ra, 8(sp)
    call boom
    ld ra, 8(sp)
    addi sp, sp, 16
    ret
boom:
    addi sp, sp, -16
    sd ra, 8(sp)
    li a1, 12345
    ebreak
)";

TEST(Postmortem, BreakpointReportHasAllSections) {
  const auto bin = assembler::assemble(kTrapChain);
  parse::CodeObject co(bin);
  co.parse();
  emu::Machine m;
  m.enable_block_trace(true);
  m.load(bin);
  const auto r = m.run(1'000'000);
  ASSERT_EQ(r, emu::StopReason::Breakpoint);

  const std::string report = obs::postmortem_report(m, co, r);
  // Header: stop reason, symbolized pc, counters.
  EXPECT_NE(report.find("=== rvdyn postmortem ==="), std::string::npos);
  EXPECT_NE(report.find("breakpoint (ebreak)"), std::string::npos);
  EXPECT_NE(report.find("boom"), std::string::npos);
  EXPECT_NE(report.find("instret: "), std::string::npos);
  // Faulting instruction decodes to the ebreak.
  EXPECT_NE(report.find("--- faulting instruction ---"), std::string::npos);
  EXPECT_NE(report.find("ebreak"), std::string::npos);
  // Register file: all 32 registers, ABI + arch names; a1 holds the
  // sentinel value written just before the trap.
  EXPECT_NE(report.find("--- registers ---"), std::string::npos);
  EXPECT_NE(report.find("zero(x0 )"), std::string::npos);
  EXPECT_NE(report.find("t6  (x31)"), std::string::npos);
  char a1line[32];
  std::snprintf(a1line, sizeof(a1line), "%016llx",
                static_cast<unsigned long long>(12345));
  EXPECT_NE(report.find(a1line), std::string::npos);
  // Stack walk recovers the full chain.
  EXPECT_NE(report.find("--- stack ---"), std::string::npos);
  const auto stack_pos = report.find("--- stack ---");
  const auto blocks_pos = report.find("--- last executed blocks");
  ASSERT_NE(blocks_pos, std::string::npos);
  const std::string stack = report.substr(stack_pos, blocks_pos - stack_pos);
  EXPECT_NE(stack.find("boom"), std::string::npos);
  EXPECT_NE(stack.find("outer"), std::string::npos);
  EXPECT_NE(stack.find("_start"), std::string::npos);
  // Block trace was on: the tail lists executed blocks with instret stamps.
  EXPECT_NE(report.find("[instret "), std::string::npos);
}

TEST(Postmortem, BadFetchReportsUnmappedPc) {
  const auto bin = assembler::assemble(R"(
    .globl _start
_start:
    li t0, 0x40
    jr t0
)");
  parse::CodeObject co(bin);
  co.parse();
  emu::Machine m;
  m.load(bin);
  const auto r = m.run(1'000'000);
  ASSERT_EQ(r, emu::StopReason::BadFetch);

  const std::string report = obs::postmortem_report(m, co, r);
  EXPECT_NE(report.find("bad fetch (pc unmapped)"), std::string::npos);
  EXPECT_NE(report.find("<pc unmapped: no bytes to decode>"),
            std::string::npos);
  // Block trace was never enabled: the report says how to turn it on.
  EXPECT_NE(report.find("block trace disabled"), std::string::npos);
}

TEST(Postmortem, ProcessOverloadUsesLastStop) {
  const auto bin = assembler::assemble(kTrapChain);
  parse::CodeObject co(bin);
  co.parse();
  auto proc = proccontrol::Process::launch(bin);
  const auto ev = proc->continue_run();
  ASSERT_EQ(static_cast<int>(ev.kind),
            static_cast<int>(proccontrol::Event::Kind::Stopped));

  const std::string report = obs::postmortem_report(*proc, co);
  EXPECT_NE(report.find("breakpoint (ebreak)"), std::string::npos);
  EXPECT_NE(report.find("boom"), std::string::npos);
}

TEST(Postmortem, TraceSinkTailAppearsWhenEnabled) {
  const auto bin = assembler::assemble(kTrapChain);
  parse::CodeObject co(bin);
  co.parse();
  emu::Machine m;
  m.load(bin);
  const auto r = m.run(1'000'000);
  ASSERT_EQ(r, emu::StopReason::Breakpoint);

  obs::PostmortemOptions opts;
  opts.include_trace_events = false;
  const std::string quiet = obs::postmortem_report(m, co, r, opts);
  EXPECT_EQ(quiet.find("--- recent trace events ---"), std::string::npos);

  obs::TraceSink::instance().clear();
  obs::TraceSink::instance().set_enabled(true);
  obs::TraceSink::instance().instant("test.postmortem.marker");
  const std::string report = obs::postmortem_report(m, co, r);
  obs::TraceSink::instance().set_enabled(false);
  EXPECT_NE(report.find("--- recent trace events ---"), std::string::npos);
  EXPECT_NE(report.find("test.postmortem.marker"), std::string::npos);
}

}  // namespace
}  // namespace rvdyn
