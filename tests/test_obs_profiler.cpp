// The observability tentpole's cross-check: an instrumentation-based block
// profiler (snippets bumping guest-memory counters) must agree *exactly*
// with the emulator's own per-PC "hardware" profile. A block's entry count
// is the pc-profile hit count at its start address, since the CFG splits
// blocks at every join point.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "assembler/assembler.hpp"
#include "obs/profiler.hpp"
#include "parse/cfg.hpp"
#include "proccontrol/process.hpp"
#include "workloads/workloads.hpp"

namespace rvdyn {
namespace {

void expect_profiles_match(const std::string& source) {
  const symtab::Symtab bin = assembler::assemble(source, {});

  // Ground truth: run the *original* binary with the emulator-side per-PC
  // profile enabled (the debugger-surface view a perf tool would sample).
  auto truth = proccontrol::Process::launch(bin);
  truth->enable_pc_profile(true);
  const auto ev1 = truth->continue_run();
  ASSERT_EQ(ev1.kind, proccontrol::Event::Kind::Exited);
  const auto& pc_prof = truth->pc_profile();

  // Instrumented view: every block counted by an inserted snippet.
  obs::BlockProfiler profiler(bin);
  ASSERT_FALSE(profiler.counters().empty());
  auto proc = proccontrol::Process::launch(profiler.rewritten());
  proc->install_trap_table(profiler.trap_table());
  const auto ev2 = proc->continue_run();
  ASSERT_EQ(ev2.kind, proccontrol::Event::Kind::Exited);

  // Same program semantics under instrumentation.
  EXPECT_EQ(ev1.exit_code, ev2.exit_code);

  // Exact per-block agreement between the two profiles.
  std::uint64_t total = 0;
  for (const auto& [block, var] : profiler.counters()) {
    const std::uint64_t instrumented = proc->machine().memory().read(var.addr, 8);
    const auto it = pc_prof.find(block);
    const std::uint64_t emulated = it == pc_prof.end() ? 0 : it->second.hits;
    EXPECT_EQ(instrumented, emulated)
        << "block 0x" << std::hex << block << std::dec
        << ": instrumented=" << instrumented << " emulated=" << emulated;
    total += instrumented;
  }
  // The workload actually ran through instrumented code.
  EXPECT_GT(total, 0u);

  // The hot-block table is sorted and consistent with the raw counters.
  const auto hot = profiler.counts(proc->machine());
  ASSERT_FALSE(hot.empty());
  for (std::size_t i = 1; i < hot.size(); ++i)
    EXPECT_GE(hot[i - 1].count, hot[i].count);
  for (const auto& hb : hot)
    EXPECT_EQ(hb.count, profiler.count_of(proc->machine(), hb.block));
}

TEST(ObsProfiler, MatmulBlockFrequenciesMatchEmulator) {
  expect_profiles_match(workloads::matmul_program(6, 3));
}

TEST(ObsProfiler, SortBlockFrequenciesMatchEmulator) {
  expect_profiles_match(workloads::sort_program(48));
}

TEST(ObsProfiler, PcProfileCyclesSumToTotal) {
  const symtab::Symtab bin =
      assembler::assemble(workloads::fib_program(8), {});
  auto proc = proccontrol::Process::launch(bin);
  proc->enable_pc_profile(true);
  const auto ev = proc->continue_run();
  ASSERT_EQ(ev.kind, proccontrol::Event::Kind::Exited);

  std::uint64_t hits = 0, cycles = 0;
  for (const auto& [pc, c] : proc->pc_profile()) {
    hits += c.hits;
    cycles += c.cycles;
  }
  // Every retired instruction was attributed to some pc; every cycle the
  // core charged went to some instruction.
  EXPECT_EQ(hits, proc->machine().instret());
  EXPECT_EQ(cycles, proc->machine().cycles());

  proc->clear_pc_profile();
  EXPECT_TRUE(proc->pc_profile().empty());
}

// A switch whose selector is masked in the check block's unique
// predecessor (`andi t0,a0,7` ... `bgeu t0,t1`): the table index slices
// through the andi to a0, while the bound check compares t0. The bound
// must still be found, or the table read runs on into `other`'s table and
// `dispatch` claims `other`'s case blocks.
constexpr const char* kMaskedSelectorSwitch = R"(
    .rodata
    .align 3
table:
    .dword case0
    .dword case1
    .dword case2
    .dword case3
    .dword case4
table2:
    .dword ocase0
    .dword ocase1
    .text
    .globl _start
_start:
    li s0, 0
    li s1, 0
loop:
    mv a0, s0
    call dispatch
    add s1, s1, a0
    addi s0, s0, 1
    li t0, 12
    blt s0, t0, loop
    li a0, 1
    call other
    add s1, s1, a0
    mv a0, s1
    li a7, 93
    ecall

    .globl dispatch
dispatch:
    andi t0, a0, 7
    j check
check:
    li t1, 5
    bgeu t0, t1, default
    slli t2, t0, 3
    la t3, table
    add t2, t2, t3
    ld t2, 0(t2)
    jr t2
case0: li a0, 1
       ret
case1: li a0, 2
       ret
case2: li a0, 3
       ret
case3: li a0, 4
       ret
case4: li a0, 5
       ret
default:
    li a0, 100
    ret

    .globl other
other:
    li t1, 2
    bgeu a0, t1, odefault
    slli t2, a0, 3
    la t3, table2
    add t2, t2, t3
    ld t2, 0(t2)
    jr t2
ocase0: li a0, 7
        ret
ocase1: li a0, 8
        ret
odefault:
    li a0, 9
    ret
)";

TEST(ObsProfiler, MaskedSelectorJumpTableResolves) {
  const symtab::Symtab bin = assembler::assemble(kMaskedSelectorSwitch, {});
  parse::CodeObject co(bin);
  co.parse({});
  const parse::Function* f = co.function_named("dispatch");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->stats().n_jump_tables, 1u);

  std::set<std::uint64_t> cases;
  for (const char* c : {"case0", "case1", "case2", "case3", "case4"}) {
    const symtab::Symbol* sym = bin.find_symbol(c);
    ASSERT_NE(sym, nullptr) << c;
    cases.insert(sym->value);
  }
  std::set<std::uint64_t> indirect;
  for (const auto& [a, b] : f->blocks())
    for (const auto& e : b->succs())
      if (e.type == parse::EdgeType::IndirectJump) indirect.insert(e.target);
  EXPECT_EQ(indirect, cases);
}

TEST(ObsProfiler, MaskedSelectorJumpTableBlockFrequenciesMatchEmulator) {
  expect_profiles_match(kMaskedSelectorSwitch);
}

}  // namespace
}  // namespace rvdyn
