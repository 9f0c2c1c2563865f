// JIT invalidation races: write_code into a currently-chained compiled
// block, guest fence.i mid-trace, and the PR-1 precise-eviction
// self-modifying-code scenarios replayed with the tier forced hot. The
// contract mirrors the interpreter's cache rules exactly: write_code and
// fence.i drop (and unchain) compiled blocks; plain guest stores do not.
#include <gtest/gtest.h>

#include "assembler/assembler.hpp"
#include "emu/machine.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace rvdyn;
using emu::Machine;
using emu::StopReason;

using emu::jit::BackendKind;

const BackendKind kBackends[] = {BackendKind::X64, BackendKind::Threaded};

const char* bk_name(BackendKind b) {
  return b == BackendKind::X64 ? "x64" : "threaded";
}

void put32(Machine& m, std::uint64_t addr, std::uint32_t word) {
  std::uint8_t b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(word >> (8 * i));
  m.write_code(addr, b, 4);
}

// Compile a two-block chained loop, then write_code into the *target* of a
// live chain edge. The tier must drop the patched block AND re-patch the
// surviving block's edge back to its side-exit stub — a stale chain would
// jump straight into freed or outdated code.
TEST(JitInvalidate, WriteCodeIntoChainedBlock) {
  for (BackendKind bk : kBackends) {
    Machine m;
    m.jit_config().backend = bk;
    m.jit_config().hot_threshold = 1;
    // Two blocks chained into a loop:
    //   A @ 0x1000: addi a1, a1, 1 ; j B          (jal edge A->B)
    //   B @ 0x1008: addi a0, a0, -1 ; bnez a0, A  (taken edge B->A)
    //   0x1010: ebreak
    put32(m, 0x1000, 0x00158593);
    put32(m, 0x1004, 0x0040006f);  // jal x0, +4 -> 0x1008
    put32(m, 0x1008, 0xfff50513);
    put32(m, 0x100c, 0xfe051ae3);  // bne a0, x0, -12 -> 0x1000
    put32(m, 0x1010, 0x00100073);
    m.set_pc(0x1000);
    m.set_x(10, 200);
    m.set_x(11, 0);
    // First leg: hot loop compiles and chains A->B->A.
    EXPECT_EQ(m.run(400), StopReason::Running) << bk_name(bk);
    const auto warm = m.jit_stats();
    EXPECT_GT(warm.blocks_compiled, 1u) << bk_name(bk);
    EXPECT_GT(warm.chains_installed, 0u) << bk_name(bk);
    // Patch A's first insn while B's compiled code is chained into A. The
    // tier must drop A and re-point B's live edge at its side-exit stub.
    put32(m, 0x1000, 0x00258593);  // addi a1, a1, 2
    const auto after = m.jit_stats();
    EXPECT_GT(after.evict_write_code, 0u) << bk_name(bk);
    EXPECT_GT(after.chains_broken, 0u) << bk_name(bk);
    // Second leg must see the new +2 on every remaining iteration.
    const std::uint64_t done_before = m.get_x(11);  // = iterations done
    EXPECT_EQ(m.run(100000), StopReason::Breakpoint) << bk_name(bk);
    EXPECT_EQ(m.get_x(11), done_before + 2 * (200 - done_before))
        << bk_name(bk);
    EXPECT_EQ(m.get_x(10), 0u) << bk_name(bk);
  }
}

// Guest fence.i mid-trace: self-modifying code patches an already-compiled
// probe, then fence.i. With the fence the new bytes execute; without it
// the stale compiled code keeps running — byte-identical to the
// interpreter's (deliberate) stale-cache behavior.
TEST(JitInvalidate, FenceIMidTraceDropsCompiledBlocks) {
  for (BackendKind bk : kBackends) {
    for (const bool with_fence : {false, true}) {
      Machine m;
      m.jit_config().backend = bk;
      m.jit_config().hot_threshold = 1;
      // probe: addi a0, a0, 1; ret
      put32(m, 0x1080, 0x00150513);
      put32(m, 0x1084, 0x00008067);
      // main loop, runs `reps` times so the probe is compiled long before
      // the patch lands:
      //   call probe
      //   sw t1, 0(t0)        (patch probe's first insn with addi a0,a0,2)
      //   [fence.i | nop]
      //   call probe
      //   addi a2, a2, -1
      //   bnez a2, main
      //   ebreak
      put32(m, 0x1000, 0x080000ef);  // jal ra, +0x80 -> 0x1080
      put32(m, 0x1004, 0x0062a023);  // sw t1, 0(t0)
      put32(m, 0x1008, with_fence ? 0x0000100f : 0x00000013);
      put32(m, 0x100c, 0x074000ef);  // jal ra, +0x74 -> 0x1080
      put32(m, 0x1010, 0xfff60613);  // addi a2, a2, -1
      put32(m, 0x1014, 0xfe0616e3);  // bne a2, x0, -20 -> 0x1000
      put32(m, 0x1018, 0x00100073);  // ebreak
      m.set_pc(0x1000);
      const int reps = 40;
      m.set_x(10, 0);
      m.set_x(12, reps);
      m.set_x(5, 0x1080);                       // t0 = probe
      m.set_x(6, 0x00250513);                   // t1 = addi a0, a0, 2
      EXPECT_EQ(m.run(1000000), StopReason::Breakpoint)
          << bk_name(bk) << " fence=" << with_fence;
      // First call of iteration 1 sees +1. With fence.i every subsequent
      // call sees +2 (1 + 2*(2*reps-1)); without it the stale +1 persists
      // for all 2*reps calls.
      const std::uint64_t want =
          with_fence ? 1 + 2 * (2 * reps - 1) : 2 * reps;
      EXPECT_EQ(m.get_x(10), want) << bk_name(bk) << " fence=" << with_fence;
      if (with_fence) {
        EXPECT_GT(m.jit_stats().evict_fencei, 0u) << bk_name(bk);
      }
      EXPECT_GT(m.jit_stats().insns_retired, 0u) << bk_name(bk);
    }
  }
}

// PR-1 precise-eviction regression, tier forced hot: the write_code /
// stale-decode scenarios from test_emu_cache must behave identically with
// compiled code in the picture.
TEST(JitInvalidate, WriteCodeEvictsCompiledBlocks) {
  for (BackendKind bk : kBackends) {
    Machine m;
    m.jit_config().backend = bk;
    m.jit_config().hot_threshold = 1;
    put32(m, 0x1000, 0x00150513);  // addi a0, a0, 1
    put32(m, 0x1004, 0x00150513);  // addi a0, a0, 1
    put32(m, 0x1008, 0x00100073);  // ebreak
    // Run the block enough times to compile it.
    for (int i = 0; i < 4; ++i) {
      m.set_pc(0x1000);
      m.set_x(10, 0);
      EXPECT_EQ(m.run(100), StopReason::Breakpoint) << bk_name(bk);
      EXPECT_EQ(m.get_x(10), 2u) << bk_name(bk);
    }
    EXPECT_GT(m.jit_stats().blocks_compiled, 0u) << bk_name(bk);
    // Patch the second instruction; rerunning must see the new bytes.
    put32(m, 0x1004, 0x00250513);  // addi a0, a0, 2
    m.set_pc(0x1000);
    m.set_x(10, 0);
    EXPECT_EQ(m.run(100), StopReason::Breakpoint) << bk_name(bk);
    EXPECT_EQ(m.get_x(10), 3u) << bk_name(bk);
    EXPECT_GT(m.jit_stats().evict_write_code, 0u) << bk_name(bk);
  }
}

// Plain guest stores over compiled code do NOT invalidate (matching the
// interpreter and real hardware): the stale compiled block keeps running
// until a fence.i.
TEST(JitInvalidate, PlainStoresDoNotInvalidate) {
  for (BackendKind bk : kBackends) {
    Machine m;
    m.jit_config().backend = bk;
    m.jit_config().hot_threshold = 1;
    // probe: addi a0, a0, 1; ret  — called in a loop; one iteration stores
    // over it with no fence.
    put32(m, 0x1040, 0x00150513);
    put32(m, 0x1044, 0x00008067);
    put32(m, 0x1000, 0x040000ef);  // jal ra, +0x40
    put32(m, 0x1004, 0x0062a023);  // sw t1, 0(t0)
    put32(m, 0x1008, 0xfff60613);  // addi a2, a2, -1
    put32(m, 0x100c, 0xfe061ae3);  // bne a2, x0, -12
    put32(m, 0x1010, 0x00100073);  // ebreak
    m.set_pc(0x1000);
    m.set_x(10, 0);
    m.set_x(12, 30);
    m.set_x(5, 0x1040);
    m.set_x(6, 0x00250513);  // would be addi a0, a0, 2 if decoded
    EXPECT_EQ(m.run(100000), StopReason::Breakpoint) << bk_name(bk);
    EXPECT_EQ(m.get_x(10), 30u) << bk_name(bk);  // +1 every time, never +2
    EXPECT_EQ(m.jit_stats().evict_write_code, 0u) << bk_name(bk);
    EXPECT_EQ(m.jit_stats().evict_fencei, 0u) << bk_name(bk);
  }
}

// Interleave patching with hot execution many times: every epoch bump must
// recompile from current bytes, never resurrect dropped code.
TEST(JitInvalidate, RepeatedPatchRecompileCycles) {
  for (BackendKind bk : kBackends) {
    Machine m;
    m.jit_config().backend = bk;
    m.jit_config().hot_threshold = 1;
    put32(m, 0x1008, 0x00100073);  // ebreak
    std::uint64_t want = 0;
    m.set_x(10, 0);
    for (std::uint32_t k = 1; k <= 20; ++k) {
      const std::uint32_t imm = k & 0x7ff;
      put32(m, 0x1000, 0x00050513 | (imm << 20));  // addi a0, a0, k
      put32(m, 0x1004, 0x00050513 | (imm << 20));  // addi a0, a0, k
      for (int rep = 0; rep < 3; ++rep) {
        m.set_pc(0x1000);
        EXPECT_EQ(m.run(100), StopReason::Breakpoint) << bk_name(bk);
        want += 2 * imm;
        ASSERT_EQ(m.get_x(10), want) << bk_name(bk) << " k=" << k;
      }
    }
    const auto s = m.jit_stats();
    EXPECT_GE(s.blocks_compiled, 20u) << bk_name(bk);
    EXPECT_GE(s.evict_write_code, 19u) << bk_name(bk);
  }
}

}  // namespace
