// Decoded-code cache semantics: the direct-mapped predecode cache and the
// basic-block cache must be invisible except for speed. Covers the
// page-tail fetch fix (a compressed instruction in the last two mapped
// bytes must execute without touching the next page), write_code and
// guest fence.i invalidation, and run()-vs-step() equivalence.
#include <gtest/gtest.h>

#include <vector>

#include "assembler/assembler.hpp"
#include "emu/machine.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace rvdyn;
using emu::Machine;
using emu::StopReason;

void put32(Machine& m, std::uint64_t addr, std::uint32_t word) {
  std::uint8_t b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(word >> (8 * i));
  m.write_code(addr, b, 4);
}

void put16(Machine& m, std::uint64_t addr, std::uint16_t half) {
  std::uint8_t b[2] = {static_cast<std::uint8_t>(half),
                       static_cast<std::uint8_t>(half >> 8)};
  m.write_code(addr, b, 2);
}

// A compressed instruction occupying the last two mapped bytes of the
// address space must fetch with a 2-byte read; the old unconditional
// 4-byte fetch either faulted or silently mapped the next page.
TEST(EmuCache, CompressedInsnAtPageTail) {
  Machine m;
  const std::uint64_t tail = 0x1ffe;  // last halfword of page [0x1000,0x2000)
  put16(m, tail, 0x0505);             // c.addi a0, 1
  ASSERT_FALSE(m.memory().is_mapped(0x2000));

  m.set_pc(tail);
  m.set_x(10, 41);
  EXPECT_EQ(m.step(), StopReason::Running);
  EXPECT_EQ(m.get_x(10), 42u);
  EXPECT_EQ(m.pc(), 0x2000u);
  // Executing past the end now faults cleanly...
  EXPECT_EQ(m.step(), StopReason::BadFetch);
  // ...and the fetch path never allocated the next page as a side effect.
  EXPECT_FALSE(m.memory().is_mapped(0x2000));

  // Cached path: re-executing the page-tail instruction hits the icache.
  m.set_pc(tail);
  EXPECT_EQ(m.step(), StopReason::Running);
  EXPECT_EQ(m.get_x(10), 43u);
  EXPECT_FALSE(m.memory().is_mapped(0x2000));
}

// A 32-bit encoding whose upper parcel is unmapped is a clean illegal
// instruction at a mapped pc, without allocating the next page.
TEST(EmuCache, TruncatedWideInsnAtPageTail) {
  Machine m;
  const std::uint64_t tail = 0x1ffe;
  put16(m, tail, 0x0513);  // low parcel of addi a0,... ((bits&3)==3 → 32-bit)
  m.set_pc(tail);
  EXPECT_EQ(m.step(), StopReason::IllegalInsn);
  EXPECT_FALSE(m.memory().is_mapped(0x2000));

  // Mapping the next page afterwards completes the encoding: the truncated
  // failure must not have been cached.
  put16(m, 0x2000, 0x0015);  // addi a0, a0, 0x150... upper parcel 0x00150513
  // Rewrite both halves so the full word is addi a0, a0, 1.
  put32(m, tail, 0x00150513);
  m.set_pc(tail);
  m.set_x(10, 7);
  EXPECT_EQ(m.step(), StopReason::Running);
  EXPECT_EQ(m.get_x(10), 8u);
}

// write_code on bytes already executed through run() must evict both the
// predecode cache and the block cache.
TEST(EmuCache, WriteCodeEvictsCachedBlocks) {
  Machine m;
  put32(m, 0x1000, 0x00150513);  // addi a0, a0, 1
  put32(m, 0x1004, 0x00150513);  // addi a0, a0, 1
  put32(m, 0x1008, 0x00100073);  // ebreak
  m.set_pc(0x1000);
  m.set_x(10, 0);
  EXPECT_EQ(m.run(), StopReason::Breakpoint);
  EXPECT_EQ(m.get_x(10), 2u);
  EXPECT_EQ(m.pc(), 0x1008u);

  // Patch the second instruction; rerunning must see the new bytes.
  put32(m, 0x1004, 0x00250513);  // addi a0, a0, 2
  m.set_pc(0x1000);
  m.set_x(10, 0);
  EXPECT_EQ(m.run(), StopReason::Breakpoint);
  EXPECT_EQ(m.get_x(10), 3u);

  // Same check through the single-step (icache-only) path.
  put32(m, 0x1004, 0x00350513);  // addi a0, a0, 3
  m.set_pc(0x1000);
  m.set_x(10, 0);
  EXPECT_EQ(m.step(), StopReason::Running);
  EXPECT_EQ(m.step(), StopReason::Running);
  EXPECT_EQ(m.get_x(10), 4u);
}

// Guest self-modifying code: a store over executed instructions followed by
// fence.i must flush both caches; without fence.i the stale decode is (by
// design) still served.
TEST(EmuCache, FenceIFlushesAfterSelfModify) {
  for (const bool with_fence : {false, true}) {
    Machine m;
    // probe: addi a0, a0, 1; ret
    put32(m, 0x1040, 0x00150513);
    put32(m, 0x1044, 0x00008067);
    // main: call probe; build 0x00250513 (addi a0,a0,2) in t1; store it over
    // probe's first insn; [fence.i]; call probe; ebreak
    put32(m, 0x1000, 0x040000ef);  // jal ra, +0x40 -> 0x1040
    put32(m, 0x1004, 0x00250337);  // lui t1, 0x250
    put32(m, 0x1008, 0x51330313);  // addi t1, t1, 0x513
    put32(m, 0x100c, 0x000012b7);  // lui t0, 0x1
    put32(m, 0x1010, 0x04028293);  // addi t0, t0, 0x40 -> t0 = 0x1040
    put32(m, 0x1014, 0x0062a023);  // sw t1, 0(t0)
    put32(m, 0x1018, with_fence ? 0x0000100f    // fence.i
                                : 0x00000013);  // nop
    put32(m, 0x101c, 0x024000ef);  // jal ra, +0x24 -> 0x1040
    put32(m, 0x1020, 0x00100073);  // ebreak
    m.set_pc(0x1000);
    m.set_x(10, 0);
    EXPECT_EQ(m.run(), StopReason::Breakpoint);
    EXPECT_EQ(m.pc(), 0x1020u);
    // With fence.i the second call sees the patched +2; without it the
    // cached decode of the original +1 is reused (plain guest stores do not
    // invalidate — matching real hardware and the previous implementation).
    EXPECT_EQ(m.get_x(10), with_fence ? 3u : 2u) << "fence=" << with_fence;
  }
}

// Block-cached execution must be observationally identical to pure
// single-stepping: same architectural state, counters, and stop reason.
TEST(EmuCache, RunMatchesStepExactly) {
  const auto bin = assembler::assemble(workloads::fib_program(15));
  Machine run_m, step_m;
  run_m.load(bin);
  step_m.load(bin);

  EXPECT_EQ(run_m.run(), StopReason::Exited);
  StopReason r = StopReason::Running;
  while (r == StopReason::Running) r = step_m.step();
  EXPECT_EQ(r, StopReason::Exited);

  EXPECT_EQ(run_m.instret(), step_m.instret());
  EXPECT_EQ(run_m.cycles(), step_m.cycles());
  EXPECT_EQ(run_m.pc(), step_m.pc());
  EXPECT_EQ(run_m.exit_code(), step_m.exit_code());
  for (unsigned i = 0; i < 32; ++i) {
    EXPECT_EQ(run_m.get_x(i), step_m.get_x(i)) << "x" << i;
    EXPECT_EQ(run_m.get_f(i), step_m.get_f(i)) << "f" << i;
  }

  // Budgeted run() must account instructions exactly, even when the budget
  // expires mid-block.
  Machine budget_m;
  budget_m.load(bin);
  std::uint64_t total = 0;
  StopReason br = StopReason::Running;
  while (br == StopReason::Running) {
    const std::uint64_t before = budget_m.instret();
    br = budget_m.run(37);  // deliberately not a multiple of any block size
    const std::uint64_t done = budget_m.instret() - before;
    EXPECT_LE(done, 37u);
    total += done;
  }
  EXPECT_EQ(br, StopReason::Exited);
  EXPECT_EQ(total, run_m.instret());
}

// Evictions must be charged to their actual cause: debugger patching
// (write_code), guest self-modification (fence.i), and capacity pressure
// are distinct counters, so none of them silently inflates another.
TEST(EmuCache, EvictionAccounting) {
  // (a) write_code over an executed block: a precise write_code eviction,
  // not a fence.i or capacity one.
  {
    Machine m;
    put32(m, 0x1000, 0x00150513);  // addi a0, a0, 1
    put32(m, 0x1004, 0x00100073);  // ebreak
    m.set_pc(0x1000);
    EXPECT_EQ(m.run(), StopReason::Breakpoint);
    EXPECT_EQ(m.cache_stats().evict_write_code, 0u);
    put32(m, 0x1000, 0x00250513);  // patch the cached block
    EXPECT_GE(m.cache_stats().evict_write_code, 1u);
    EXPECT_EQ(m.cache_stats().evict_fencei, 0u);
    EXPECT_EQ(m.cache_stats().evict_capacity, 0u);
    EXPECT_EQ(m.cache_stats().fencei_flushes, 0u);
  }

  // (b) guest fence.i inside a cached block: the deferred full flush is
  // charged to fence.i, not to write_code.
  {
    Machine m;
    put32(m, 0x1040, 0x00150513);  // probe: addi a0, a0, 1
    put32(m, 0x1044, 0x00008067);  //        ret
    put32(m, 0x1000, 0x040000ef);  // jal ra, probe
    put32(m, 0x1004, 0x00250337);  // lui t1, 0x250
    put32(m, 0x1008, 0x51330313);  // addi t1, t1, 0x513
    put32(m, 0x100c, 0x000012b7);  // lui t0, 0x1
    put32(m, 0x1010, 0x04028293);  // addi t0, t0, 0x40
    put32(m, 0x1014, 0x0062a023);  // sw t1, 0(t0)
    put32(m, 0x1018, 0x0000100f);  // fence.i
    put32(m, 0x101c, 0x024000ef);  // jal ra, probe
    put32(m, 0x1020, 0x00100073);  // ebreak
    m.set_pc(0x1000);
    m.set_x(10, 0);
    EXPECT_EQ(m.run(), StopReason::Breakpoint);
    EXPECT_EQ(m.get_x(10), 3u);  // the patched +2 was observed
    EXPECT_EQ(m.cache_stats().fencei_flushes, 1u);
    EXPECT_GE(m.cache_stats().evict_fencei, 1u);
    // The pre-run put32 calls hit an empty cache; the flush must not have
    // been misattributed to them.
    EXPECT_EQ(m.cache_stats().evict_write_code, 0u);
    EXPECT_EQ(m.cache_stats().evict_capacity, 0u);
  }

  // (c) capacity pressure: more distinct single-jal blocks than the cache
  // bound forces a capacity clear, charged to neither patching cause.
  {
    Machine m;
    constexpr std::size_t kBlocks = 17000;  // > kMaxBlocks (16384)
    std::vector<std::uint8_t> code;
    code.reserve(kBlocks * 4 + 4);
    for (std::size_t i = 0; i < kBlocks; ++i) {
      const std::uint32_t jal = 0x0040006f;  // jal x0, +4
      for (int b = 0; b < 4; ++b)
        code.push_back(static_cast<std::uint8_t>(jal >> (8 * b)));
    }
    const std::uint32_t ebreak = 0x00100073;
    for (int b = 0; b < 4; ++b)
      code.push_back(static_cast<std::uint8_t>(ebreak >> (8 * b)));
    m.write_code(0x10000, code.data(), code.size());
    m.set_pc(0x10000);
    EXPECT_EQ(m.run(), StopReason::Breakpoint);
    EXPECT_GE(m.cache_stats().evict_capacity, 16384u);
    EXPECT_EQ(m.cache_stats().evict_write_code, 0u);
    EXPECT_EQ(m.cache_stats().evict_fencei, 0u);
  }
}

// A watchpoint must fire mid-block with pc positioned exactly as in
// single-step mode (after the accessing store, before the next insn).
TEST(EmuCache, WatchpointFiresInsideCachedBlock) {
  for (const bool use_run : {false, true}) {
    Machine m;
    put32(m, 0x1000, 0x00150513);  // addi a0, a0, 1
    put32(m, 0x1004, 0x000032b7);  // lui t0, 0x3
    put32(m, 0x1008, 0x00a2b023);  // sd a0, 0(t0)     <- watched
    put32(m, 0x100c, 0x00150513);  // addi a0, a0, 1   (must NOT retire)
    put32(m, 0x1010, 0x00100073);  // ebreak
    m.set_watchpoint(0x3000, 8, false, true);
    m.set_pc(0x1000);
    m.set_x(10, 0);
    StopReason r = StopReason::Running;
    if (use_run) {
      r = m.run();
    } else {
      while (r == StopReason::Running && m.pc() != 0x1010) r = m.step();
    }
    EXPECT_EQ(r, StopReason::Watchpoint) << "use_run=" << use_run;
    EXPECT_EQ(m.pc(), 0x100cu);
    EXPECT_EQ(m.get_x(10), 1u);
    EXPECT_EQ(m.watch_hit().addr, 0x3000u);
    EXPECT_TRUE(m.watch_hit().was_write);
  }
}

}  // namespace
