// Parallel-parse determinism: the traversal over the shared work queue must
// produce byte-identical CFGs at every thread count — same function sets,
// block boundaries, instruction streams, edge lists, and stats.
//
// Build with -DRVDYN_SANITIZE=thread to run these under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "assembler/assembler.hpp"
#include "parse/cfg.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace rvdyn;
using parse::CodeObject;
using parse::EdgeType;

// Canonical textual form of a parsed CodeObject: every function (sorted by
// entry), its name, callees, stats, and every block's boundaries,
// instruction encodings, successor edges (in stored order), and pred list.
// Two parses are considered identical iff their dumps match byte-for-byte.
std::string canonical_dump(const CodeObject& co) {
  std::ostringstream os;
  os << std::hex;
  for (const auto& [entry, f] : co.functions()) {
    const auto& st = f->stats();
    os << "fn " << entry << ' ' << f->name() << " b=" << st.n_blocks
       << " i=" << st.n_insns << " c=" << st.n_calls
       << " tc=" << st.n_tail_calls << " r=" << st.n_returns
       << " jt=" << st.n_jump_tables << " u=" << st.n_unresolved << '\n';
    os << "  callees:";
    for (std::uint64_t c : f->callees()) os << ' ' << c;
    os << '\n';
    for (const auto& [start, b] : f->blocks()) {
      os << "  blk " << start << '-' << b->end() << '\n';
      for (const auto& pi : b->insns())
        os << "    " << pi.addr << ':' << pi.insn.length() << ':'
           << pi.insn.raw() << ':' << static_cast<int>(pi.insn.mnemonic())
           << '\n';
      os << "    succs:";
      for (const auto& e : b->succs())
        os << ' ' << static_cast<int>(e.type) << '@' << e.target;
      os << '\n';
      os << "    preds:";
      for (const auto* p : b->preds()) os << ' ' << p->start();
      os << '\n';
    }
  }
  return os.str();
}

std::string parse_dump(const symtab::Symtab& st, unsigned threads) {
  CodeObject co(st);
  parse::ParseOptions opts;
  opts.num_threads = threads;
  co.parse(opts);
  return canonical_dump(co);
}

// The headline determinism check from the issue: the 2000-function
// workload parsed at 1/2/4/8 threads, several reps each to shake out
// scheduling races, must match the single-thread parse exactly.
TEST(ParseParallel, DeterministicAcrossThreadCounts) {
  symtab::Symtab st = assembler::assemble(workloads::many_function_program(2000));
  const std::string ref = parse_dump(st, 1);
  ASSERT_FALSE(ref.empty());
  for (unsigned threads : {2u, 4u, 8u}) {
    for (int rep = 0; rep < 3; ++rep) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " rep=" << rep);
      EXPECT_EQ(parse_dump(st, threads), ref);
    }
  }
}

// A jump whose target only *becomes* a known function entry during the
// parse (a plain label discovered via someone else's call) must be
// reclassified as a tail call by the finalize fixup — identically at every
// thread count, no matter which worker reached the jump first.
TEST(ParseParallel, TailCallToDiscoveredEntryIsDeterministic) {
  const std::string src = R"(
    .globl _start
_start:
    call caller_a
    call caller_b
    li a7, 93
    ecall

    .globl caller_a
caller_a:
    call shared
    ret

    .globl caller_b
caller_b:
    li a0, 2
    j shared

shared:
    li a0, 7
    ret
)";
  symtab::Symtab st = assembler::assemble(src);
  const std::string ref = parse_dump(st, 1);

  CodeObject co(st);
  co.parse({});
  parse::Function* shared = nullptr;
  for (const auto& [a, f] : co.functions())
    if (f->name().rfind("func_", 0) == 0) shared = f.get();
  ASSERT_NE(shared, nullptr) << "shared body not promoted to a function";

  parse::Function* b = co.function_named("caller_b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->stats().n_tail_calls, 1u);
  EXPECT_TRUE(b->callees().count(shared->entry()));
  // caller_b's speculatively-parsed copy of shared's body must be pruned.
  EXPECT_EQ(b->block_at(shared->entry()), nullptr);
  bool found_tc = false;
  for (const auto& [a, blk] : b->blocks())
    for (const auto& e : blk->succs())
      if (e.type == EdgeType::TailCall && e.target == shared->entry())
        found_tc = true;
  EXPECT_TRUE(found_tc);

  for (unsigned threads : {2u, 4u, 8u})
    for (int rep = 0; rep < 3; ++rep) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " rep=" << rep);
      EXPECT_EQ(parse_dump(st, threads), ref);
    }
}

// Gap parsing (speculative prologue scan over unclaimed byte ranges) runs
// across the worker pool; the discovered functions must not depend on
// which worker scanned which gap.
TEST(ParseParallel, GapFunctionsDeterministic) {
  const std::string src = R"(
    .globl _start
_start:
    li a7, 93
    ecall
    ret

    addi sp, sp, -16
    sd ra, 8(sp)
    ld ra, 8(sp)
    addi sp, sp, 16
    ret
)";
  symtab::Symtab st = assembler::assemble(src);
  const std::string ref = parse_dump(st, 1);

  CodeObject co(st);
  co.parse({});
  bool found_gap_fn = false;
  for (const auto& [a, f] : co.functions())
    if (f->name().rfind("func_", 0) == 0) found_gap_fn = true;
  EXPECT_TRUE(found_gap_fn) << "gap scan missed the unlabeled prologue";

  for (unsigned threads : {2u, 4u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    EXPECT_EQ(parse_dump(st, threads), ref);
  }
}

// Parsing the same binary twice at the same thread count gives the same
// result.
TEST(ParseParallel, RepeatedParseIsStable) {
  symtab::Symtab st = assembler::assemble(workloads::many_function_program(200));
  EXPECT_EQ(parse_dump(st, 4), parse_dump(st, 4));
}

// Stripped binary: with every function symbol removed, only the ELF entry
// seeds the parse, so all other functions are registered by a worker in
// the middle of its traversal and picked up by whichever worker is free.
// Every worker count must still agree with the single-thread parse.
TEST(ParseParallel, StrippedBinaryDeterministicAcrossThreadCounts) {
  symtab::Symtab st = assembler::assemble(workloads::many_function_program(2000));
  auto& syms = st.symbols();
  syms.erase(std::remove_if(syms.begin(), syms.end(),
                            [](const symtab::Symbol& s) { return s.is_function(); }),
             syms.end());
  ASSERT_TRUE(st.function_symbols().empty());

  CodeObject co(st);
  co.parse({});
  EXPECT_EQ(co.functions().size(), 2001u);  // _start + f0..f1999

  const std::string ref = parse_dump(st, 1);
  for (unsigned threads : {2u, 4u, 8u}) {
    for (int rep = 0; rep < 3; ++rep) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " rep=" << rep);
      EXPECT_EQ(parse_dump(st, threads), ref);
    }
  }
}

}  // namespace
