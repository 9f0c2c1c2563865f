// Assembler-substrate feature tests: directives, pseudo-instruction
// expansions (verified by executing them), alignment, string escapes,
// sections and error reporting.
#include <gtest/gtest.h>

#include "assembler/assembler.hpp"
#include "emu/machine.hpp"
#include "isa/decoder.hpp"

namespace {

using namespace rvdyn;
using emu::Machine;
using emu::StopReason;

int run_exit(const std::string& src) {
  Machine m;
  m.load(assembler::assemble(src));
  EXPECT_EQ(static_cast<int>(m.run(1'000'000)),
            static_cast<int>(StopReason::Exited));
  return m.exit_code();
}

std::string wrap(const std::string& body) {
  return ".globl _start\n_start:\n" + body + "  li a7, 93\n  ecall\n";
}

// ---- pseudo-instruction semantics, executed ----

TEST(AsmPseudo, NotNegSeqz) {
  EXPECT_EQ(run_exit(wrap(R"(
    li t0, 0x0f
    not t1, t0          # ~0x0f
    andi t1, t1, 0xf0   # 0xf0
    li t2, 5
    neg t3, t2          # -5
    add t3, t3, t2      # 0
    seqz t3, t3         # 1
    add a0, t1, t3      # 0xf1 = 241
    andi a0, a0, 255
)")), 241);
}

TEST(AsmPseudo, SnezSltzSgtz) {
  EXPECT_EQ(run_exit(wrap(R"(
    li t0, -7
    sltz t1, t0         # 1
    sgtz t2, t0         # 0
    li t3, 9
    snez t4, t3         # 1
    sgtz t5, t3         # 1
    add a0, t1, t2
    add a0, a0, t4
    add a0, a0, t5      # 3
)")), 3);
}

TEST(AsmPseudo, SextWAndNegw) {
  EXPECT_EQ(run_exit(wrap(R"(
    li t0, 0xffffffff
    sext.w t1, t0       # -1
    li t2, 1
    add t1, t1, t2      # 0
    seqz a0, t1         # 1
    li t3, 3
    negw t4, t3         # -3 (sext32)
    add t4, t4, t3      # 0
    seqz t4, t4
    add a0, a0, t4      # 2
)")), 2);
}

TEST(AsmPseudo, SwappedOperandBranches) {
  // bgt/ble/bgtu/bleu are operand-swapped blt/bge forms.
  EXPECT_EQ(run_exit(wrap(R"(
    li t0, 5
    li t1, 3
    li a0, 0
    bgt t0, t1, g1      # taken: 5 > 3
    j done1
g1: addi a0, a0, 1
done1:
    ble t1, t0, g2      # taken: 3 <= 5
    j done2
g2: addi a0, a0, 1
done2:
    li t2, -1           # unsigned max
    bgtu t2, t0, g3     # taken
    j done3
g3: addi a0, a0, 1
done3:
    bleu t0, t2, g4     # taken
    j done4
g4: addi a0, a0, 1
done4:
)")), 4);
}

TEST(AsmPseudo, JalrForms) {
  EXPECT_EQ(run_exit(wrap(R"(
    la t0, helper
    jalr t0             # one-operand form: link in ra
    la t1, helper
    jalr ra, 0(t1)      # offset form
    j after
helper:
    addi a0, a0, 21
    ret
after:
)")), 42);
}

TEST(AsmPseudo, CsrPseudos) {
  EXPECT_EQ(run_exit(wrap(R"(
    rdcycle t0
    rdinstret t1
    csrr t2, cycle
    sltu a0, x0, t2     # cycle counter nonzero
)")), 1);
}

TEST(AsmPseudo, FpPseudos) {
  EXPECT_EQ(run_exit(wrap(R"(
    li t0, -2
    fcvt.d.l fa0, t0    # -2.0
    fabs.d fa1, fa0     # 2.0
    fneg.d fa2, fa1     # -2.0
    fmv.d fa3, fa2
    fadd.d fa4, fa1, fa3  # 0.0
    fcvt.l.d t1, fa4
    seqz a0, t1
)")), 1);
}

// ---- directives ----

TEST(AsmDirectives, AlignAndBalign) {
  const auto st = assembler::assemble(R"(
    .data
a:  .byte 1
    .align 3
b:  .dword 2
    .balign 16
c:  .dword 3
)");
  const auto* a = st.find_symbol("a");
  const auto* b = st.find_symbol("b");
  const auto* c = st.find_symbol("c");
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(b->value % 8, 0u);
  EXPECT_EQ(c->value % 16, 0u);
  EXPECT_EQ(st.read_addr(b->value, 8), std::optional<std::uint64_t>(2));
  EXPECT_EQ(st.read_addr(c->value, 8), std::optional<std::uint64_t>(3));
}

TEST(AsmDirectives, StringEscapes) {
  const auto st = assembler::assemble(R"(
    .rodata
s:  .asciz "a\tb\nc\"d\\e"
    .text
    .globl _start
_start:
    li a7, 93
    ecall
)");
  const auto* s = st.find_symbol("s");
  ASSERT_NE(s, nullptr);
  const char expected[] = "a\tb\nc\"d\\e";
  for (std::size_t i = 0; i < sizeof(expected); ++i)
    EXPECT_EQ(st.read_addr(s->value + i, 1),
              std::optional<std::uint64_t>(
                  static_cast<std::uint8_t>(expected[i])))
        << i;
}

TEST(AsmDirectives, DataCellWidths) {
  const auto st = assembler::assemble(R"(
    .data
v:  .byte 0x11, 0x22
    .half 0x3344
    .word 0x55667788
    .quad 0x99aabbccddeeff00
)");
  const auto* v = st.find_symbol("v");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(st.read_addr(v->value, 1), std::optional<std::uint64_t>(0x11));
  EXPECT_EQ(st.read_addr(v->value + 1, 1), std::optional<std::uint64_t>(0x22));
  EXPECT_EQ(st.read_addr(v->value + 2, 2),
            std::optional<std::uint64_t>(0x3344));
  EXPECT_EQ(st.read_addr(v->value + 4, 4),
            std::optional<std::uint64_t>(0x55667788));
  EXPECT_EQ(st.read_addr(v->value + 8, 8),
            std::optional<std::uint64_t>(0x99aabbccddeeff00ULL));
}

TEST(AsmDirectives, WordSizedLabelCell) {
  const auto st = assembler::assemble(R"(
    .rodata
ptr32: .word target
    .text
    .globl _start
_start:
target:
    li a7, 93
    ecall
)");
  const auto* ptr = st.find_symbol("ptr32");
  const auto* tgt = st.find_symbol("target");
  ASSERT_TRUE(ptr && tgt);
  EXPECT_EQ(st.read_addr(ptr->value, 4),
            std::optional<std::uint64_t>(tgt->value & 0xffffffff));
}

TEST(AsmDirectives, SectionSwitchingPreservesCursor) {
  // Interleaved section switches must append, not restart.
  const auto st = assembler::assemble(R"(
    .data
d1: .dword 1
    .text
    .globl _start
_start:
    li a7, 93
    ecall
    .data
d2: .dword 2
)");
  const auto* d1 = st.find_symbol("d1");
  const auto* d2 = st.find_symbol("d2");
  ASSERT_TRUE(d1 && d2);
  EXPECT_EQ(d2->value, d1->value + 8);
}

TEST(AsmDirectives, LabelArithmetic) {
  EXPECT_EQ(run_exit(R"(
    .rodata
    .align 3
arr: .dword 10, 20, 30
    .text
    .globl _start
_start:
    la t0, arr+16      # &arr[2]
    ld a0, 0(t0)       # 30
    li a7, 93
    ecall
)"), 30);
}

// ---- errors ----

TEST(AsmErrors, Reported) {
  EXPECT_THROW(assembler::assemble("  addi a0\n"), Error);       // operands
  EXPECT_THROW(assembler::assemble("  addi a0, a1, 99999\n"), Error);
  EXPECT_THROW(assembler::assemble("x: .dword 1\nx: .dword 2\n"), Error);
  EXPECT_THROW(assembler::assemble(".data\n  addi a0, a0, 1\n"), Error);
  EXPECT_THROW(assembler::assemble("  ld a0, nope\n"), Error);
  EXPECT_THROW(assembler::assemble("  csrr a0, notacsr\n"), Error);
}

TEST(AsmErrors, BranchOutOfRangeDiagnosed) {
  // A conditional branch across >4KiB of code cannot encode.
  std::string src = ".globl _start\n_start:\n  beqz a0, far\n";
  for (int i = 0; i < 2000; ++i) src += "  .option norvc\n  nop\n";
  src += "far:\n  li a7, 93\n  ecall\n";
  EXPECT_THROW(assembler::assemble(src), Error);
}

// A .text past 64 KiB reaches the default .rodata base (0x20000): the
// assembler must refuse to lay the two on top of each other, and the same
// source must assemble and run once the bases are moved apart. Only
// non-empty sections count: the same .text alone assembles at the defaults.
TEST(AsmErrors, OverlappingSectionsRejected) {
  std::string body = ".globl _start\n_start:\n  .option norvc\n";
  for (int i = 0; i < 17000; ++i) body += "  nop\n";  // 68000 bytes
  const std::string src = ".rodata\nvalue:\n  .dword 42\n.text\n" + body +
                          "  la t0, value\n  ld a0, 0(t0)\n"
                          "  li a7, 93\n  ecall\n";

  try {
    assembler::assemble(src);
    FAIL() << "overlapping .text/.rodata assembled silently";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(".text"), std::string::npos) << msg;
    EXPECT_NE(msg.find(".rodata"), std::string::npos) << msg;
  }

  assembler::Options opts;
  opts.rodata_base = 0x40000;
  opts.data_base = 0x50000;
  opts.bss_base = 0x60000;
  Machine m;
  m.load(assembler::assemble(src, opts));
  EXPECT_EQ(static_cast<int>(m.run(1'000'000)),
            static_cast<int>(StopReason::Exited));
  EXPECT_EQ(m.exit_code(), 42);

  EXPECT_EQ(run_exit(body + "  li a0, 3\n  li a7, 93\n  ecall\n"), 3);
}

}  // namespace
