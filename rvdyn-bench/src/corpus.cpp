#include "corpus.hpp"

#include <cmath>
#include <sstream>

#include "assembler/assembler.hpp"
#include "rng.hpp"

namespace rvdyn_bench {

namespace {

// Registers: a0 carries the accumulator through every function, a1 the call
// depth; s0 keeps the depth across calls in functions that have a frame.
// t0-t6 are scratch and never live across a call.
class Generator {
 public:
  Generator(std::uint64_t seed, int n_funcs) : rng_(seed), n_(n_funcs) {}

  std::string run() {
    out_ << "    .text\n    .globl _start\n_start:\n"
         << "    li a0, " << rng_.range(1, 1 << 20) << "\n"
         << "    li a1, 1\n"
         << "    call f" << (n_ - 1) << "\n"
         << "    andi a0, a0, 255\n    li a7, 93\n    ecall\n";
    const int giants = n_ / 1024 + 1;
    std::vector<int> shapes(n_, 0);
    for (int i = 0; i < n_; ++i) shapes[i] = rng_.range(1, 3);
    // Giant sizes are stratified over [32, 96] so the corpus' total work
    // barely moves between seeds while which functions are giants does.
    for (int g = 0; g < giants; ++g) {
      const double u = (g + rng_.unit()) / giants;
      shapes[rng_.range(0, n_ - 1)] = 32 + static_cast<int>(64 * u);
    }
    for (int i = 0; i < n_; ++i) function(i, shapes[i]);
    if (!tables_.str().empty()) out_ << "    .rodata\n    .align 3\n" << tables_.str();
    return out_.str();
  }

 private:
  std::string label() {
    std::string l = "L";
    l += std::to_string(next_label_++);
    return l;
  }

  void alu() {
    switch (rng_.range(0, 5)) {
      case 0: out_ << "    addi a0, a0, " << rng_.range(-512, 511) << "\n"; break;
      case 1: out_ << "    xori a0, a0, " << rng_.range(0, 2047) << "\n"; break;
      case 2:
        out_ << "    slli t0, a0, " << rng_.range(1, 13) << "\n"
             << "    xor a0, a0, t0\n";
        break;
      case 3:
        out_ << "    srli t1, a0, " << rng_.range(1, 17) << "\n"
             << "    add a0, a0, t1\n";
        break;
      case 4:
        out_ << "    li t2, " << rng_.range(3, 999) << "\n"
             << "    mul a0, a0, t2\n";
        break;
      default:
        out_ << "    andi t3, a0, " << rng_.range(1, 255) << "\n"
             << "    sub a0, a0, t3\n";
        break;
    }
  }

  void straight() {
    for (int k = rng_.range(3, 12); k > 0; --k) alu();
  }

  void loop_nest() {
    const int depth = rng_.range(1, 2);
    std::vector<std::string> heads;
    for (int d = 0; d < depth; ++d) {
      const char* ctr = d == 0 ? "t4" : "t5";
      out_ << "    li " << ctr << ", " << rng_.range(2, 5) << "\n";
      heads.push_back(label());
      out_ << heads.back() << ":\n";
    }
    for (int k = rng_.range(1, 4); k > 0; --k) alu();
    for (int d = depth - 1; d >= 0; --d) {
      const char* ctr = d == 0 ? "t4" : "t5";
      out_ << "    addi " << ctr << ", " << ctr << ", -1\n"
           << "    bnez " << ctr << ", " << heads[d] << "\n";
    }
  }

  void if_chain() {
    const int arms = rng_.range(2, 5);
    const std::string join = label();
    out_ << "    andi t0, a0, 7\n";
    for (int a = 0; a < arms; ++a) {
      const std::string next = label();
      out_ << "    li t1, " << a << "\n    bne t0, t1, " << next << "\n";
      for (int k = rng_.range(1, 3); k > 0; --k) alu();
      out_ << "    j " << join << "\n" << next << ":\n";
    }
    alu();
    out_ << join << ":\n";
  }

  // Jump-table switch in dispatch_program's idiom: the bounds check tests
  // the selector register as it enters the check's block (here a join of
  // two paths, as in compiled code), then scale, load the target, jump.
  void switch_table() {
    const int cases = rng_.range(3, 8);
    std::string table = "jt";
    table += std::to_string(next_label_++);
    const std::string sel = label(), dflt = label(), join = label();
    out_ << "    andi t0, a0, 7\n"
         << "    andi t6, a0, 8\n"
         << "    beqz t6, " << sel << "\n"
         << "    xori t0, t0, 1\n"
         << sel << ":\n"
         << "    li t1, " << cases << "\n"
         << "    bgeu t0, t1, " << dflt << "\n"
         << "    slli t2, t0, 3\n"
         << "    la t3, " << table << "\n"
         << "    add t2, t2, t3\n"
         << "    ld t2, 0(t2)\n"
         << "    jr t2\n";
    tables_ << table << ":\n";
    for (int c = 0; c < cases; ++c) {
      const std::string l = label();
      tables_ << "    .dword " << l << "\n";
      out_ << l << ":\n";
      alu();
      out_ << "    j " << join << "\n";
    }
    out_ << dflt << ":\n";
    alu();
    out_ << join << ":\n";
  }

  void call_lower(int i, bool spine) {
    const std::string skip = label();
    out_ << "    beqz s0, " << skip << "\n"
         << (spine ? "    mv a1, s0\n" : "    li a1, 0\n")
         << "    call f" << (spine ? i - 1 : rng_.range(0, i - 1)) << "\n"
         << skip << ":\n";
  }

  // Early exit to the function's epilogue, which can be far away in a
  // giant: an inverted branch over a jump, as compilers emit it.
  void guard(const std::string& exit) {
    const std::string stay = label();
    out_ << "    andi t6, a0, " << (1 << rng_.range(3, 6)) - 1 << "\n"
         << "    bnez t6, " << stay << "\n"
         << "    j " << exit << "\n"
         << stay << ":\n";
  }

  void function(int i, int n_shapes) {
    const bool has_calls = i > 0;
    const bool tail = has_calls && rng_.chance(0.15);
    std::string fname = "f";
    fname += std::to_string(i);
    const std::string exit = label();
    out_ << "    .globl " << fname << "\n" << fname << ":\n";
    if (has_calls)
      out_ << "    addi sp, sp, -16\n    sd ra, 8(sp)\n    sd s0, 0(sp)\n"
           << "    mv s0, a1\n";
    if (has_calls) call_lower(i, /*spine=*/true);
    for (int s = 0; s < n_shapes; ++s) {
      switch (rng_.range(0, 9)) {
        case 0: case 1: case 2: straight(); break;
        case 3: case 4: loop_nest(); break;
        case 5: case 6: if_chain(); break;
        case 7: switch_table(); break;
        case 8:
          if (has_calls) call_lower(i, /*spine=*/false);
          else straight();
          break;
        default: guard(exit); break;
      }
    }
    out_ << exit << ":\n";
    if (!has_calls) {
      out_ << "    ret\n";
      return;
    }
    const char* epilogue = "    ld s0, 0(sp)\n    ld ra, 8(sp)\n    addi sp, sp, 16\n";
    if (tail) {
      const std::string plain = label();
      out_ << "    beqz s0, " << plain << "\n" << epilogue
           << "    li a1, 0\n    tail f" << rng_.range(0, i - 1) << "\n"
           << plain << ":\n";
    }
    out_ << epilogue << "    ret\n";
  }

  Rng rng_;
  int n_;
  int next_label_ = 0;
  std::ostringstream out_;
  std::ostringstream tables_;
};

}  // namespace

std::string generate_program(std::uint64_t seed, int n_funcs) {
  return Generator(seed, n_funcs < 1 ? 1 : n_funcs).run();
}

std::vector<std::uint8_t> assemble_program(const std::string& source) {
  rvdyn::assembler::Options o;
  o.text_base = 0x10000;
  o.rodata_base = 0x1000000;
  o.data_base = 0x1100000;
  o.bss_base = 0x1200000;
  return rvdyn::assembler::assemble_elf(source, o);
}

std::uint64_t patch_text_base(std::uint64_t text_end) {
  return ((text_end + 0xffff) & ~std::uint64_t{0xffff}) + 0x10000;
}

std::vector<int> corpus_sizes(int count, int lo, int hi) {
  std::vector<int> sizes;
  for (int k = 0; k < count; ++k) {
    const double q = count == 1 ? 0.5 : static_cast<double>(k) / (count - 1);
    sizes.push_back(static_cast<int>(
        std::lround(lo * std::pow(static_cast<double>(hi) / lo, q))));
  }
  return sizes;
}

}  // namespace rvdyn_bench
