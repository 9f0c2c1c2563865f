// Shared JIT front-end: lower a bcache basic block to a backend-neutral
// BlockIR — the compilable prefix of value instructions plus a classified
// terminal, with cycle costs precomputed against the CycleModel so compiled
// code does whole-block accounting with two adds.
#pragma once

#include <cstdint>
#include <vector>

#include "emu/jit/jit.hpp"  // PcCharge lives with the Tier interface
#include "isa/instruction.hpp"

namespace rvdyn::emu {
struct CycleModel;
}

namespace rvdyn::emu::jit {

enum class TermKind : std::uint8_t {
  Interp,      ///< side-exit to the interpreter at fall_target
  CondBranch,  ///< beq/bne/blt/bge/bltu/bgeu
  Jal,
  Jalr,
};

struct BlockIR {
  std::uint64_t start = 0;
  std::uint64_t end = 0;  ///< one past the last compiled guest byte
  std::vector<isa::Instruction> body;  ///< straight-line value insns
  std::vector<std::uint64_t> body_pc;  ///< guest pc of each body insn

  TermKind term = TermKind::Interp;
  isa::Instruction term_insn;  ///< valid unless term == Interp
  std::uint64_t term_pc = 0;

  std::uint64_t taken_target = 0;  ///< CondBranch taken / Jal target
  std::uint64_t fall_target = 0;   ///< CondBranch fallthrough; Interp exit pc
  std::uint64_t link_value = 0;    ///< Jal/Jalr: pc of the next insn
  unsigned link_rd = 0;            ///< Jal/Jalr rd (0 = plain jump)
  unsigned jalr_rs1 = 0;
  std::int64_t jalr_imm = 0;
  unsigned br_rs1 = 0, br_rs2 = 0;  ///< CondBranch comparands

  // Accounting, precomputed against the CycleModel at compile time.
  std::uint32_t n_retired = 0;  ///< insns retired per pass (body + terminal)
  std::uint64_t cost_fall = 0;  ///< cycles: fallthrough / not-taken path
  std::uint64_t cost_taken = 0; ///< cycles: taken path (CondBranch/Jal/Jalr)
  std::vector<PcCharge> charges;  ///< per-insn charges, terminal not-taken
  std::uint32_t taken_extra = 0;  ///< final insn's extra cycles when taken
};

/// True when `insn` may appear in a block body: a valid non-control-flow
/// instruction that cannot trap or read the virtual clock mid-block.
inline bool jit_can_compile(const isa::Instruction& insn) {
  return insn.valid() && !insn.is_control_flow() &&
         !(insn.flags() &
           (isa::F_ECALL | isa::F_EBREAK | isa::F_FENCE | isa::F_CSR));
}

/// Build the IR for the longest compilable prefix of `insns` (a bcache
/// block starting at `start`). Returns false when even the first
/// instruction is uncompilable; `*truncated` is set when the prefix ends
/// before the bcache block's own terminal.
bool build_block_ir(const CycleModel& model, std::uint64_t start,
                    const std::vector<isa::Instruction>& insns, BlockIR* out,
                    bool* truncated);

/// Evaluate a conditional-branch terminal against two register values.
bool branch_takes(isa::Mnemonic m, std::uint64_t a, std::uint64_t b);

}  // namespace rvdyn::emu::jit
