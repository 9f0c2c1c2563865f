#include "emu/jit/jit_ir.hpp"

#include "emu/machine.hpp"
#include "isa/op_program.hpp"

namespace rvdyn::emu::jit {

bool branch_takes(isa::Mnemonic m, std::uint64_t a, std::uint64_t b) {
  using isa::Mnemonic;
  switch (m) {
    case Mnemonic::beq: return a == b;
    case Mnemonic::bne: return a != b;
    case Mnemonic::blt:
      return static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b);
    case Mnemonic::bge:
      return static_cast<std::int64_t>(a) >= static_cast<std::int64_t>(b);
    case Mnemonic::bltu: return a < b;
    case Mnemonic::bgeu: return a >= b;
    default: return false;
  }
}

bool build_block_ir(const CycleModel& model, std::uint64_t start,
                    const std::vector<isa::Instruction>& insns, BlockIR* out,
                    bool* truncated) {
  *out = BlockIR{};
  out->start = start;
  *truncated = false;

  std::uint64_t pc = start;
  std::size_t covered = 0;
  for (std::size_t i = 0; i < insns.size(); ++i) {
    const isa::Instruction& insn = insns[i];
    const std::uint64_t next = pc + insn.length();
    if (insn.is_control_flow()) {
      // bcache blocks only ever end on control flow, so this is the block's
      // own terminal.
      const unsigned c_fall = insn_cycle_charge(model, insn, false);
      const unsigned c_taken = insn_cycle_charge(model, insn, true);
      const isa::OperandProgram p = isa::operand_program(insn);
      if (insn.is_cond_branch()) {
        out->term = TermKind::CondBranch;
        out->taken_target =
            pc + static_cast<std::uint64_t>(insn.branch_offset());
        out->fall_target = next;
        out->br_rs1 = p.src[0];
        out->br_rs2 = p.n_src > 1 ? p.src[1] : 0;
      } else if (insn.is_jal()) {
        out->term = TermKind::Jal;
        out->taken_target =
            pc + static_cast<std::uint64_t>(insn.operand(1).imm);
        out->link_value = next;
        out->link_rd = p.has_rd ? p.rd : 0;
      } else if (insn.is_jalr()) {
        out->term = TermKind::Jalr;
        out->jalr_rs1 = p.src[0];
        out->jalr_imm = insn.operand(2).imm;
        out->link_value = next;
        out->link_rd = p.has_rd ? p.rd : 0;
      } else {
        break;  // unknown control flow: leave it to the interpreter
      }
      out->term_insn = insn;
      out->term_pc = pc;
      out->charges.push_back({pc, c_fall});
      out->taken_extra = c_taken - c_fall;
      out->cost_fall += c_fall;
      out->cost_taken += c_taken;
      ++out->n_retired;
      out->end = next;
      covered = i + 1;
      break;
    }
    if (!jit_can_compile(insn)) break;  // side-exit just before it
    const unsigned c = insn_cycle_charge(model, insn, false);
    out->body.push_back(insn);
    out->body_pc.push_back(pc);
    out->charges.push_back({pc, c});
    out->cost_fall += c;
    out->cost_taken += c;
    ++out->n_retired;
    out->end = next;
    covered = i + 1;
    pc = next;
  }

  if (out->n_retired == 0) return false;
  if (out->term == TermKind::Interp) out->fall_target = out->end;
  *truncated = covered < insns.size();
  return true;
}

}  // namespace rvdyn::emu::jit
