// C-extension (compressed, 16-bit) instruction decoding.
//
// Each compressed encoding expands to its canonical base-ISA instruction
// (c.add -> add, c.j -> jal x0, ...) so downstream components see one
// uniform instruction set; Instruction::compressed()/length() preserve the
// true encoding size, which is what the patcher cares about (§3.1.2).
#include "common/bits.hpp"
#include "isa/decoder.hpp"
#include "obs/metrics.hpp"

namespace rvdyn::isa {

namespace {

Reg cr(std::uint64_t threebits) {  // compressed register: x8..x15 / f8..f15
  return x(static_cast<std::uint8_t>(8 + threebits));
}
Reg crf(std::uint64_t threebits) {
  return f(static_cast<std::uint8_t>(8 + threebits));
}

void start(Instruction* out, Mnemonic mn, std::uint16_t half) {
  out->set(mn, half, 2);
}

void emit_load(Instruction* out, std::uint16_t half, Mnemonic mn, Reg rd,
               Reg base, std::int64_t off, std::uint8_t size) {
  start(out, mn, half);
  out->add_operand(Instruction::reg_op(rd, Operand::kWrite));
  out->add_operand(Instruction::mem_op(base, off, size, Operand::kRead));
}

void emit_store(Instruction* out, std::uint16_t half, Mnemonic mn, Reg rs,
                Reg base, std::int64_t off, std::uint8_t size) {
  start(out, mn, half);
  out->add_operand(Instruction::reg_op(rs, Operand::kRead));
  out->add_operand(Instruction::mem_op(base, off, size, Operand::kWrite));
}

void emit_rri(Instruction* out, std::uint16_t half, Mnemonic mn, Reg rd,
              Reg rs1, std::int64_t imm) {
  start(out, mn, half);
  out->add_operand(Instruction::reg_op(rd, Operand::kWrite));
  out->add_operand(Instruction::reg_op(rs1, Operand::kRead));
  out->add_operand(Instruction::imm_op(imm));
}

void emit_rrr(Instruction* out, std::uint16_t half, Mnemonic mn, Reg rd,
              Reg rs1, Reg rs2) {
  start(out, mn, half);
  out->add_operand(Instruction::reg_op(rd, Operand::kWrite));
  out->add_operand(Instruction::reg_op(rs1, Operand::kRead));
  out->add_operand(Instruction::reg_op(rs2, Operand::kRead));
}

bool decode_q0(std::uint16_t h, const Decoder& dec, Instruction* out) {
  const auto f3 = bits(h, 13, 3);
  const Reg rdp = cr(bits(h, 2, 3));
  const Reg rs1p = cr(bits(h, 7, 3));
  switch (f3) {
    case 0b000: {  // c.addi4spn
      const std::uint64_t imm = (bits(h, 11, 2) << 4) | (bits(h, 7, 4) << 6) |
                                (bit(h, 6) << 2) | (bit(h, 5) << 3);
      if (imm == 0) return false;  // includes the all-zero illegal encoding
      emit_rri(out, h, Mnemonic::addi, rdp, sp,
               static_cast<std::int64_t>(imm));
      return true;
    }
    case 0b001: {  // c.fld
      if (!dec.profile().has(Extension::D)) return false;
      const std::int64_t imm =
          static_cast<std::int64_t>((bits(h, 10, 3) << 3) | (bits(h, 5, 2) << 6));
      emit_load(out, h, Mnemonic::fld, crf(bits(h, 2, 3)), rs1p, imm, 8);
      return true;
    }
    case 0b010: {  // c.lw
      const std::int64_t imm = static_cast<std::int64_t>(
          (bits(h, 10, 3) << 3) | (bit(h, 6) << 2) | (bit(h, 5) << 6));
      emit_load(out, h, Mnemonic::lw, rdp, rs1p, imm, 4);
      return true;
    }
    case 0b011: {  // c.ld (RV64)
      const std::int64_t imm =
          static_cast<std::int64_t>((bits(h, 10, 3) << 3) | (bits(h, 5, 2) << 6));
      emit_load(out, h, Mnemonic::ld, rdp, rs1p, imm, 8);
      return true;
    }
    case 0b101: {  // c.fsd
      if (!dec.profile().has(Extension::D)) return false;
      const std::int64_t imm =
          static_cast<std::int64_t>((bits(h, 10, 3) << 3) | (bits(h, 5, 2) << 6));
      emit_store(out, h, Mnemonic::fsd, crf(bits(h, 2, 3)), rs1p, imm, 8);
      return true;
    }
    case 0b110: {  // c.sw
      const std::int64_t imm = static_cast<std::int64_t>(
          (bits(h, 10, 3) << 3) | (bit(h, 6) << 2) | (bit(h, 5) << 6));
      emit_store(out, h, Mnemonic::sw, rdp, rs1p, imm, 4);
      return true;
    }
    case 0b111: {  // c.sd (RV64)
      const std::int64_t imm =
          static_cast<std::int64_t>((bits(h, 10, 3) << 3) | (bits(h, 5, 2) << 6));
      emit_store(out, h, Mnemonic::sd, rdp, rs1p, imm, 8);
      return true;
    }
    default:
      return false;  // 0b100 reserved
  }
}

bool decode_q1(std::uint16_t h, Instruction* out) {
  const auto f3 = bits(h, 13, 3);
  const Reg rd = x(static_cast<std::uint8_t>(bits(h, 7, 5)));
  const std::int64_t imm6 = sext((bit(h, 12) << 5) | bits(h, 2, 5), 6);
  switch (f3) {
    case 0b000:  // c.addi / c.nop
      emit_rri(out, h, Mnemonic::addi, rd, rd, imm6);
      return true;
    case 0b001:  // c.addiw (RV64)
      if (rd == zero) return false;
      emit_rri(out, h, Mnemonic::addiw, rd, rd, imm6);
      return true;
    case 0b010:  // c.li
      emit_rri(out, h, Mnemonic::addi, rd, zero, imm6);
      return true;
    case 0b011: {
      if (rd.num == 2) {  // c.addi16sp
        const std::int64_t imm =
            sext((bit(h, 12) << 9) | (bit(h, 6) << 4) | (bit(h, 5) << 6) |
                     (bits(h, 3, 2) << 7) | (bit(h, 2) << 5),
                 10);
        if (imm == 0) return false;
        emit_rri(out, h, Mnemonic::addi, sp, sp, imm);
        return true;
      }
      if (rd == zero) return false;
      const std::int64_t imm =
          sext((bit(h, 12) << 17) | (bits(h, 2, 5) << 12), 18);
      if (imm == 0) return false;  // c.lui imm 0 is reserved
      start(out, Mnemonic::lui, h);
      out->add_operand(Instruction::reg_op(rd, Operand::kWrite));
      out->add_operand(Instruction::imm_op(imm));
      return true;
    }
    case 0b100: {
      const Reg rdp = cr(bits(h, 7, 3));
      const Reg rs2p = cr(bits(h, 2, 3));
      switch (bits(h, 10, 2)) {
        case 0b00: {  // c.srli
          const std::int64_t sh =
              static_cast<std::int64_t>((bit(h, 12) << 5) | bits(h, 2, 5));
          emit_rri(out, h, Mnemonic::srli, rdp, rdp, sh);
          return true;
        }
        case 0b01: {  // c.srai
          const std::int64_t sh =
              static_cast<std::int64_t>((bit(h, 12) << 5) | bits(h, 2, 5));
          emit_rri(out, h, Mnemonic::srai, rdp, rdp, sh);
          return true;
        }
        case 0b10:  // c.andi
          emit_rri(out, h, Mnemonic::andi, rdp, rdp, imm6);
          return true;
        case 0b11: {
          if (bit(h, 12) == 0) {
            static constexpr Mnemonic kOps[4] = {Mnemonic::sub, Mnemonic::xor_,
                                                 Mnemonic::or_, Mnemonic::and_};
            emit_rrr(out, h, kOps[bits(h, 5, 2)], rdp, rdp, rs2p);
            return true;
          }
          switch (bits(h, 5, 2)) {
            case 0b00:
              emit_rrr(out, h, Mnemonic::subw, rdp, rdp, rs2p);
              return true;
            case 0b01:
              emit_rrr(out, h, Mnemonic::addw, rdp, rdp, rs2p);
              return true;
            default:
              return false;
          }
        }
      }
      return false;
    }
    case 0b101: {  // c.j
      const std::int64_t off =
          sext((bit(h, 12) << 11) | (bit(h, 11) << 4) | (bits(h, 9, 2) << 8) |
                   (bit(h, 8) << 10) | (bit(h, 7) << 6) | (bit(h, 6) << 7) |
                   (bits(h, 3, 3) << 1) | (bit(h, 2) << 5),
               12);
      start(out, Mnemonic::jal, h);
      out->add_operand(Instruction::reg_op(zero, Operand::kWrite));
      out->add_operand(Instruction::pcrel_op(off));
      return true;
    }
    case 0b110:    // c.beqz
    case 0b111: {  // c.bnez
      const std::int64_t off =
          sext((bit(h, 12) << 8) | (bits(h, 10, 2) << 3) |
                   (bits(h, 5, 2) << 6) | (bits(h, 3, 2) << 1) |
                   (bit(h, 2) << 5),
               9);
      start(out, f3 == 0b110 ? Mnemonic::beq : Mnemonic::bne, h);
      out->add_operand(Instruction::reg_op(cr(bits(h, 7, 3)), Operand::kRead));
      out->add_operand(Instruction::reg_op(zero, Operand::kRead));
      out->add_operand(Instruction::pcrel_op(off));
      return true;
    }
    default:
      return false;
  }
}

bool decode_q2(std::uint16_t h, const Decoder& dec, Instruction* out) {
  const auto f3 = bits(h, 13, 3);
  const Reg rd = x(static_cast<std::uint8_t>(bits(h, 7, 5)));
  const Reg rs2 = x(static_cast<std::uint8_t>(bits(h, 2, 5)));
  switch (f3) {
    case 0b000: {  // c.slli
      const std::int64_t sh =
          static_cast<std::int64_t>((bit(h, 12) << 5) | bits(h, 2, 5));
      emit_rri(out, h, Mnemonic::slli, rd, rd, sh);
      return true;
    }
    case 0b001: {  // c.fldsp
      if (!dec.profile().has(Extension::D)) return false;
      const std::int64_t imm = static_cast<std::int64_t>(
          (bit(h, 12) << 5) | (bits(h, 5, 2) << 3) | (bits(h, 2, 3) << 6));
      emit_load(out, h, Mnemonic::fld,
                f(static_cast<std::uint8_t>(bits(h, 7, 5))), sp, imm, 8);
      return true;
    }
    case 0b010: {  // c.lwsp
      if (rd == zero) return false;
      const std::int64_t imm = static_cast<std::int64_t>(
          (bit(h, 12) << 5) | (bits(h, 4, 3) << 2) | (bits(h, 2, 2) << 6));
      emit_load(out, h, Mnemonic::lw, rd, sp, imm, 4);
      return true;
    }
    case 0b011: {  // c.ldsp (RV64)
      if (rd == zero) return false;
      const std::int64_t imm = static_cast<std::int64_t>(
          (bit(h, 12) << 5) | (bits(h, 5, 2) << 3) | (bits(h, 2, 3) << 6));
      emit_load(out, h, Mnemonic::ld, rd, sp, imm, 8);
      return true;
    }
    case 0b100: {
      if (bit(h, 12) == 0) {
        if (rs2 == zero) {  // c.jr
          if (rd == zero) return false;
          emit_rri(out, h, Mnemonic::jalr, zero, rd, 0);
          return true;
        }
        emit_rrr(out, h, Mnemonic::add, rd, zero, rs2);  // c.mv
        return true;
      }
      if (rd == zero && rs2 == zero) {  // c.ebreak
        start(out, Mnemonic::ebreak, h);
        return true;
      }
      if (rs2 == zero) {  // c.jalr
        emit_rri(out, h, Mnemonic::jalr, ra, rd, 0);
        return true;
      }
      emit_rrr(out, h, Mnemonic::add, rd, rd, rs2);  // c.add
      return true;
    }
    case 0b101: {  // c.fsdsp
      if (!dec.profile().has(Extension::D)) return false;
      const std::int64_t imm = static_cast<std::int64_t>(
          (bits(h, 10, 3) << 3) | (bits(h, 7, 3) << 6));
      emit_store(out, h, Mnemonic::fsd,
                 f(static_cast<std::uint8_t>(bits(h, 2, 5))), sp, imm, 8);
      return true;
    }
    case 0b110: {  // c.swsp
      const std::int64_t imm = static_cast<std::int64_t>(
          (bits(h, 9, 4) << 2) | (bits(h, 7, 2) << 6));
      emit_store(out, h, Mnemonic::sw, rs2, sp, imm, 4);
      return true;
    }
    case 0b111: {  // c.sdsp
      const std::int64_t imm = static_cast<std::int64_t>(
          (bits(h, 10, 3) << 3) | (bits(h, 7, 3) << 6));
      emit_store(out, h, Mnemonic::sd, rs2, sp, imm, 8);
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

bool Decoder::decode16_linear(std::uint16_t half, Instruction* out) const {
  if (!profile_.has(Extension::C)) return false;
  bool ok;
  switch (half & 0x3) {
    case 0b00:
      ok = decode_q0(half, *this, out);
      break;
    case 0b01:
      ok = decode_q1(half, out);
      break;
    case 0b10:
      ok = decode_q2(half, *this, out);
      break;
    default:
      return false;  // 0b11 is a 32-bit encoding
  }
  // Uniform profile gating on the expansion's extension, matching the table
  // path (the quadrant D checks above are redundant with this for profiles
  // that include the base ISA, but keep both paths bit-identical).
  return ok && profile_.has(out->extension());
}

}  // namespace rvdyn::isa
