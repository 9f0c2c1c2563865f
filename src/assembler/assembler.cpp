#include "assembler/assembler.hpp"

#include <cctype>
#include <cstring>
#include <map>
#include <set>
#include <optional>
#include <sstream>
#include <vector>

#include "common/bits.hpp"
#include "isa/decoder.hpp"
#include "isa/encoder.hpp"
#include "isa/imm_builder.hpp"
#include "obs/trace.hpp"

namespace rvdyn::assembler {

namespace {

using isa::Instruction;
using isa::Mnemonic;
using isa::Operand;
using isa::Reg;

enum class SecKind { Text, Rodata, Data, Bss, kCount };

const char* section_name(SecKind k) {
  switch (k) {
    case SecKind::Text: return ".text";
    case SecKind::Rodata: return ".rodata";
    case SecKind::Data: return ".data";
    case SecKind::Bss: return ".bss";
    default: return "?";
  }
}

enum class Reloc {
  None,
  Branch,   ///< B-type pc-relative to a label
  Jal,      ///< J-type pc-relative to a label
  PcrelHi,  ///< auipc hi20 of (label - pc)
  PcrelLo,  ///< low 12 bits paired with a PcrelHi item (hi_link)
  Abs64,    ///< 8-byte data cell holding a label address
  Abs32,    ///< 4-byte data cell holding a label address
};

struct Item {
  enum class Kind { Insn, Bytes, Align, Zero } kind = Kind::Insn;

  // Kind::Insn
  Mnemonic mn = Mnemonic::kInvalid;
  std::vector<Operand> ops;
  Reloc reloc = Reloc::None;
  std::string target;
  std::int64_t addend = 0;
  int hi_link = -1;  ///< for PcrelLo: index of the paired PcrelHi item
  unsigned size = 4;
  bool no_compress = false;  ///< set while `.option norvc` is active

  // Kind::Bytes (also carries Abs64/Abs32 relocs at `addend` offset 0)
  std::vector<std::uint8_t> bytes;

  // Kind::Align / Kind::Zero
  std::uint64_t count = 0;

  std::uint64_t addr = 0;
  int line = 0;
};

struct LabelDef {
  SecKind sec = SecKind::Text;
  std::size_t item_index = 0;  ///< address of the item at this index
  bool global = false;
  bool is_func = false;
  std::uint64_t size = 0;
};

struct SizeRequest {  ///< ".size name, .-name"
  std::string name;
  SecKind sec;
  std::size_t end_index;
};

[[noreturn]] void fail(int line, const std::string& msg) {
  throw Error("asm:" + std::to_string(line) + ": " + msg);
}

// ---------------------------------------------------------------------------
// tokenizing
// ---------------------------------------------------------------------------

std::string strip(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return {};
  std::size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

// Split on commas that are outside quotes and parentheses.
std::vector<std::string> split_operands(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  int depth = 0;
  bool in_str = false;
  for (char c : s) {
    if (c == '"') in_str = !in_str;
    if (!in_str) {
      if (c == '(') ++depth;
      if (c == ')') --depth;
      if (c == ',' && depth == 0) {
        out.push_back(strip(cur));
        cur.clear();
        continue;
      }
    }
    cur += c;
  }
  if (!strip(cur).empty()) out.push_back(strip(cur));
  return out;
}

bool parse_int(const std::string& tok, std::int64_t* out) {
  if (tok.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(tok.c_str(), &end, 0);
  if (errno == 0 && end == tok.c_str() + tok.size()) {
    *out = v;
    return true;
  }
  // Large unsigned 64-bit literals (common in .dword FP bit patterns)
  // overflow strtoll; accept them via the unsigned parse.
  errno = 0;
  const unsigned long long u = std::strtoull(tok.c_str(), &end, 0);
  if (errno != 0 || end != tok.c_str() + tok.size()) return false;
  *out = static_cast<std::int64_t>(u);
  return true;
}

// "label", "label+4", "label-8", or a plain integer.
void parse_symbol_ref(const std::string& tok, int line, std::string* name,
                      std::int64_t* addend) {
  *addend = 0;
  std::int64_t v;
  if (parse_int(tok, &v)) {  // numeric branch target = raw byte offset
    name->clear();
    *addend = v;
    return;
  }
  std::size_t pos = tok.find_first_of("+-", 1);
  if (pos == std::string::npos) {
    *name = strip(tok);
    return;
  }
  *name = strip(tok.substr(0, pos));
  std::string rest = strip(tok.substr(pos));
  if (!parse_int(rest, addend)) fail(line, "bad symbol addend: " + tok);
}

std::optional<std::int64_t> parse_csr(const std::string& tok) {
  static const std::map<std::string, std::int64_t> names = {
      {"fflags", 0x001}, {"frm", 0x002},     {"fcsr", 0x003},
      {"cycle", 0xC00},  {"time", 0xC01},    {"instret", 0xC02},
  };
  auto it = names.find(tok);
  if (it != names.end()) return it->second;
  std::int64_t v;
  if (parse_int(tok, &v) && v >= 0 && v < 4096) return v;
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// the assembler object
// ---------------------------------------------------------------------------

class Assembler {
 public:
  explicit Assembler(const Options& opts) : opts_(opts) {
    compress_enabled_ =
        opts.auto_compress && opts.extensions.has(isa::Extension::C);
  }

  symtab::Symtab run(const std::string& source) {
    parse(source);
    layout();
    check_overlap();
    return emit();
  }

 private:
  // ---- parsing ----

  void parse(const std::string& source) {
    std::istringstream in(source);
    std::string raw;
    int line = 0;
    while (std::getline(in, raw)) {
      ++line;
      line_ = line;
      std::string s = strip_comment(raw);
      // Leading labels (possibly several on one line).
      while (true) {
        s = strip(s);
        const std::size_t colon = s.find(':');
        if (colon == std::string::npos) break;
        const std::string head = strip(s.substr(0, colon));
        if (head.empty() || head.find(' ') != std::string::npos ||
            head.find('\t') != std::string::npos || head[0] == '.')
          break;
        define_label(head);
        s = s.substr(colon + 1);
      }
      s = strip(s);
      if (s.empty()) continue;
      if (s[0] == '.') {
        directive(s);
      } else {
        instruction(s);
      }
    }
  }

  static std::string strip_comment(const std::string& s) {
    std::string out;
    bool in_str = false;
    for (std::size_t i = 0; i < s.size(); ++i) {
      const char c = s[i];
      if (c == '"') in_str = !in_str;
      if (!in_str && (c == '#' || (c == '/' && i + 1 < s.size() && s[i + 1] == '/')))
        break;
      out += c;
    }
    return out;
  }

  void define_label(const std::string& name) {
    if (labels_.count(name)) fail(line_, "duplicate label: " + name);
    LabelDef def;
    def.sec = cur_;
    def.item_index = items_[static_cast<int>(cur_)].size();
    def.global = pending_globals_.count(name) > 0;
    // Only .globl/.type-declared text labels are functions; plain local
    // labels stay untyped so ParseAPI does not mistake branch targets for
    // function entries.
    def.is_func = cur_ == SecKind::Text &&
                  (def.global || pending_func_types_.count(name) > 0);
    labels_[name] = def;
    label_order_.push_back(name);
  }

  void directive(const std::string& s) {
    std::istringstream in(s);
    std::string dir;
    in >> dir;
    std::string rest = strip(s.substr(dir.size() < s.size() ? dir.size() : s.size()));

    if (dir == ".text") { cur_ = SecKind::Text; return; }
    if (dir == ".rodata") { cur_ = SecKind::Rodata; return; }
    if (dir == ".data") { cur_ = SecKind::Data; return; }
    if (dir == ".bss") { cur_ = SecKind::Bss; return; }
    if (dir == ".section") {
      const auto args = split_operands(rest);
      if (args.empty()) fail(line_, ".section needs a name");
      const std::string& n = args[0];
      if (n == ".text") cur_ = SecKind::Text;
      else if (n == ".rodata" || n.rfind(".rodata.", 0) == 0) cur_ = SecKind::Rodata;
      else if (n == ".data" || n.rfind(".data.", 0) == 0) cur_ = SecKind::Data;
      else if (n == ".bss") cur_ = SecKind::Bss;
      else fail(line_, "unsupported section: " + n);
      return;
    }
    if (dir == ".globl" || dir == ".global") {
      for (const auto& n : split_operands(rest)) {
        pending_globals_.insert(n);
        auto it = labels_.find(n);
        if (it != labels_.end()) {
          it->second.global = true;
          if (it->second.sec == SecKind::Text) it->second.is_func = true;
        }
      }
      return;
    }
    if (dir == ".type") {
      const auto args = split_operands(rest);
      if (args.size() == 2 && (args[1] == "@function" || args[1] == "%function")) {
        auto it = labels_.find(args[0]);
        if (it != labels_.end()) it->second.is_func = true;
        pending_func_types_.insert(args[0]);
      }
      return;
    }
    if (dir == ".size") {
      const auto args = split_operands(rest);
      if (args.size() == 2 && args[1].rfind(".-", 0) == 0) {
        size_requests_.push_back(
            {args[0], cur_, items_[static_cast<int>(cur_)].size()});
      }
      return;
    }
    if (dir == ".align" || dir == ".p2align" || dir == ".balign") {
      std::int64_t n = 0;
      if (!parse_int(strip(rest), &n) || n < 0) fail(line_, "bad alignment");
      Item it;
      it.kind = Item::Kind::Align;
      it.count = dir == ".balign" ? static_cast<std::uint64_t>(n)
                                  : (1ULL << n);
      push(std::move(it));
      return;
    }
    if (dir == ".byte" || dir == ".half" || dir == ".2byte" ||
        dir == ".word" || dir == ".4byte" || dir == ".dword" ||
        dir == ".8byte" || dir == ".quad") {
      unsigned width = 1;
      if (dir == ".half" || dir == ".2byte") width = 2;
      else if (dir == ".word" || dir == ".4byte") width = 4;
      else if (dir == ".dword" || dir == ".8byte" || dir == ".quad") width = 8;
      for (const auto& tok : split_operands(rest)) data_cell(tok, width);
      return;
    }
    if (dir == ".zero" || dir == ".space" || dir == ".skip") {
      std::int64_t n = 0;
      if (!parse_int(strip(rest), &n) || n < 0) fail(line_, "bad size");
      Item it;
      it.kind = Item::Kind::Zero;
      it.count = static_cast<std::uint64_t>(n);
      push(std::move(it));
      return;
    }
    if (dir == ".asciz" || dir == ".string" || dir == ".ascii") {
      const std::string str = parse_string(rest);
      Item it;
      it.kind = Item::Kind::Bytes;
      it.bytes.assign(str.begin(), str.end());
      if (dir != ".ascii") it.bytes.push_back(0);
      push(std::move(it));
      return;
    }
    if (dir == ".option") {
      // .option rvc / norvc toggle auto-compression for following code.
      const std::string arg = strip(rest);
      if (arg == "norvc") rvc_suppressed_ = true;
      else if (arg == "rvc") rvc_suppressed_ = false;
      return;  // other .option flags accepted and ignored
    }
    if (dir == ".attribute" || dir == ".file" || dir == ".ident" ||
        dir == ".local")
      return;  // accepted and ignored
    fail(line_, "unknown directive: " + dir);
  }

  std::string parse_string(const std::string& tok) {
    const std::size_t b = tok.find('"');
    const std::size_t e = tok.rfind('"');
    if (b == std::string::npos || e <= b) fail(line_, "bad string literal");
    std::string out;
    for (std::size_t i = b + 1; i < e; ++i) {
      char c = tok[i];
      if (c == '\\' && i + 1 < e) {
        ++i;
        switch (tok[i]) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case '0': c = '\0'; break;
          case '\\': c = '\\'; break;
          case '"': c = '"'; break;
          default: c = tok[i]; break;
        }
      }
      out += c;
    }
    return out;
  }

  void data_cell(const std::string& tok, unsigned width) {
    Item it;
    it.kind = Item::Kind::Bytes;
    std::int64_t v;
    if (parse_int(tok, &v)) {
      for (unsigned i = 0; i < width; ++i)
        it.bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    } else {
      // Label reference: resolved at emit time.
      if (width != 8 && width != 4)
        fail(line_, "label data cells must be .word or .dword");
      parse_symbol_ref(tok, line_, &it.target, &it.addend);
      if (it.target.empty()) fail(line_, "bad data cell: " + tok);
      it.reloc = width == 8 ? Reloc::Abs64 : Reloc::Abs32;
      it.bytes.assign(width, 0);
    }
    push(std::move(it));
  }

  // ---- instructions and pseudo-instructions ----

  void instruction(const std::string& s) {
    if (cur_ != SecKind::Text) fail(line_, "instruction outside .text");
    std::istringstream in(s);
    std::string mn_text;
    in >> mn_text;
    std::string rest =
        strip(s.size() > mn_text.size() ? s.substr(mn_text.size()) : "");
    const auto toks = split_operands(rest);
    if (expand_pseudo(mn_text, toks)) return;

    // Atomic ordering suffixes (amoswap.w.aqrl, lr.d.aq, ...) strip down to
    // the base mnemonic and surface as an Ordering operand via spec 'q'.
    std::int64_t aqrl = -1;
    Mnemonic mn = isa::mnemonic_from_name(mn_text);
    if (mn == Mnemonic::kInvalid) {
      for (const auto& [suffix, bits] :
           {std::pair<const char*, std::int64_t>{".aqrl", 3},
            {".aq", 2},
            {".rl", 1}}) {
        const std::size_t n = std::string(suffix).size();
        if (mn_text.size() > n &&
            mn_text.compare(mn_text.size() - n, n, suffix) == 0) {
          mn = isa::mnemonic_from_name(mn_text.substr(0, mn_text.size() - n));
          if (mn != Mnemonic::kInvalid) aqrl = bits;
          break;
        }
      }
    }
    if (mn == Mnemonic::kInvalid) fail(line_, "unknown mnemonic: " + mn_text);
    const isa::OpcodeInfo& info = isa::opcode_info(mn);
    if (!opts_.extensions.has(info.ext))
      fail(line_, mn_text + " requires extension " +
                      isa::extension_name(info.ext) +
                      " absent from the target profile");

    Item it;
    it.mn = mn;
    std::size_t ti = 0;
    auto next_tok = [&]() -> const std::string& {
      if (ti >= toks.size()) fail(line_, "missing operand for " + mn_text);
      return toks[ti++];
    };
    for (const char* p = info.spec; *p; ++p) {
      switch (*p) {
        case 'd': case 'D':
          it.ops.push_back(Instruction::reg_op(parse_register(next_tok()),
                                               Operand::kWrite));
          break;
        case 's': case 't': case 'S': case 'T': case 'R':
          it.ops.push_back(Instruction::reg_op(parse_register(next_tok()),
                                               Operand::kRead));
          break;
        case 'i': case 'z': case 'w': case 'u': case 'Z': {
          std::int64_t v;
          if (!parse_int(next_tok(), &v)) fail(line_, "bad immediate");
          it.ops.push_back(Instruction::imm_op(v));
          break;
        }
        case 'm': case 'M': case 'A': {
          std::uint8_t access = Operand::kRead;
          if (*p == 'M') access = Operand::kWrite;
          if (*p == 'A') access = Operand::kRW;
          it.ops.push_back(parse_mem(next_tok(), info.mem_size, access));
          break;
        }
        case 'b': case 'a': {
          parse_symbol_ref(next_tok(), line_, &it.target, &it.addend);
          it.reloc = it.target.empty()
                         ? Reloc::None
                         : (*p == 'b' ? Reloc::Branch : Reloc::Jal);
          it.ops.push_back(Instruction::pcrel_op(it.addend));
          if (it.reloc != Reloc::None) it.addend = 0;
          break;
        }
        case 'c': {
          auto v = parse_csr(next_tok());
          if (!v) fail(line_, "bad CSR");
          Operand o;
          o.kind = Operand::Kind::Csr;
          o.imm = *v;
          o.access = Operand::kRW;
          it.ops.push_back(o);
          break;
        }
        case 'x':
          break;  // rounding mode defaults to dynamic
        case 'q':
          if (aqrl >= 0) {
            Operand o;
            o.kind = Operand::Kind::Ordering;
            o.imm = aqrl;
            it.ops.push_back(o);
          }
          break;  // no suffix: relaxed ordering, no operand
        case 'f': {
          // Optional `fence pred,succ` sets (subsets of "iorw"); the bare
          // mnemonic keeps its historical all-zero field.
          if (ti >= toks.size()) break;
          std::int64_t sets = 0;
          for (int field = 1; field >= 0; --field) {
            std::int64_t v = 0;
            for (const char ch : next_tok()) {
              switch (ch) {
                case 'i': v |= 8; break;
                case 'o': v |= 4; break;
                case 'r': v |= 2; break;
                case 'w': v |= 1; break;
                case '0': break;
                default: fail(line_, "bad fence set");
              }
            }
            sets |= v << (4 * field);
          }
          Operand o;
          o.kind = Operand::Kind::Ordering;
          o.imm = sets;
          it.ops.push_back(o);
          break;
        }
        default:
          fail(line_, "internal: bad spec char");
      }
    }
    if (ti != toks.size()) fail(line_, "too many operands for " + mn_text);
    push_insn(std::move(it));
  }

  Reg parse_register(const std::string& tok) {
    Reg r;
    if (!isa::parse_reg(tok, &r)) fail(line_, "bad register: " + tok);
    return r;
  }

  Operand parse_mem(const std::string& tok, std::uint8_t size,
                    std::uint8_t access) {
    const std::size_t lp = tok.find('(');
    const std::size_t rp = tok.rfind(')');
    if (lp == std::string::npos || rp == std::string::npos || rp < lp)
      fail(line_, "bad memory operand: " + tok);
    std::int64_t disp = 0;
    const std::string disp_str = strip(tok.substr(0, lp));
    if (!disp_str.empty() && !parse_int(disp_str, &disp))
      fail(line_, "bad displacement: " + tok);
    const Reg base = parse_register(strip(tok.substr(lp + 1, rp - lp - 1)));
    return Instruction::mem_op(base, disp, size, access);
  }

  // Expand the standard pseudo-instruction set. Returns false when the
  // mnemonic is not a pseudo (i.e., should be handled as a real insn).
  bool expand_pseudo(const std::string& mn, const std::vector<std::string>& t) {
    auto reg = [&](unsigned i) { return parse_register(t.at(i)); };
    auto want = [&](std::size_t n) {
      if (t.size() != n) fail(line_, mn + " expects " + std::to_string(n) + " operands");
    };
    auto rri = [&](Mnemonic m, Reg rd, Reg rs, std::int64_t imm) {
      Item it;
      it.mn = m;
      it.ops = {Instruction::reg_op(rd, Operand::kWrite),
                Instruction::reg_op(rs, Operand::kRead),
                Instruction::imm_op(imm)};
      push_insn(std::move(it));
    };
    auto rrr = [&](Mnemonic m, Reg rd, Reg rs1, Reg rs2) {
      Item it;
      it.mn = m;
      it.ops = {Instruction::reg_op(rd, Operand::kWrite),
                Instruction::reg_op(rs1, Operand::kRead),
                Instruction::reg_op(rs2, Operand::kRead)};
      push_insn(std::move(it));
    };
    auto branch_to = [&](Mnemonic m, Reg rs1, Reg rs2, const std::string& tgt) {
      Item it;
      it.mn = m;
      it.ops = {Instruction::reg_op(rs1, Operand::kRead),
                Instruction::reg_op(rs2, Operand::kRead),
                Instruction::pcrel_op(0)};
      parse_symbol_ref(tgt, line_, &it.target, &it.addend);
      if (it.target.empty()) {
        it.ops[2].imm = it.addend;
        it.addend = 0;
      } else {
        it.reloc = Reloc::Branch;
      }
      push_insn(std::move(it));
    };

    if (mn == "nop") { want(0); rri(Mnemonic::addi, isa::zero, isa::zero, 0); return true; }
    if (mn == "li") {
      want(2);
      std::int64_t v;
      if (!parse_int(t[1], &v)) fail(line_, "li needs a constant");
      std::vector<Instruction> seq;
      isa::materialize_imm(reg(0), v, &seq);
      for (const auto& insn : seq) {
        Item it;
        it.mn = insn.mnemonic();
        for (unsigned i = 0; i < insn.num_operands(); ++i)
          it.ops.push_back(insn.operand(i));
        push_insn(std::move(it));
      }
      return true;
    }
    if (mn == "la" || mn == "lla") {
      want(2);
      emit_pcrel_pair(reg(0), t[1], Mnemonic::addi, reg(0));
      return true;
    }
    if (mn == "mv") { want(2); rri(Mnemonic::addi, reg(0), reg(1), 0); return true; }
    if (mn == "not") { want(2); rri(Mnemonic::xori, reg(0), reg(1), -1); return true; }
    if (mn == "neg") { want(2); rrr(Mnemonic::sub, reg(0), isa::zero, reg(1)); return true; }
    if (mn == "negw") { want(2); rrr(Mnemonic::subw, reg(0), isa::zero, reg(1)); return true; }
    if (mn == "sext.w") { want(2); rri(Mnemonic::addiw, reg(0), reg(1), 0); return true; }
    if (mn == "seqz") { want(2); rri(Mnemonic::sltiu, reg(0), reg(1), 1); return true; }
    if (mn == "snez") { want(2); rrr(Mnemonic::sltu, reg(0), isa::zero, reg(1)); return true; }
    if (mn == "sltz") { want(2); rrr(Mnemonic::slt, reg(0), reg(1), isa::zero); return true; }
    if (mn == "sgtz") { want(2); rrr(Mnemonic::slt, reg(0), isa::zero, reg(1)); return true; }
    if (mn == "beqz") { want(2); branch_to(Mnemonic::beq, reg(0), isa::zero, t[1]); return true; }
    if (mn == "bnez") { want(2); branch_to(Mnemonic::bne, reg(0), isa::zero, t[1]); return true; }
    if (mn == "blez") { want(2); branch_to(Mnemonic::bge, isa::zero, reg(0), t[1]); return true; }
    if (mn == "bgez") { want(2); branch_to(Mnemonic::bge, reg(0), isa::zero, t[1]); return true; }
    if (mn == "bltz") { want(2); branch_to(Mnemonic::blt, reg(0), isa::zero, t[1]); return true; }
    if (mn == "bgtz") { want(2); branch_to(Mnemonic::blt, isa::zero, reg(0), t[1]); return true; }
    if (mn == "bgt") { want(3); branch_to(Mnemonic::blt, reg(1), reg(0), t[2]); return true; }
    if (mn == "ble") { want(3); branch_to(Mnemonic::bge, reg(1), reg(0), t[2]); return true; }
    if (mn == "bgtu") { want(3); branch_to(Mnemonic::bltu, reg(1), reg(0), t[2]); return true; }
    if (mn == "bleu") { want(3); branch_to(Mnemonic::bgeu, reg(1), reg(0), t[2]); return true; }
    if (mn == "j") {
      want(1);
      Item it;
      it.mn = Mnemonic::jal;
      it.ops = {Instruction::reg_op(isa::zero, Operand::kWrite),
                Instruction::pcrel_op(0)};
      parse_symbol_ref(t[0], line_, &it.target, &it.addend);
      if (it.target.empty()) { it.ops[1].imm = it.addend; it.addend = 0; }
      else it.reloc = Reloc::Jal;
      push_insn(std::move(it));
      return true;
    }
    if (mn == "jr") { want(1); rri(Mnemonic::jalr, isa::zero, reg(0), 0); return true; }
    if (mn == "jalr") {
      // Accept the pseudo forms: "jalr rs", "jalr rd, offset(rs1)".
      // The three-operand register form falls through to the real encoder.
      if (t.size() == 1) {
        rri(Mnemonic::jalr, isa::ra, reg(0), 0);
        return true;
      }
      if (t.size() == 2 && t[1].find('(') != std::string::npos) {
        const Operand mem = parse_mem(t[1], 0, Operand::kRead);
        rri(Mnemonic::jalr, reg(0), mem.reg, mem.imm);
        return true;
      }
      return false;
    }
    if (mn == "ret") { want(0); rri(Mnemonic::jalr, isa::zero, isa::ra, 0); return true; }
    if (mn == "call") {
      want(1);
      emit_pcrel_pair(isa::ra, t[0], Mnemonic::jalr, isa::ra);
      return true;
    }
    if (mn == "tail") {
      want(1);
      // Standard tail-call idiom: clobbers t1, links to x0 (paper §3.2.3).
      emit_pcrel_pair(isa::t1, t[0], Mnemonic::jalr, isa::zero);
      return true;
    }
    if (mn == "fmv.s") { want(2); rrr(Mnemonic::fsgnj_s, reg(0), reg(1), reg(1)); return true; }
    if (mn == "fmv.d") { want(2); rrr(Mnemonic::fsgnj_d, reg(0), reg(1), reg(1)); return true; }
    if (mn == "fabs.d") { want(2); rrr(Mnemonic::fsgnjx_d, reg(0), reg(1), reg(1)); return true; }
    if (mn == "fneg.d") { want(2); rrr(Mnemonic::fsgnjn_d, reg(0), reg(1), reg(1)); return true; }
    if (mn == "csrr") {
      want(2);
      Item it;
      it.mn = Mnemonic::csrrs;
      auto v = parse_csr(t[1]);
      if (!v) fail(line_, "bad CSR");
      Operand c;
      c.kind = Operand::Kind::Csr;
      c.imm = *v;
      c.access = Operand::kRW;
      it.ops = {Instruction::reg_op(reg(0), Operand::kWrite), c,
                Instruction::reg_op(isa::zero, Operand::kRead)};
      push_insn(std::move(it));
      return true;
    }
    if (mn == "rdcycle") {
      want(1);
      return expand_pseudo("csrr", {t[0], "cycle"});
    }
    if (mn == "rdinstret") {
      want(1);
      return expand_pseudo("csrr", {t[0], "instret"});
    }
    return false;
  }

  // auipc `hi_rd`, %pcrel_hi(target) ; `lo_mn` ... %pcrel_lo — the pair used
  // by la (addi), call (jalr ra) and tail (jalr x0).
  void emit_pcrel_pair(Reg hi_rd, const std::string& target, Mnemonic lo_mn,
                       Reg lo_rd) {
    Item hi;
    hi.mn = Mnemonic::auipc;
    hi.ops = {Instruction::reg_op(hi_rd, Operand::kWrite),
              Instruction::imm_op(0)};
    hi.reloc = Reloc::PcrelHi;
    parse_symbol_ref(target, line_, &hi.target, &hi.addend);
    if (hi.target.empty()) fail(line_, "pc-relative pair needs a label");
    const int hi_index = static_cast<int>(items_text().size());
    push_insn(std::move(hi));

    Item lo;
    lo.mn = lo_mn;
    if (lo_mn == Mnemonic::addi || lo_mn == Mnemonic::jalr) {
      lo.ops = {Instruction::reg_op(lo_rd, Operand::kWrite),
                Instruction::reg_op(hi_rd, Operand::kRead),
                Instruction::imm_op(0)};
    } else {
      fail(line_, "unsupported pcrel_lo consumer");
    }
    lo.reloc = Reloc::PcrelLo;
    lo.hi_link = hi_index;
    push_insn(std::move(lo));
  }

  std::vector<Item>& items_text() { return items_[static_cast<int>(SecKind::Text)]; }

  void push(Item it) {
    it.line = line_;
    items_[static_cast<int>(cur_)].push_back(std::move(it));
  }

  void push_insn(Item it) {
    it.kind = Item::Kind::Insn;
    it.size = 4;
    it.no_compress = rvc_suppressed_;
    push(std::move(it));
  }

  // ---- layout: address assignment + shrink-only compression ----

  std::uint64_t section_base(SecKind k) const {
    switch (k) {
      case SecKind::Text: return opts_.text_base;
      case SecKind::Rodata: return opts_.rodata_base;
      case SecKind::Data: return opts_.data_base;
      case SecKind::Bss: return opts_.bss_base;
      default: return 0;
    }
  }

  void assign_addresses() {
    for (int k = 0; k < static_cast<int>(SecKind::kCount); ++k) {
      std::uint64_t addr = section_base(static_cast<SecKind>(k));
      for (auto& it : items_[k]) {
        if (it.kind == Item::Kind::Align && it.count > 1)
          addr = align_up(addr, it.count);
        it.addr = addr;
        switch (it.kind) {
          case Item::Kind::Insn: addr += it.size; break;
          case Item::Kind::Bytes: addr += it.bytes.size(); break;
          case Item::Kind::Zero: addr += it.count; break;
          case Item::Kind::Align: break;
        }
      }
      section_end_[k] = addr;
    }
  }

  // Sections sit at fixed bases, so one that outgrows the gap to the next
  // base would silently overlay it: reject any two non-empty sections
  // whose final [base, end) ranges intersect.
  void check_overlap() const {
    constexpr int n = static_cast<int>(SecKind::kCount);
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        const SecKind a = static_cast<SecKind>(i), b = static_cast<SecKind>(j);
        if (section_end_[i] > section_base(a) &&
            section_end_[j] > section_base(b) &&
            section_base(a) < section_end_[j] &&
            section_base(b) < section_end_[i])
          throw Error(std::string("asm: section ") + section_name(a) +
                      " overlaps section " + section_name(b) +
                      "; move one with Options::*_base");
      }
    }
  }

  std::uint64_t label_addr(const std::string& name, int line) const {
    auto it = labels_.find(name);
    if (it == labels_.end()) fail(line, "undefined label: " + name);
    const LabelDef& def = it->second;
    const auto& items = items_[static_cast<int>(def.sec)];
    if (def.item_index < items.size()) return items[def.item_index].addr;
    return section_end_[static_cast<int>(def.sec)];
  }

  // Bind reloc operand values for an insn item at its current address.
  // Returns the fully-resolved operand list.
  std::vector<Operand> resolve_ops(const Item& it) const {
    std::vector<Operand> ops = it.ops;
    switch (it.reloc) {
      case Reloc::None:
        break;
      case Reloc::Branch:
      case Reloc::Jal: {
        const std::int64_t off = static_cast<std::int64_t>(
            label_addr(it.target, it.line) + it.addend - it.addr);
        for (auto& o : ops)
          if (o.kind == Operand::Kind::PcRelative) o.imm = off;
        break;
      }
      case Reloc::PcrelHi: {
        const std::int64_t delta = static_cast<std::int64_t>(
            label_addr(it.target, it.line) + it.addend - it.addr);
        std::int64_t hi, lo;
        if (!isa::split_hi_lo(delta, &hi, &lo))
          fail(it.line, "pc-relative target out of ±2GiB range");
        ops[1].imm = hi;
        break;
      }
      case Reloc::PcrelLo: {
        const Item& hi_item =
            items_[static_cast<int>(SecKind::Text)][static_cast<std::size_t>(it.hi_link)];
        const std::int64_t delta = static_cast<std::int64_t>(
            label_addr(hi_item.target, hi_item.line) + hi_item.addend -
            hi_item.addr);
        std::int64_t hi, lo;
        if (!isa::split_hi_lo(delta, &hi, &lo))
          fail(it.line, "pc-relative target out of ±2GiB range");
        ops[2].imm = lo;
        break;
      }
      default:
        break;
    }
    return ops;
  }

  void layout() {
    assign_addresses();
    if (!compress_enabled_) return;
    // Shrink-only relaxation: every insn starts at 4 bytes, so offsets only
    // shrink as items compress; once compressible, always compressible.
    for (int iter = 0; iter < 32; ++iter) {
      bool changed = false;
      for (auto& it : items_text()) {
        if (it.kind != Item::Kind::Insn || it.size == 2) continue;
        if (it.no_compress) continue;
        if (it.reloc == Reloc::PcrelHi || it.reloc == Reloc::PcrelLo)
          continue;  // pairs stay 4-byte for simple patching
        const auto ops = resolve_ops(it);
        Instruction insn = isa::assemble(it.mn, ops);
        if (isa::compress(insn)) {
          it.size = 2;
          changed = true;
        }
      }
      if (!changed) break;
      assign_addresses();
    }
  }

  // ---- emission ----

  symtab::Symtab emit() {
    symtab::Symtab st;
    st.e_type = symtab::ET_EXEC;
    st.set_extensions(opts_.extensions);

    for (int k = 0; k < static_cast<int>(SecKind::kCount); ++k) {
      const SecKind sec = static_cast<SecKind>(k);
      auto& items = items_[k];
      if (items.empty()) continue;

      symtab::Section s;
      s.name = section_name(sec);
      s.addr = section_base(sec);
      s.addralign = sec == SecKind::Text ? 4 : 8;
      switch (sec) {
        case SecKind::Text:
          s.flags = symtab::SHF_ALLOC | symtab::SHF_EXECINSTR;
          break;
        case SecKind::Rodata:
          s.flags = symtab::SHF_ALLOC;
          break;
        case SecKind::Data:
          s.flags = symtab::SHF_ALLOC | symtab::SHF_WRITE;
          break;
        case SecKind::Bss:
          s.flags = symtab::SHF_ALLOC | symtab::SHF_WRITE;
          s.type = symtab::SHT_NOBITS;
          break;
        default:
          break;
      }

      if (sec == SecKind::Bss) {
        s.nobits_size = section_end_[k] - s.addr;
        st.add_section(std::move(s));
        continue;
      }

      std::vector<std::uint8_t>& out = s.data;
      auto pad_to = [&](std::uint64_t addr) {
        const std::uint64_t want = addr - s.addr;
        while (out.size() < want) {
          if (sec == SecKind::Text) {
            // Pad code with c.nop / nop so gaps stay decodable.
            if (compress_enabled_ && want - out.size() >= 2 &&
                (want - out.size()) % 4 != 0) {
              out.push_back(0x01);
              out.push_back(0x00);
            } else if (want - out.size() >= 4) {
              out.push_back(0x13);
              out.push_back(0x00);
              out.push_back(0x00);
              out.push_back(0x00);
            } else {
              out.push_back(0x01);
              out.push_back(0x00);
            }
          } else {
            out.push_back(0);
          }
        }
      };

      for (auto& it : items) {
        pad_to(it.addr);
        switch (it.kind) {
          case Item::Kind::Align:
            break;
          case Item::Kind::Zero:
            out.insert(out.end(), it.count, 0);
            break;
          case Item::Kind::Bytes: {
            if (it.reloc == Reloc::Abs64 || it.reloc == Reloc::Abs32) {
              const std::uint64_t v = label_addr(it.target, it.line) +
                                      static_cast<std::uint64_t>(it.addend);
              for (std::size_t i = 0; i < it.bytes.size(); ++i)
                it.bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
            }
            out.insert(out.end(), it.bytes.begin(), it.bytes.end());
            break;
          }
          case Item::Kind::Insn: {
            const auto ops = resolve_ops(it);
            Instruction insn;
            try {
              insn = isa::assemble(it.mn, ops);
            } catch (const Error& e) {
              fail(it.line, e.what());
            }
            if (it.size == 2) {
              const auto half = isa::compress(insn);
              if (!half) fail(it.line, "internal: lost compressibility");
              out.push_back(static_cast<std::uint8_t>(*half & 0xff));
              out.push_back(static_cast<std::uint8_t>(*half >> 8));
            } else {
              const std::uint32_t w = insn.raw();
              out.push_back(static_cast<std::uint8_t>(w));
              out.push_back(static_cast<std::uint8_t>(w >> 8));
              out.push_back(static_cast<std::uint8_t>(w >> 16));
              out.push_back(static_cast<std::uint8_t>(w >> 24));
            }
            break;
          }
        }
      }
      pad_to(section_end_[k]);
      st.add_section(std::move(s));
    }

    // Symbols.
    for (const auto& name : label_order_) {
      const LabelDef& def = labels_.at(name);
      symtab::Symbol sym;
      sym.name = name;
      sym.value = label_addr(name, 0);
      sym.bind = def.global || pending_globals_.count(name)
                     ? symtab::STB_GLOBAL
                     : symtab::STB_LOCAL;
      if (def.sec != SecKind::Text)
        sym.type = symtab::STT_OBJECT;
      else if (def.is_func || pending_func_types_.count(name))
        sym.type = symtab::STT_FUNC;
      else
        sym.type = symtab::STT_NOTYPE;  // local code label
      st.add_symbol(std::move(sym));
    }
    // Apply ".size name, .-name" requests.
    for (const auto& req : size_requests_) {
      auto lit = labels_.find(req.name);
      if (lit == labels_.end()) continue;
      const auto& items = items_[static_cast<int>(req.sec)];
      const std::uint64_t end = req.end_index < items.size()
                                    ? items[req.end_index].addr
                                    : section_end_[static_cast<int>(req.sec)];
      for (auto& sym : st.symbols())
        if (sym.name == req.name) sym.size = end - sym.value;
    }

    // Entry point.
    if (const auto* s = st.find_symbol("_start")) st.entry = s->value;
    else if (const auto* m = st.find_symbol("main")) st.entry = m->value;
    else st.entry = opts_.text_base;
    return st;
  }

  Options opts_;
  bool compress_enabled_ = false;
  bool rvc_suppressed_ = false;
  SecKind cur_ = SecKind::Text;
  int line_ = 0;
  std::vector<Item> items_[static_cast<int>(SecKind::kCount)];
  std::uint64_t section_end_[static_cast<int>(SecKind::kCount)] = {};
  std::map<std::string, LabelDef> labels_;
  std::vector<std::string> label_order_;
  std::set<std::string> pending_globals_;
  std::set<std::string> pending_func_types_;
  std::vector<SizeRequest> size_requests_;
};

}  // namespace

symtab::Symtab assemble(const std::string& source, const Options& opts) {
  RVDYN_OBS_SPAN("rvdyn.asm.assemble");
  Assembler as(opts);
  return as.run(source);
}

std::vector<std::uint8_t> assemble_elf(const std::string& source,
                                       const Options& opts) {
  return assemble(source, opts).write();
}

}  // namespace rvdyn::assembler
