#include "parse/classify.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "semantics/eval.hpp"

namespace rvdyn::parse {

namespace {

using semantics::Expr;
using semantics::ExprPtr;
using semantics::Op;

// Substitute register/pc leaves of a semantics template with expressions
// sliced at the defining instruction's position.
ExprPtr substitute(const ExprPtr& e, const ClassifyContext& ctx,
                   const Block* def_block, int def_index,
                   std::uint64_t def_addr, unsigned def_len, int depth);

ExprPtr slice_at(const ClassifyContext& ctx, const Block* block, int index,
                 isa::Reg reg, int depth);

// The unique intra-procedural predecessor of `block`, or nullptr. Computed
// by scanning, since pred lists are only finalized after the parse.
const Block* unique_pred(const Function& f, const Block* block) {
  const Block* found = nullptr;
  for (const auto& [addr, b] : f.blocks()) {
    if (b.get() == block) continue;
    for (const Edge& e : b->succs()) {
      if (e.target != block->start()) continue;
      if (e.type == EdgeType::Call || e.type == EdgeType::TailCall ||
          e.type == EdgeType::Return)
        continue;
      if (found && found != b.get()) return nullptr;
      found = b.get();
    }
    // Implicit fallthrough from a block that ends exactly at our start and
    // has a Fallthrough/NotTaken/CallFallthrough edge is covered above.
  }
  return found;
}

ExprPtr substitute(const ExprPtr& e, const ClassifyContext& ctx,
                   const Block* def_block, int def_index,
                   std::uint64_t def_addr, unsigned def_len, int depth) {
  switch (e->op) {
    case Op::Reg:
      return slice_at(ctx, def_block, def_index, e->reg, depth - 1);
    case Op::Pc:
      return Expr::constant(static_cast<std::int64_t>(def_addr));
    case Op::InsnLen:
      return Expr::constant(static_cast<std::int64_t>(def_len));
    default:
      break;
  }
  if (e->kids.empty()) return e;
  auto out = std::make_shared<Expr>(*e);
  out->kids.clear();
  for (const auto& k : e->kids)
    out->kids.push_back(
        substitute(k, ctx, def_block, def_index, def_addr, def_len, depth));
  return out;
}

// Value of `reg` immediately before instruction `index` of `block`.
ExprPtr slice_at(const ClassifyContext& ctx, const Block* block, int index,
                 isa::Reg reg, int depth) {
  if (reg == isa::zero) return Expr::constant(0);
  if (depth <= 0) return Expr::nullary(Op::Unknown);

  const Block* b = block;
  int i = index;
  while (true) {
    for (int j = i - 1; j >= 0; --j) {
      const ParsedInsn& pi = b->insns()[static_cast<std::size_t>(j)];
      if (!pi.insn.regs_written().contains(reg)) continue;
      const auto sem = semantics::semantics_of(pi.insn);
      if (!sem.precise || !sem.has_reg_write || !(sem.written_reg == reg))
        return Expr::nullary(Op::Unknown);
      return substitute(sem.reg_value, ctx, b, j, pi.addr, pi.insn.length(),
                        depth);
    }
    // No definition in this block: continue through a unique predecessor.
    const Block* pred = ctx.func ? unique_pred(*ctx.func, b) : nullptr;
    if (!pred) return Expr::reg_read(reg);  // live-in leaf
    // A call clobbers caller-saved registers: stop the slice there.
    if (!pred->insns().empty()) {
      const isa::Instruction& term = pred->last().insn;
      const bool is_call =
          (term.is_jal() || term.is_jalr()) && !(term.link_reg() == isa::zero);
      if (is_call && isa::is_caller_saved(reg))
        return Expr::nullary(Op::Unknown);
    }
    b = pred;
    i = static_cast<int>(b->insns().size());
    if (--depth <= 0) return Expr::nullary(Op::Unknown);
  }
}

// Fold every constant subtree in place (returns a Const node when the whole
// expression folds, otherwise a partially-folded copy).
ExprPtr fold(const CodeObject& co, const ExprPtr& e) {
  const semantics::MemReader mem = [&co](std::uint64_t addr,
                                         unsigned size)
      -> std::optional<std::uint64_t> {
    const symtab::Section* s = co.symtab().section_containing(addr);
    if (!s || (s->flags & symtab::SHF_WRITE) || s->type == symtab::SHT_NOBITS)
      return std::nullopt;  // only read-only data is statically known
    return co.symtab().read_addr(addr, size);
  };
  // Try full fold first.
  if (auto v =
          semantics::const_eval(*e, 0, 0, semantics::RegResolver{}, mem))
    return Expr::constant(static_cast<std::int64_t>(*v));
  if (e->kids.empty()) return e;
  auto out = std::make_shared<Expr>(*e);
  out->kids.clear();
  for (const auto& k : e->kids) out->kids.push_back(fold(co, k));
  return out;
}

// Structural equality of two sliced values. Unknown leaves never match:
// two values the slicer could not model need not be the same value.
bool same_value(const ExprPtr& a, const ExprPtr& b) {
  if (a->op != b->op || a->op == Op::Unknown || a->value != b->value ||
      !(a->reg == b->reg) || a->size != b->size ||
      a->sign_extend != b->sign_extend || a->kids.size() != b->kids.size())
    return false;
  for (std::size_t i = 0; i < a->kids.size(); ++i)
    if (!same_value(a->kids[i], b->kids[i])) return false;
  return true;
}

struct TableForm {
  std::uint64_t base = 0;
  unsigned stride = 8;
  unsigned entry_size = 8;
  ExprPtr index;
};

// Flatten an Add chain into non-constant terms plus a constant sum.
void flatten_add(const ExprPtr& e, std::vector<ExprPtr>* terms,
                 std::uint64_t* const_sum) {
  if (e->op == Op::Add) {
    flatten_add(e->kids[0], terms, const_sum);
    flatten_add(e->kids[1], terms, const_sum);
    return;
  }
  if (e->op == Op::Const) {
    *const_sum += static_cast<std::uint64_t>(e->value);
    return;
  }
  terms->push_back(e);
}

// Match addr as Const + (X << k) / Const + X * 2^k, tolerating arbitrary
// Add-chain shapes (the base constant often arrives as auipc + addi + disp).
std::optional<TableForm> match_table_addr(const ExprPtr& addr,
                                          unsigned entry_size) {
  std::vector<ExprPtr> terms;
  std::uint64_t base = 0;
  flatten_add(addr, &terms, &base);
  if (terms.size() != 1) return std::nullopt;
  const ExprPtr& x = terms[0];
  TableForm tf;
  tf.base = base;
  tf.entry_size = entry_size;
  if (x->op == Op::Shl && x->kids[1]->op == Op::Const &&
      x->kids[1]->value >= 0 && x->kids[1]->value <= 4) {
    tf.stride = 1u << x->kids[1]->value;
    tf.index = x->kids[0];
    return tf;
  }
  if (x->op == Op::Mul && x->kids[1]->op == Op::Const &&
      (x->kids[1]->value == 1 || x->kids[1]->value == 2 ||
       x->kids[1]->value == 4 || x->kids[1]->value == 8)) {
    tf.stride = static_cast<unsigned>(x->kids[1]->value);
    tf.index = x->kids[0];
    return tf;
  }
  return std::nullopt;
}

// Search (this block and a short chain of unique predecessors) for an
// unsigned conditional bound check on the table index; returns the entry
// count when found. A branch operand matches when its value sliced at the
// branch equals `index`, so a selector masked or copied into another
// register before the check (`andi t0,a0,7 ... bgeu t0,t1`) still matches.
std::optional<std::uint64_t> find_bound(const ClassifyContext& ctx,
                                        const ExprPtr& index) {
  const Block* b = ctx.block;
  for (int hops = 0; hops < 4 && b; ++hops) {
    // The check is the terminator of a predecessor block.
    const Block* pred = ctx.func ? unique_pred(*ctx.func, b) : nullptr;
    if (!pred || pred->insns().empty()) return std::nullopt;
    const ParsedInsn& term = pred->last();
    const auto mn = term.insn.mnemonic();
    if (mn == isa::Mnemonic::bltu || mn == isa::Mnemonic::bgeu) {
      ClassifyContext pctx = ctx;
      pctx.block = pred;
      pctx.insn_index = static_cast<int>(pred->insns().size()) - 1;
      const isa::Reg rs1 = term.insn.operand(0).reg;
      const isa::Reg rs2 = term.insn.operand(1).reg;
      auto is_index = [&](isa::Reg r) {
        return same_value(fold(*ctx.co, slice_register(pctx, r)), index);
      };
      std::optional<isa::Reg> bound_reg;
      if (is_index(rs1)) {
        bound_reg = rs2;
      } else if (is_index(rs2)) {
        bound_reg = rs1;
      }
      if (bound_reg) {
        const ExprPtr be = slice_register(pctx, *bound_reg);
        if (auto v = fold_constant(*ctx.co, be)) {
          if (*v > 0 && *v <= 1u << 20) return v;
        }
      }
    }
    b = pred;
  }
  return std::nullopt;
}

}  // namespace

const char* branch_kind_name(BranchKind k) {
  switch (k) {
    case BranchKind::Jump: return "jump";
    case BranchKind::Call: return "call";
    case BranchKind::TailCall: return "tail-call";
    case BranchKind::Return: return "return";
    case BranchKind::JumpTable: return "jump-table";
    case BranchKind::Unresolved: return "unresolved";
  }
  return "?";
}

semantics::ExprPtr slice_register(const ClassifyContext& ctx, isa::Reg reg,
                                  int depth_limit) {
  return slice_at(ctx, ctx.block, ctx.insn_index, reg, depth_limit);
}

std::optional<std::uint64_t> fold_constant(const CodeObject& co,
                                           const semantics::ExprPtr& e) {
  const ExprPtr folded = fold(co, e);
  if (folded->op == Op::Const)
    return static_cast<std::uint64_t>(folded->value);
  return std::nullopt;
}

Classification classify_branch(const ClassifyContext& ctx) {
  Classification out;
  const ParsedInsn& pi =
      ctx.block->insns()[static_cast<std::size_t>(ctx.insn_index)];
  const isa::Instruction& insn = pi.insn;
  auto is_entry = [&](std::uint64_t a) {
    return ctx.is_entry ? ctx.is_entry(a) : ctx.co->is_function_entry(a);
  };

  if (insn.is_jal()) {
    const std::uint64_t target =
        pi.addr + static_cast<std::uint64_t>(insn.branch_offset());
    out.target = target;
    if (!(insn.link_reg() == isa::zero)) {
      out.kind = BranchKind::Call;
    } else if (is_entry(target) && target != ctx.func->entry()) {
      out.kind = BranchKind::TailCall;  // plain jump to another function
    } else {
      out.kind = BranchKind::Jump;
    }
    return out;
  }

  // jalr: build target = (rs1 + imm) & ~1 and slice rs1.
  const isa::Reg base = insn.operand(1).reg;
  const std::int64_t disp = insn.operand(2).imm;
  const ExprPtr base_expr = slice_register(ctx, base);
  ExprPtr target_expr =
      disp == 0 ? base_expr
                : Expr::binary(Op::Add, base_expr, Expr::constant(disp));

  if (auto folded = fold_constant(*ctx.co, target_expr)) {
    const std::uint64_t target = *folded & ~1ULL;
    if (!ctx.co->symtab().in_code(target)) {
      out.kind = BranchKind::Unresolved;
      return out;
    }
    out.target = target;
    if (!(insn.link_reg() == isa::zero)) {
      out.kind = BranchKind::Call;
    } else if (is_entry(target) && target != ctx.func->entry()) {
      out.kind = BranchKind::TailCall;
    } else {
      out.kind = BranchKind::Jump;
    }
    return out;
  }

  // Return: jalr x0, 0(ra|t0) whose target could not be folded to a
  // constant. This covers both the leaf case (ra untouched since entry)
  // and the standard epilogue (ra restored from the stack save slot) —
  // in each the register carries the dynamic return address.
  if (insn.link_reg() == isa::zero && disp == 0 && isa::is_link_reg(base)) {
    out.kind = BranchKind::Return;
    return out;
  }
  // Same, with the link value forwarded through a move (`mv t1, ra; jr t1`).
  if (insn.link_reg() == isa::zero && disp == 0 &&
      base_expr->op == Op::Reg && isa::is_link_reg(base_expr->reg)) {
    out.kind = BranchKind::Return;
    return out;
  }

  // Jump-table analysis: target must be a load from base + scaled index.
  const ExprPtr folded = fold(*ctx.co, target_expr);
  if (folded->op == Op::Mem && (folded->size == 8 || folded->size == 4)) {
    const ExprPtr addr = fold(*ctx.co, folded->kids[0]);
    if (auto tf = match_table_addr(addr, folded->size)) {
      const std::optional<std::uint64_t> bound = find_bound(ctx, tf->index);
      const std::uint64_t max_entries =
          bound ? *bound : ctx.max_table_entries;
      std::vector<std::uint64_t> targets;
      for (std::uint64_t i = 0; i < max_entries; ++i) {
        const auto cell =
            ctx.co->symtab().read_addr(tf->base + i * tf->stride,
                                       tf->entry_size);
        if (!cell) break;
        std::uint64_t t = *cell;
        if (tf->entry_size == 4) t = zext(t, 32);
        if (!ctx.co->symtab().in_code(t)) {
          if (bound) {  // a bounded table must be wholly valid
            targets.clear();
          }
          break;
        }
        targets.push_back(t);
      }
      if (!targets.empty()) {
        out.kind = BranchKind::JumpTable;
        out.table_base = tf->base;
        // Deduplicate while preserving order.
        std::vector<std::uint64_t> uniq;
        for (std::uint64_t t : targets)
          if (std::find(uniq.begin(), uniq.end(), t) == uniq.end())
            uniq.push_back(t);
        out.table_targets = std::move(uniq);
        return out;
      }
    }
  }

  // An indirect transfer that links is still a call — just one whose
  // callee is unknown (function pointers, virtual dispatch).
  if (!(insn.link_reg() == isa::zero)) {
    out.kind = BranchKind::Call;
    return out;
  }

  out.kind = BranchKind::Unresolved;
  return out;
}

bool is_noreturn_ecall(const ClassifyContext& ctx) {
  // exit (93) and exit_group (94) never return: slice a7 at the ecall.
  const ExprPtr a7 = slice_register(ctx, isa::a7);
  if (auto v = fold_constant(*ctx.co, a7)) return *v == 93 || *v == 94;
  return false;
}

}  // namespace rvdyn::parse
