// The traversal parser: builds each function's CFG by following control
// flow from its entry, splitting blocks at join points, classifying
// jal/jalr transfers, and discovering new functions from call/tail-call
// targets. Functions parse independently, so the traversal fans across
// worker threads (the paper's "fast parallel algorithm").
//
// Parallel structure (see docs/parallel_parse.md):
//  * One mutex guards a LIFO queue of functions to parse and the
//    CodeObject's function map. register_function dedups and creates each
//    Function under that mutex, so every entry is queued exactly once.
//  * A worker leaves when the queue is empty and no worker is busy (only
//    a busy worker can still discover new functions).
//  * The classify-time "is this a function entry" oracle answers from the
//    seed set (symbols + ELF entry), frozen before traversal starts, so
//    every CFG is a pure function of the binary regardless of the worker
//    count or scheduling order. Jumps to functions discovered *during*
//    traversal are reclassified as tail calls in a deterministic finalize
//    pass against the complete entry set.
//  * The gap scan and the finalize pass fan across the same workers.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/workers.hpp"
#include "isa/decoder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parse/classify.hpp"

namespace rvdyn::parse {

namespace {

using isa::Instruction;

class Parser {
 public:
  Parser(CodeObject& co, const symtab::Symtab& st, const ParseOptions& opts,
         std::map<std::uint64_t, std::unique_ptr<Function>>& funcs)
      : co_(co), st_(st), opts_(opts), funcs_(funcs),
        decoder_(st.extensions().has(isa::Extension::I)
                     ? st.extensions()
                     : isa::ExtensionSet::rv64gc()) {}

  void run() {
    RVDYN_OBS_SPAN("rvdyn.parse");
    {
      RVDYN_OBS_SPAN("rvdyn.parse.traversal");
      RVDYN_OBS_TIMER("rvdyn.parse.traversal_ns");
      seed_entries();
      drain_all();
    }
    if (opts_.gap_parsing) {
      RVDYN_OBS_SPAN("rvdyn.parse.gaps");
      RVDYN_OBS_TIMER("rvdyn.parse.gaps_ns");
      parse_gaps();
    }
    {
      RVDYN_OBS_SPAN("rvdyn.parse.finalize");
      RVDYN_OBS_TIMER("rvdyn.parse.finalize_ns");
      finalize_functions();
    }
    publish_totals();
  }

 private:
  unsigned worker_count() const {
    return opts_.num_threads < 1 ? 1 : opts_.num_threads;
  }

  /// Run the worker loop on every worker until all queued parse work
  /// (including work discovered while parsing) is done. Called only while
  /// no worker runs, so the queue needs no lock here.
  void drain_all() {
    if (queue_.empty()) return;
    run_on_workers(worker_count(), [this](unsigned w) {
      if (w == 0) {
        run_worker(0, decoder_);
      } else {
        // One decoder per worker: the profile is copied once and every
        // decode in this thread goes through the same instance.
        const isa::Decoder dec(decoder_.profile());
        run_worker(w, dec);
      }
    });
  }

  /// Lock the queue mutex, counting a failed first try as contention.
  std::unique_lock<std::mutex> lock_queue() {
    std::unique_lock lock(mu_, std::try_to_lock);
    if (!lock.owns_lock()) {
      contended_.fetch_add(1, std::memory_order_relaxed);
      lock.lock();
    }
    return lock;
  }

  // Pop and parse functions until the queue is empty and no worker is busy.
  // Publishes per-worker function and block counts so load imbalance
  // across the workers shows up in metrics.
  void run_worker(unsigned widx, const isa::Decoder& dec) {
    std::uint64_t n_funcs = 0, n_blocks = 0, idle_ns = 0;
    std::unique_lock lock = lock_queue();
    for (;;) {
      if (!queue_.empty()) {
        Function* f = queue_.back();
        queue_.pop_back();
        ++busy_;
        lock.unlock();
        n_blocks += parse_function(dec, f);
        ++n_funcs;
        lock = lock_queue();
        if (--busy_ == 0 && queue_.empty()) cv_.notify_all();
        continue;
      }
      if (busy_ == 0) break;
      const auto t0 = std::chrono::steady_clock::now();
      cv_.wait(lock);
      idle_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
    }
    lock.unlock();
    idle_ns_.fetch_add(idle_ns, std::memory_order_relaxed);
    if (n_funcs) {
      const std::string prefix = "rvdyn.parse.worker." + std::to_string(widx);
      obs::Counter(prefix + ".funcs").add(n_funcs);
      obs::Counter(prefix + ".blocks").add(n_blocks);
    }
  }

  void publish_totals() const {
    std::uint64_t blocks = 0, insns = 0, unresolved = 0;
    for (const auto& [a, f] : funcs_) {
      blocks += f->stats().n_blocks;
      insns += f->stats().n_insns;
      unresolved += f->stats().n_unresolved;
    }
    RVDYN_OBS_COUNT_N("rvdyn.parse.functions", funcs_.size());
    RVDYN_OBS_COUNT_N("rvdyn.parse.blocks", blocks);
    RVDYN_OBS_COUNT_N("rvdyn.parse.insns", insns);
    RVDYN_OBS_COUNT_N("rvdyn.parse.unresolved", unresolved);
    // Queue health: contention is a busy queue mutex on first try; idle
    // time is workers waiting on the condvar with nothing to pop.
    RVDYN_OBS_COUNT_N("rvdyn.parse.sched.contended",
                      contended_.load(std::memory_order_relaxed));
    RVDYN_OBS_COUNT_N("rvdyn.parse.sched.idle_ns",
                      idle_ns_.load(std::memory_order_relaxed));
  }

  void seed_entries() {
    // Address → symbol-name index, so anonymous call targets resolve their
    // name with one hash probe instead of an O(|symbols|) rescan per
    // registration.
    for (const symtab::Symbol& sym : st_.symbols())
      if (sym.is_function() && !sym.name.empty())
        name_by_addr_.emplace(sym.value, &sym.name);

    // The seed set is the classify-time entry oracle. It is complete
    // before any worker starts and never changes afterwards, which keeps
    // jump-vs-tail-call decisions independent of parse order.
    for (const symtab::Symbol* sym : st_.function_symbols())
      if (st_.in_code(sym->value)) seeds_.insert(sym->value);
    if (st_.entry && st_.in_code(st_.entry)) seeds_.insert(st_.entry);

    for (const symtab::Symbol* sym : st_.function_symbols())
      if (st_.in_code(sym->value)) register_function(sym->value, sym->name);
    if (st_.entry && st_.in_code(st_.entry)) register_function(st_.entry, "");
  }

  bool is_seed_entry(std::uint64_t a) const { return seeds_.count(a) != 0; }

  std::string function_name(std::uint64_t entry,
                            const std::string& name) const {
    if (!name.empty()) return name;
    const auto it = name_by_addr_.find(entry);
    if (it != name_by_addr_.end()) return *it->second;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "func_%llx",
                  static_cast<unsigned long long>(entry));
    return buf;
  }

  // Create the Function object for `entry` (unless already registered, by
  // this parse or an earlier one) and queue it for parsing.
  void register_function(std::uint64_t entry, const std::string& name) {
    {
      std::unique_lock lock = lock_queue();
      auto [it, inserted] = funcs_.try_emplace(entry);
      if (!inserted) {
        lock.unlock();
        RVDYN_OBS_COUNT("rvdyn.parse.registry.dedup_hits");
        return;
      }
      it->second = std::make_unique<Function>(entry, function_name(entry, name));
      queue_.push_back(it->second.get());
    }
    cv_.notify_one();
    RVDYN_OBS_COUNT("rvdyn.parse.registry.creates");
  }

  // Fetch the raw bytes backing [addr, ...) from the code section.
  const std::uint8_t* code_at(std::uint64_t addr, std::size_t* avail) const {
    const symtab::Section* s = st_.section_containing(addr);
    if (!s || !s->is_code() || s->type == symtab::SHT_NOBITS) return nullptr;
    const std::size_t off = addr - s->addr;
    if (off >= s->data.size()) return nullptr;
    *avail = s->data.size() - off;
    return s->data.data() + off;
  }

  // Returns the number of blocks parsed into `f`.
  std::uint64_t parse_function(const isa::Decoder& dec, Function* f) {
    FunctionStats& stats = f->mutable_stats();
    std::deque<std::uint64_t> work{f->entry()};
    // Intra-function targets already queued: dense branch fan-in would
    // otherwise re-push the same join point once per incoming edge.
    std::unordered_set<std::uint64_t> seen{f->entry()};
    while (!work.empty()) {
      const std::uint64_t start = work.front();
      work.pop_front();
      if (Block* existing = f->block_containing(start)) {
        if (existing->start() == start) continue;
        split_block(dec, f, existing, start);
        continue;
      }
      Block* b = f->add_block(start);
      parse_block(dec, f, b, &work, &seen, &stats);
    }

    stats.n_blocks = static_cast<unsigned>(f->blocks().size());
    stats.n_insns = 0;
    for (const auto& [a, blk] : f->blocks())
      stats.n_insns += static_cast<unsigned>(blk->insns().size());
    return stats.n_blocks;
  }

  // Split `b` at `at` (which must be an instruction boundary inside b);
  // the suffix becomes a new block inheriting b's out-edges.
  void split_block(const isa::Decoder& dec, Function* f, Block* b,
                   std::uint64_t at) {
    auto& insns = b->mutable_insns();
    std::size_t idx = 0;
    while (idx < insns.size() && insns[idx].addr != at) ++idx;
    if (idx == insns.size()) {
      // `at` is inside an instruction (overlapping code). Parse it as an
      // independent overlapping block rather than splitting.
      Block* nb = f->add_block(at);
      std::deque<std::uint64_t> local;
      std::unordered_set<std::uint64_t> lseen;
      parse_block(dec, f, nb, &local, &lseen, &f->mutable_stats());
      for (std::uint64_t t : local)
        if (!f->block_containing(t)) {
          Block* tb = f->add_block(t);
          std::deque<std::uint64_t> l2;
          std::unordered_set<std::uint64_t> l2seen;
          parse_block(dec, f, tb, &l2, &l2seen, &f->mutable_stats());
        }
      return;
    }
    Block* nb = f->add_block(at);
    nb->mutable_insns().assign(insns.begin() + static_cast<long>(idx),
                               insns.end());
    insns.erase(insns.begin() + static_cast<long>(idx), insns.end());
    for (const Edge& e : b->succs()) nb->add_succ(e);
    b->clear_succs();
    b->add_succ({EdgeType::Fallthrough, at});
  }

  void parse_block(const isa::Decoder& dec, Function* f, Block* b,
                   std::deque<std::uint64_t>* work,
                   std::unordered_set<std::uint64_t>* seen,
                   FunctionStats* stats) {
    const std::uint64_t start = b->start();
    std::size_t avail = 0;
    const std::uint8_t* bytes = code_at(start, &avail);
    bool closed = false;  // the block got its successor edges
    std::size_t consumed = 0;
    if (bytes) {
      // Batch-decode the straight-line run; the callback closes the block
      // at join points and control transfers.
      consumed = dec.decode_range(
          bytes, avail,
          [&](std::size_t off, const Instruction& insn, unsigned len) {
            const std::uint64_t cur = start + off;
            // Stop at the boundary of an already-known block (join point).
            if (cur != start && f->block_at(cur)) {
              b->add_succ({EdgeType::Fallthrough, cur});
              closed = true;
              return false;
            }
            b->mutable_insns().push_back({cur, insn});
            const std::uint64_t next = cur + len;

            if (insn.is_cond_branch()) {
              const std::uint64_t taken =
                  cur + static_cast<std::uint64_t>(insn.branch_offset());
              b->add_succ({EdgeType::Taken, taken});
              b->add_succ({EdgeType::NotTaken, next});
              push_target(f, work, seen, taken);
              push_target(f, work, seen, next);
              closed = true;
              return false;
            }
            if (insn.is_jal() || insn.is_jalr()) {
              handle_unconditional(f, b, work, seen, stats, next);
              closed = true;
              return false;
            }
            if (insn.has_flag(isa::F_ECALL)) {
              ClassifyContext ctx;
              ctx.co = &co_;
              ctx.func = f;
              ctx.block = b;
              ctx.insn_index = static_cast<int>(b->insns().size()) - 1;
              if (is_noreturn_ecall(ctx)) {
                b->add_succ({EdgeType::Return, 0});  // process exit
                closed = true;
                return false;
              }
            }
            return true;
          });
    }
    if (!closed) {
      // Decoding stopped between instructions: either we ran into a known
      // block whose own bytes don't decode, or the bytes are undecodable.
      const std::uint64_t cur = start + consumed;
      if (cur != start && f->block_at(cur)) {
        b->add_succ({EdgeType::Fallthrough, cur});
      } else {
        b->add_succ({EdgeType::Unresolved, 0});
        ++stats->n_unresolved;
      }
    }
  }

  void handle_unconditional(Function* f, Block* b,
                            std::deque<std::uint64_t>* work,
                            std::unordered_set<std::uint64_t>* seen,
                            FunctionStats* stats, std::uint64_t next) {
    ClassifyContext ctx;
    ctx.co = &co_;
    ctx.func = f;
    ctx.block = b;
    ctx.insn_index = static_cast<int>(b->insns().size()) - 1;
    ctx.max_table_entries = opts_.max_jump_table_entries;
    // The oracle is the pre-traversal seed set: immutable, so the answer —
    // and therefore the CFG — cannot depend on what other workers have
    // discovered so far. Jumps to entries discovered during traversal are
    // promoted to tail calls in finalize_functions().
    ctx.is_entry = [this](std::uint64_t a) { return is_seed_entry(a); };

    const Classification c = classify_branch(ctx);
    switch (c.kind) {
      case BranchKind::Jump:
        b->add_succ({EdgeType::Jump, *c.target});
        push_target(f, work, seen, *c.target);
        break;
      case BranchKind::Call:
        ++stats->n_calls;
        if (c.target) {
          b->add_succ({EdgeType::Call, *c.target});
          f->add_callee(*c.target);
          register_function(*c.target, "");
        }
        b->add_succ({EdgeType::CallFallthrough, next});
        push_target(f, work, seen, next);
        break;
      case BranchKind::TailCall:
        ++stats->n_tail_calls;
        b->add_succ({EdgeType::TailCall, *c.target});
        f->add_callee(*c.target);
        register_function(*c.target, "");
        break;
      case BranchKind::Return:
        ++stats->n_returns;
        b->add_succ({EdgeType::Return, 0});
        break;
      case BranchKind::JumpTable:
        ++stats->n_jump_tables;
        for (std::uint64_t t : c.table_targets) {
          b->add_succ({EdgeType::IndirectJump, t});
          push_target(f, work, seen, t);
        }
        break;
      case BranchKind::Unresolved:
        ++stats->n_unresolved;
        b->add_succ({EdgeType::Unresolved, 0});
        break;
    }
  }

  void push_target(Function* f, std::deque<std::uint64_t>* work,
                   std::unordered_set<std::uint64_t>* seen,
                   std::uint64_t target) {
    if (!st_.in_code(target)) return;
    if (!seen->insert(target).second) return;  // already queued or parsed
    if (Block* existing = f->block_containing(target)) {
      if (existing->start() == target) return;
    }
    work->push_back(target);
  }

  // Gap parsing (paper §2.1): scan byte ranges of code sections not claimed
  // by any parsed function for plausible function prologues and parse them
  // speculatively. Ranges are computed once from the traversal result, then
  // scanned across the workers; discovered entries drain through the same
  // queue.
  void parse_gaps() {
    // Collect claimed ranges.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> claimed;
    for (const auto& [entry, f] : funcs_)
      for (const auto& [a, b] : f->blocks())
        claimed.emplace_back(b->start(), b->end());
    std::sort(claimed.begin(), claimed.end());

    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
    for (const auto& sec : st_.sections()) {
      if (!sec.is_code() || sec.type == symtab::SHT_NOBITS) continue;
      std::uint64_t pos = sec.addr;
      const std::uint64_t end = sec.addr + sec.data.size();
      std::size_t ci = 0;
      while (pos < end) {
        while (ci < claimed.size() && claimed[ci].second <= pos) ++ci;
        if (ci < claimed.size() && claimed[ci].first <= pos) {
          pos = claimed[ci].second;
          continue;
        }
        const std::uint64_t gap_end =
            ci < claimed.size() ? std::min(end, claimed[ci].first) : end;
        RVDYN_OBS_COUNT("rvdyn.parse.gap_ranges");
        ranges.emplace_back(pos, gap_end);
        pos = gap_end;
      }
    }
    if (ranges.empty()) return;

    // Each range is independent (one speculative entry per gap), so the
    // scan fans across the workers; per-worker decoders as in traversal.
    std::atomic<std::size_t> next{0};
    run_on_workers(worker_count(), [&](unsigned w) {
      std::optional<isa::Decoder> local;
      const isa::Decoder* dec = &decoder_;
      if (w != 0) {
        local.emplace(decoder_.profile());
        dec = &*local;
      }
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= ranges.size()) break;
        scan_gap(*dec, ranges[i].first, ranges[i].second);
      }
    });

    // New functions found in gaps still need parsing.
    drain_all();
  }

  // Heuristic prologue match at the start of a gap range: a stack
  // adjustment (addi sp, sp, -N / c.addi16sp) opens most functions.
  void scan_gap(const isa::Decoder& dec, std::uint64_t from,
                std::uint64_t to) {
    for (std::uint64_t a = (from + 1) & ~1ULL; a + 2 <= to;) {
      std::size_t avail = 0;
      const std::uint8_t* bytes = code_at(a, &avail);
      if (!bytes) return;
      std::uint64_t found = 0;
      const std::size_t consumed = dec.decode_range(
          bytes, avail,
          [&](std::size_t off, const Instruction& insn, unsigned) {
            if (a + off + 2 > to) return false;  // past the gap
            if (insn.mnemonic() == isa::Mnemonic::addi &&
                insn.operand(0).reg == isa::sp &&
                insn.operand(1).reg == isa::sp && insn.operand(2).imm < 0) {
              found = a + off;
              return false;
            }
            return true;
          });
      if (found) {
        RVDYN_OBS_COUNT("rvdyn.parse.gap_functions");
        register_function(found, "");
        return;  // one speculative entry per gap; its parse claims the rest
      }
      // decode_range stopped at an undecodable parcel: resync past it.
      a += consumed + 2;
    }
  }

  // Deterministic post-pass over the complete entry set: promote Jump
  // edges whose target is a (possibly traversal- or gap-discovered)
  // function entry to TailCall edges, drop the speculatively-parsed blocks
  // that the jump dragged into this function, and rebuild pred lists.
  // Independent per function, so it fans across the workers.
  void finalize_functions() {
    std::vector<Function*> all;
    all.reserve(funcs_.size());
    for (auto& [a, f] : funcs_) all.push_back(f.get());

    constexpr std::size_t kBatch = 64;
    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> flipped_total{0}, pruned_total{0};
    run_on_workers(worker_count(), [&](unsigned) {
      std::uint64_t flipped = 0, pruned = 0;
      for (;;) {
        const std::size_t base =
            next.fetch_add(kBatch, std::memory_order_relaxed);
        if (base >= all.size()) break;
        const std::size_t end = std::min(all.size(), base + kBatch);
        for (std::size_t i = base; i < end; ++i) {
          const auto [nf, np] = fixup_tail_calls(all[i]);
          flipped += nf;
          pruned += np;
          all[i]->rebuild_preds();
        }
      }
      flipped_total.fetch_add(flipped, std::memory_order_relaxed);
      pruned_total.fetch_add(pruned, std::memory_order_relaxed);
    });
    RVDYN_OBS_COUNT_N("rvdyn.parse.tailcall_fixups",
                      flipped_total.load(std::memory_order_relaxed));
    RVDYN_OBS_COUNT_N("rvdyn.parse.pruned_blocks",
                      pruned_total.load(std::memory_order_relaxed));
  }

  std::pair<std::uint64_t, std::uint64_t> fixup_tail_calls(Function* f) {
    std::uint64_t flipped = 0;
    for (auto& [a, b] : f->mutable_blocks()) {
      for (Edge& e : b->mutable_succs()) {
        if (e.type != EdgeType::Jump) continue;
        if (e.target == f->entry()) continue;
        if (!funcs_.count(e.target)) continue;
        e.type = EdgeType::TailCall;
        f->add_callee(e.target);
        ++f->mutable_stats().n_tail_calls;
        ++flipped;
      }
    }
    if (!flipped) return {0, 0};
    const std::uint64_t pruned = f->prune_unreachable_blocks();
    FunctionStats& stats = f->mutable_stats();
    stats.n_blocks = static_cast<unsigned>(f->blocks().size());
    stats.n_insns = 0;
    for (const auto& [a, blk] : f->blocks())
      stats.n_insns += static_cast<unsigned>(blk->insns().size());
    return {flipped, pruned};
  }

  CodeObject& co_;
  const symtab::Symtab& st_;
  ParseOptions opts_;
  /// The CodeObject's function map; written only under mu_ while workers
  /// run, read freely between phases.
  std::map<std::uint64_t, std::unique_ptr<Function>>& funcs_;
  isa::Decoder decoder_;
  std::unordered_set<std::uint64_t> seeds_;  ///< frozen before traversal
  std::unordered_map<std::uint64_t, const std::string*> name_by_addr_;

  std::mutex mu_;                 ///< guards queue_, busy_ and funcs_
  std::condition_variable cv_;    ///< signals new work or completion
  std::vector<Function*> queue_;  ///< LIFO of registered, unparsed functions
  unsigned busy_ = 0;             ///< workers inside parse_function
  std::atomic<std::uint64_t> contended_{0};  ///< try_lock failures on mu_
  std::atomic<std::uint64_t> idle_ns_{0};    ///< time in cv_.wait
};

}  // namespace

const char* edge_type_name(EdgeType t) {
  switch (t) {
    case EdgeType::Fallthrough: return "fallthrough";
    case EdgeType::Taken: return "taken";
    case EdgeType::NotTaken: return "not-taken";
    case EdgeType::Jump: return "jump";
    case EdgeType::IndirectJump: return "indirect";
    case EdgeType::Call: return "call";
    case EdgeType::CallFallthrough: return "call-fallthrough";
    case EdgeType::TailCall: return "tail-call";
    case EdgeType::Return: return "return";
    case EdgeType::Unresolved: return "unresolved";
  }
  return "?";
}

void Function::rebuild_preds() {
  for (auto& [a, b] : blocks_) b->clear_preds();
  for (auto& [a, b] : blocks_) {
    for (const Edge& e : b->succs()) {
      if (e.type == EdgeType::Call || e.type == EdgeType::TailCall ||
          e.type == EdgeType::Return || e.type == EdgeType::Unresolved)
        continue;
      if (Block* t = block_at(e.target)) t->add_pred(b.get());
    }
  }
}

std::size_t Function::prune_unreachable_blocks() {
  Block* eb = block_at(entry_);
  if (!eb) return 0;
  std::set<std::uint64_t> reach{entry_};
  std::vector<Block*> stack{eb};
  while (!stack.empty()) {
    Block* b = stack.back();
    stack.pop_back();
    for (const Edge& e : b->succs()) {
      if (e.type == EdgeType::Call || e.type == EdgeType::TailCall ||
          e.type == EdgeType::Return || e.type == EdgeType::Unresolved)
        continue;
      if (!reach.insert(e.target).second) continue;
      if (Block* t = block_at(e.target)) stack.push_back(t);
    }
  }
  std::size_t pruned = 0;
  for (auto it = blocks_.begin(); it != blocks_.end();) {
    if (reach.count(it->first)) {
      ++it;
    } else {
      it = blocks_.erase(it);
      ++pruned;
    }
  }
  return pruned;
}

FunctionStats CodeObject::total_stats() const {
  FunctionStats total;
  for (const auto& [a, f] : funcs_) {
    const FunctionStats& s = f->stats();
    total.n_blocks += s.n_blocks;
    total.n_insns += s.n_insns;
    total.n_calls += s.n_calls;
    total.n_tail_calls += s.n_tail_calls;
    total.n_returns += s.n_returns;
    total.n_jump_tables += s.n_jump_tables;
    total.n_unresolved += s.n_unresolved;
  }
  return total;
}

void CodeObject::rebuild_addr_index() {
  // Insert every block interval in ascending function-entry order, clipping
  // against ranges already claimed, so an address shared by two functions
  // resolves to the lower-entry one — exactly what the old per-lookup scan
  // over functions() returned. Keyed map: start -> (end, func).
  std::map<std::uint64_t, std::pair<std::uint64_t, Function*>> covered;
  for (const auto& [entry, f] : funcs_) {
    for (const auto& [bstart, blk] : f->blocks()) {
      std::uint64_t s = blk->start();
      const std::uint64_t e = blk->end();
      while (s < e) {
        auto it = covered.upper_bound(s);
        if (it != covered.begin()) {
          auto prev = std::prev(it);
          if (prev->second.first > s) {
            s = prev->second.first;  // already claimed; skip past it
            continue;
          }
        }
        const std::uint64_t lim =
            (it == covered.end()) ? e : std::min(e, it->first);
        if (s < lim) covered.emplace(s, std::make_pair(lim, f.get()));
        s = lim;
      }
    }
  }
  addr_index_.clear();
  addr_index_.reserve(covered.size());
  for (const auto& [s, rest] : covered) {
    // Merge segments that touch and belong to the same function.
    if (!addr_index_.empty() && addr_index_.back().end == s &&
        addr_index_.back().func == rest.second) {
      addr_index_.back().end = rest.first;
    } else {
      addr_index_.push_back(AddrSegment{s, rest.first, rest.second});
    }
  }
  addr_index_built_ = true;
}

Function* CodeObject::function_containing(std::uint64_t a) const {
  if (addr_index_built_) {
    auto it = std::upper_bound(
        addr_index_.begin(), addr_index_.end(), a,
        [](std::uint64_t v, const AddrSegment& s) { return v < s.start; });
    if (it == addr_index_.begin()) return nullptr;
    --it;
    return a < it->end ? it->func : nullptr;
  }
  for (const auto& [entry, f] : funcs_)
    if (f->block_containing(a)) return f.get();
  return nullptr;
}

std::string CodeObject::symbolize(std::uint64_t a) const {
  char buf[32];
  if (const Function* f = function_containing(a)) {
    if (a == f->entry()) return f->name();
    std::snprintf(buf, sizeof(buf), "+0x%llx",
                  static_cast<unsigned long long>(a - f->entry()));
    return f->name() + buf;
  }
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(a));
  return buf;
}

void CodeObject::parse(const ParseOptions& opts) {
  Parser parser(*this, symtab_, opts, funcs_);
  parser.run();
  rebuild_addr_index();
}

}  // namespace rvdyn::parse
