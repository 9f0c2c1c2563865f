// `rewrite`: static binary rewriting of a seeded many-function corpus, the
// tool-latency path of the paper's Figure 2. One op takes one generated ELF
// image through Symtab::read -> BinaryEditor (parallel parse) -> dataflow
// (Summaries, then Liveness, Slicer and StackHeightAnalysis per function)
// -> a block-entry counter in every function -> commit -> Symtab::write.
//
// Check (untimed): the written image is read back and run beside the
// original. The exit codes must match, and the counter must equal the
// number of block entries the emulator's pc_profile counted in the
// original run, at the block starts of an independent parse.
#include <algorithm>
#include <cstdio>

#include "codegen/snippet.hpp"
#include "corpus.hpp"
#include "dataflow/liveness.hpp"
#include "dataflow/slicing.hpp"
#include "dataflow/stack_height.hpp"
#include "dataflow/summaries.hpp"
#include "patch/editor.hpp"
#include "proccontrol/process.hpp"
#include "rng.hpp"
#include "workload.hpp"

namespace rvdyn_bench {

using namespace rvdyn;

namespace {

constexpr int kCorpusSize = 5;

struct Binary {
  std::vector<std::uint8_t> image;
  int exit_code = 0;
  std::uint64_t block_entries = 0;  ///< reference counter value
  std::uint64_t text_bytes = 0;
  std::uint64_t text_end = 0;
  std::uint64_t patch_text_bytes = 0;  ///< set by the first op on it
};

class Rewrite final : public Workload {
 public:
  Rewrite(const Options& opts, Tracer& tr) : opts_(opts) {
    const auto sizes = corpus_sizes(kCorpusSize);
    for (int k = 0; k < kCorpusSize; ++k) {
      Binary b;
      {
        auto s = tr.scope("assembler.assemble");
        b.image = assemble_program(generate_program(derive(opts.seed, k), sizes[k]));
      }
      reference_run(b);
      corpus_.push_back(std::move(b));
    }
    // One seeded op order, used by every round.
    Rng rng(derive(opts.seed, 1000));
    for (int k = 0; k < kCorpusSize; ++k) order_.push_back(k);
    for (int k = kCorpusSize - 1; k > 0; --k)
      std::swap(order_[k], order_[rng.range(0, k)]);
  }

  double round_seconds() const override { return 4.5; }
  std::size_t round_size() const override { return corpus_.size(); }

  Names names() const override {
    return {"rewrite_ms", 1.0, "rewrite_funcs_per_s", 1.0, "code_growth_pct"};
  }

  OpResult run_op(std::size_t i, Tracer& tr) override {
    Binary& b = corpus_[order_[i % order_.size()]];
    OpResult r;
    if (tr.on()) reg_.begin();
    const std::int64_t t0 = now_ns();
    std::vector<std::uint8_t> written;
    std::unique_ptr<patch::BinaryEditor> ed;
    std::uint64_t counter_addr = 0;
    {
      auto op = tr.scope("bench.op");
      symtab::Symtab bin;
      {
        auto s = tr.scope("symtab.read");
        bin = symtab::Symtab::read(b.image);
      }
      {
        auto s = tr.scope("parse.parse");
        parse::ParseOptions popts;
        popts.num_threads = 4;
        ed = std::make_unique<patch::BinaryEditor>(std::move(bin), popts);
      }
      if (tr.on())
        add_gauges(acc_, {"rvdyn.parse.traversal_ns", "rvdyn.parse.finalize_ns",
                          "rvdyn.parse.gaps_ns"});
      analyse(ed->code(), tr);
      {
        auto s = tr.scope("patch.insert");
        const std::uint64_t base = patch_text_base(b.text_end);
        ed->set_patch_base(base, base + kPatchDataOffset);
        const auto c = ed->alloc_var("bbcount", 8, opts_.corrupt_counters ? 1 : 0);
        counter_addr = c.addr;
        for (const auto& [entry, f] : ed->code().functions())
          ed->insert_at(entry, patch::PointType::BlockEntry, codegen::increment(c));
      }
      symtab::Symtab out;
      {
        auto s = tr.scope("patch.commit");
        out = ed->commit();
      }
      if (tr.on())
        add_gauges(acc_, {"rvdyn.patch.pass.lower.ns", "rvdyn.patch.pass.weave.ns",
                          "rvdyn.patch.pass.rvc.ns", "rvdyn.patch.pass.relax.ns",
                          "rvdyn.patch.pass.emit.ns", "rvdyn.patch.text_bytes_before_rvc",
                          "rvdyn.patch.text_bytes"});
      {
        auto s = tr.scope("symtab.write");
        written = out.write();
      }
    }
    r.ms = static_cast<double>(now_ns() - t0) / 1e6;
    if (tr.on()) reg_.end();
    r.work = static_cast<double>(ed->code().functions().size());
    if (ed->plan() != nullptr) b.patch_text_bytes = ed->plan()->text.bytes.size();
    r.ok = check(b, written, counter_addr);
    return r;
  }

  double overhead_pct() const override {
    double orig = 0, patch_area = 0;
    for (const Binary& b : corpus_) {
      orig += static_cast<double>(b.text_bytes);
      patch_area += static_cast<double>(b.patch_text_bytes);
    }
    return orig == 0 ? 0 : 100.0 * patch_area / orig;
  }

  void traced_metrics(Tracer&, std::size_t, Metrics& out) override {
    for (const auto& [k, v] : reg_.totals()) out[k] += v;
    for (const auto& [k, v] : acc_) out[k] += v;
  }

 private:
  static void analyse(const parse::CodeObject& co, Tracer& tr) {
    std::unique_ptr<dataflow::Summaries> sums;
    {
      auto s = tr.scope("dataflow.summaries");
      sums = std::make_unique<dataflow::Summaries>(co);
    }
    for (const auto& [entry, f] : co.functions()) {
      {
        auto s = tr.scope("dataflow.liveness");
        const dataflow::Liveness live(*f, sums.get());
        for (const auto& [addr, blk] : f->blocks()) (void)live.dead_before(blk.get(), 0);
      }
      {
        auto s = tr.scope("dataflow.slicing");
        const dataflow::Slicer slicer(*f);
      }
      {
        auto s = tr.scope("dataflow.stack_height");
        const dataflow::StackHeightAnalysis sh(*f);
      }
    }
  }

  static void reference_run(Binary& b) {
    const auto bin = symtab::Symtab::read(b.image);
    for (const auto& sec : bin.sections())
      if (sec.is_code()) {
        b.text_bytes += sec.data.size();
        b.text_end = std::max(b.text_end, sec.addr + sec.data.size());
      }
    parse::CodeObject co(bin);
    co.parse();
    auto proc = proccontrol::Process::launch(bin);
    proc->enable_pc_profile(true);
    const auto ev = proc->continue_run();
    if (ev.kind != proccontrol::Event::Kind::Exited)
      throw std::runtime_error("corpus program did not run to exit");
    b.exit_code = ev.exit_code;
    const auto& prof = proc->pc_profile();
    for (const auto& [entry, f] : co.functions())
      for (const auto& [addr, blk] : f->blocks()) {
        const auto it = prof.find(addr);
        if (it != prof.end()) b.block_entries += it->second.hits;
      }
  }

  static bool check(const Binary& b, const std::vector<std::uint8_t>& written,
                    std::uint64_t counter_addr) {
    const auto bin = symtab::Symtab::read(written);
    auto proc = proccontrol::Process::launch(bin);
    if (const auto* traps = bin.find_section(".rvdyn.traps"))
      proc->install_trap_table(patch::BinaryEditor::parse_trap_section(traps->data));
    const auto ev = proc->continue_run();
    const std::uint64_t counter = proc->read_mem(counter_addr, 8);
    const bool ok = ev.kind == proccontrol::Event::Kind::Exited &&
                    ev.exit_code == b.exit_code && counter == b.block_entries;
    if (!ok)
      std::fprintf(stderr,
                   "rewrite check failed: exit %d (want %d), counter %llu "
                   "(want %llu)\n",
                   ev.exit_code, b.exit_code,
                   static_cast<unsigned long long>(counter),
                   static_cast<unsigned long long>(b.block_entries));
    return ok;
  }

  Options opts_;
  std::vector<Binary> corpus_;
  std::vector<int> order_;
  RegistryWindow reg_;
  Metrics acc_;
};

}  // namespace

std::unique_ptr<Workload> make_rewrite(const Options& opts, Tracer& tr) {
  return std::make_unique<Rewrite>(opts, tr);
}

}  // namespace rvdyn_bench
