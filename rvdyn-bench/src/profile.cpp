// `profile`: dynamic create-and-instrument (the paper's Figure 1b) of the
// paper's 100x100 matmul plus sort, fib, dispatch and call_churn. One op:
// Process::launch -> BinaryEditor -> one block-entry counter per function
// -> commit_to(the live process) -> an obs::Sampler at a seeded prime
// interval near 2^14 -> continue_run to exit with the JIT on. Each op is a
// fresh process, so it pays JIT compilation again, as a user does.
//
// Checks (untimed): the exit code equals the uninstrumented run's; every
// function's counter equals the block entries the emulator's pc_profile
// counted in the uninstrumented run; matmul's counter reads 2,040,403 per
// call (the paper's T1 figure); the folded stacks of every run of a program are
// byte-identical. The traced window replaces obs::Sampler by the
// benchmark's own sample hook (StackWalker::walk, CodeObject::symbolize
// and FoldedStacks::add, each in a span); its folded output must equal
// obs::Sampler's byte for byte.
#include <cstdio>

#include "assembler/assembler.hpp"
#include "codegen/snippet.hpp"
#include "obs/flamegraph.hpp"
#include "obs/sampler.hpp"
#include "patch/editor.hpp"
#include "proccontrol/process.hpp"
#include "rng.hpp"
#include "stackwalk/stackwalker.hpp"
#include "workload.hpp"
#include "workloads/workloads.hpp"

namespace rvdyn_bench {

using namespace rvdyn;

namespace {

constexpr std::uint64_t kMatmulBlockEntries = 2'040'403;  // per 100x100 call
constexpr int kMatmulCalls = 10;

struct Program {
  std::string name;
  symtab::Symtab bin;
  int exit_code = 0;
  std::uint64_t cycles = 0;
  std::map<std::string, std::uint64_t> block_entries;  ///< per function
  std::string folded;          ///< obs::Sampler's output, set by the first op
  double cycle_ratio = 0;      ///< instrumented / base virtual cycles
};

bool is_prime(std::uint64_t n) {
  if (n < 2) return false;
  for (std::uint64_t d = 2; d * d <= n; ++d)
    if (n % d == 0) return false;
  return true;
}

/// The benchmark's replica of obs::Sampler's per-sample work, with a span
/// around each toolkit call.
class SampleReplica {
 public:
  SampleReplica(emu::Machine& m, const parse::CodeObject& co, Tracer& tr)
      : access_(m), walker_(access_, co), co_(co), tr_(tr) {}

  void on_sample() {
    ++samples_;
    std::vector<stackwalk::Frame> frames;
    {
      auto s = tr_.scope("stackwalk.walk");
      frames = walker_.walk(obs::SamplerOptions{}.max_depth);
    }
    frames_ += frames.size();
    std::vector<std::string> names;
    {
      auto s = tr_.scope("parse.symbolize");
      for (auto it = frames.rbegin(); it != frames.rend(); ++it)
        names.push_back(it->func_name.empty() ? co_.symbolize(it->pc) : it->func_name);
    }
    {
      auto s = tr_.scope("obs.fold");
      stacks_.add(names);
    }
  }

  std::string folded() const { return stacks_.folded(); }
  std::uint64_t samples() const { return samples_; }
  std::uint64_t frames() const { return frames_; }

 private:
  stackwalk::MachineAccess access_;
  stackwalk::StackWalker walker_;
  const parse::CodeObject& co_;
  Tracer& tr_;
  obs::FoldedStacks stacks_;
  std::uint64_t samples_ = 0;
  std::uint64_t frames_ = 0;
};

// Program sizes put the op times near 30, 40, 80, 160 and 160 ms on the
// reference host. Each op outlasts the host's short speed phases; the
// median op (sort) sits well clear of its neighbours, so the p50 does not
// flip between programs from run to run; and with about 250 ops a run, the
// tail rank lands inside the two slowest programs' spread rather than on
// the host's rarest stalls.
class Profile final : public Workload {
 public:
  Profile(const Options& opts, Tracer& tr) : opts_(opts) {
    const std::pair<const char*, std::string> sources[] = {
        {"matmul", workloads::matmul_program(100, kMatmulCalls)},
        {"sort", workloads::sort_program(5200)},
        {"fib", workloads::fib_program(29)},
        {"dispatch", workloads::dispatch_program(1800000)},
        {"call_churn", workloads::call_churn_program(6800000)},
    };
    for (const auto& [name, src] : sources) {
      Program p;
      p.name = name;
      {
        auto s = tr.scope("assembler.assemble");
        p.bin = assembler::assemble(src);
      }
      reference_run(p);
      programs_.push_back(std::move(p));
    }
    Rng rng(derive(opts.seed, 2000));
    std::vector<std::uint64_t> primes;
    for (std::uint64_t n = 16001; n < 17000; n += 2)
      if (is_prime(n)) primes.push_back(n);
    interval_ = primes[rng.next() % primes.size()];
    for (std::size_t k = 0; k < programs_.size(); ++k) order_.push_back(k);
    for (std::size_t k = order_.size() - 1; k > 0; --k)
      std::swap(order_[k], order_[rng.next() % (k + 1)]);
  }

  double round_seconds() const override { return 0.5; }
  std::size_t round_size() const override { return programs_.size(); }

  Names names() const override {
    return {"run_ms", 1.0, "guest_mips", 1e-6, "bb_overhead_pct"};
  }

  OpResult run_op(std::size_t i, Tracer& tr) override {
    Program& p = programs_[order_[i % order_.size()]];
    OpResult r;
    if (tr.on()) reg_.begin();
    const std::int64_t t0 = now_ns();
    std::unique_ptr<proccontrol::Process> proc;
    std::unique_ptr<patch::BinaryEditor> ed;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    proccontrol::Event ev;
    std::string folded;
    bool committed = false;
    {
      auto op = tr.scope("bench.op");
      {
        auto s = tr.scope("proccontrol.launch");
        proc = proccontrol::Process::launch(p.bin);
      }
      {
        auto s = tr.scope("parse.parse");
        ed = std::make_unique<patch::BinaryEditor>(p.bin);
      }
      {
        auto s = tr.scope("patch.insert");
        for (const auto& [entry, f] : ed->code().functions()) {
          std::string var = "bb_";
          var += f->name();
          const auto c = ed->alloc_var(var, 8, opts_.corrupt_counters ? 1 : 0);
          ed->insert_at(entry, patch::PointType::BlockEntry, codegen::increment(c));
          counters.emplace_back(f->name(), c.addr);
        }
      }
      {
        auto s = tr.scope("proccontrol.commit_to");
        committed = ed->commit_to(proc->address_space()).is_ok();
      }
      if (tr.on())
        add_gauges(acc_, {"rvdyn.patch.pass.lower.ns", "rvdyn.patch.pass.weave.ns",
                          "rvdyn.patch.pass.rvc.ns", "rvdyn.patch.pass.relax.ns",
                          "rvdyn.patch.pass.emit.ns", "rvdyn.patch.text_bytes_before_rvc",
                          "rvdyn.patch.text_bytes"});
      if (tr.on()) {
        SampleReplica replica(proc->machine(), ed->code(), tr);
        proc->machine().set_sample_hook(interval_,
                                        [&](emu::Machine&) { replica.on_sample(); });
        {
          auto s = tr.scope("emu.run");
          ev = proc->continue_run();
        }
        proc->machine().clear_sample_hook();
        folded = replica.folded();
        acc_["obs.samples"] += static_cast<double>(replica.samples());
        acc_["stackwalk.walks"] += static_cast<double>(replica.samples());
        acc_["stackwalk.frames"] += static_cast<double>(replica.frames());
      } else {
        obs::SamplerOptions so;
        so.interval = interval_;
        obs::Sampler sampler(proc->machine(), ed->code(), so);
        {
          auto s = tr.scope("emu.run");
          ev = proc->continue_run();
        }
        sampler.detach();
        folded = sampler.folded();
      }
    }
    r.ms = static_cast<double>(now_ns() - t0) / 1e6;
    const std::uint64_t instret = proc->machine().instret();
    r.work = static_cast<double>(instret);
    if (tr.on()) {
      proc->machine().publish_metrics();
      reg_.end();
      acc_["emu.guest_insns"] += static_cast<double>(instret);
    }
    r.ok = committed && check(p, *proc, ev, counters, folded, tr.on());
    return r;
  }

  double overhead_pct() const override {
    std::vector<double> ratios;
    for (const Program& p : programs_)
      if (p.cycle_ratio > 0) ratios.push_back(p.cycle_ratio);
    return 100.0 * (geomean(ratios) - 1.0);
  }

  void traced_metrics(Tracer&, std::size_t, Metrics& out) override {
    for (const auto& [k, v] : reg_.totals()) out[k] += v;
    for (const auto& [k, v] : acc_) out[k] += v;
  }

 private:
  static void reference_run(Program& p) {
    parse::CodeObject co(p.bin);
    co.parse();
    auto proc = proccontrol::Process::launch(p.bin);
    proc->enable_pc_profile(true);
    const auto ev = proc->continue_run();
    if (ev.kind != proccontrol::Event::Kind::Exited)
      throw std::runtime_error(p.name + ": reference run did not exit");
    p.exit_code = ev.exit_code;
    p.cycles = proc->machine().cycles();
    const auto& prof = proc->pc_profile();
    for (const auto& [entry, f] : co.functions()) {
      std::uint64_t n = 0;
      for (const auto& [addr, blk] : f->blocks()) {
        const auto it = prof.find(addr);
        if (it != prof.end()) n += it->second.hits;
      }
      p.block_entries[f->name()] = n;
    }
  }

  bool check(Program& p, proccontrol::Process& proc, const proccontrol::Event& ev,
             const std::vector<std::pair<std::string, std::uint64_t>>& counters,
             const std::string& folded, bool traced) {
    bool ok = ev.kind == proccontrol::Event::Kind::Exited && ev.exit_code == p.exit_code;
    for (const auto& [name, addr] : counters) {
      const std::uint64_t got = proc.read_mem(addr, 8);
      const auto it = p.block_entries.find(name);
      const bool good = it != p.block_entries.end() && got == it->second &&
                        (name != "matmul" || got == kMatmulCalls * kMatmulBlockEntries);
      if (!good)
        std::fprintf(stderr, "profile check failed: %s counter %s = %llu\n",
                     p.name.c_str(), name.c_str(),
                     static_cast<unsigned long long>(got));
      ok = ok && good;
    }
    if (p.folded.empty() && !traced) p.folded = folded;
    if (folded != p.folded) {
      std::fprintf(stderr, "profile check failed: %s folded stacks differ%s\n",
                   p.name.c_str(), traced ? " from obs::Sampler's" : "");
      ok = false;
    }
    const double ratio = static_cast<double>(proc.machine().cycles()) /
                         static_cast<double>(p.cycles);
    if (p.cycle_ratio == 0) p.cycle_ratio = ratio;
    return ok && ratio == p.cycle_ratio;
  }

  Options opts_;
  std::vector<Program> programs_;
  std::vector<std::size_t> order_;
  std::uint64_t interval_ = 16381;
  RegistryWindow reg_;
  Metrics acc_;
};

}  // namespace

std::unique_ptr<Workload> make_profile(const Options& opts, Tracer& tr) {
  return std::make_unique<Profile>(opts, tr);
}

}  // namespace rvdyn_bench
