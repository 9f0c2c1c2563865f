// `fuzz`: a seeded list of single-worker fuzz::Campaigns on
// fuzz_target_program("RV!"), each run until it finds the seeded bug (or
// hits its exec cap). Here emu runs millions of ~350-instruction executions,
// each behind a snapshot reset, instead of a few long compute runs; patch
// works only while a campaign weaves its target. One worker keeps
// execs_to_bug a pure function of the campaign seed.
//
// Check (untimed): the campaign stopped on a Breakpoint (the seeded ebreak)
// and the crashing input starts with the magic. The traced window also
// times reset_to_snapshot and run in a raw loop on the same woven target,
// which splits the campaign's cost per exec into emulator and harness.
#include <cstdio>
#include <cstring>

#include "assembler/assembler.hpp"
#include "emu/machine.hpp"
#include "fuzz/fuzz.hpp"
#include "obs/metrics.hpp"
#include "rng.hpp"
#include "workload.hpp"
#include "workloads/workloads.hpp"

namespace rvdyn_bench {

using namespace rvdyn;

namespace {

constexpr char kMagic[] = "RV!";
constexpr std::uint64_t kExecCap = 3'000'000;
constexpr unsigned kRawExecs = 100'000;
// Longest test case a campaign writes. The magic needs three bytes; a short
// cap keeps the per-exec cost (the checksum loop runs over the input) from
// drifting with how far a campaign's inputs have grown.
constexpr std::size_t kMaxInputLen = 8;

/// Virtual cycles `bin` spends on `input` up to its stop.
std::uint64_t cycles_on(const symtab::Symtab& bin, const std::vector<std::uint8_t>& input,
                        const fuzz::WovenTarget* woven) {
  emu::Machine m;
  if (woven != nullptr) fuzz::attach_coverage(m, *woven);
  else m.load(bin);
  const auto* buf = bin.find_symbol("fuzz_input");
  const auto* len = bin.find_symbol("fuzz_len");
  m.memory().write_bytes(buf->value, input.data(), input.size());
  m.memory().write(len->value, input.size(), 8);
  m.run(1u << 20);
  return m.cycles();
}

class Fuzz final : public Workload {
 public:
  // Set-up: assemble the target, weave it once, and run the seeded raw-loop
  // inputs on the plain and the woven target (the weaving overhead's base).
  Fuzz(const Options& opts, Tracer& tr) : opts_(opts) {
    {
      auto s = tr.scope("assembler.assemble");
      target_ = assembler::assemble(workloads::fuzz_target_program(kMagic));
    }
    {
      auto s = tr.scope("fuzz.weave");
      woven_ = std::make_unique<fuzz::WovenTarget>(fuzz::weave_coverage(target_));
    }
    Rng rng(derive(opts_.seed, 4000));
    inputs_.resize(64);
    for (auto& in : inputs_) {
      in.resize(static_cast<std::size_t>(rng.range(1, 8)));
      for (auto& byte : in) byte = static_cast<std::uint8_t>(rng.range(0, 255));
      if (in[0] == static_cast<std::uint8_t>(kMagic[0])) in[0] ^= 1;
    }
    std::vector<double> ratios;
    for (const auto& in : inputs_)
      ratios.push_back(static_cast<double>(cycles_on(woven_->binary, in, woven_.get())) /
                       static_cast<double>(cycles_on(target_, in, nullptr)));
    overhead_pct_ = 100.0 * (geomean(ratios) - 1.0);
  }

  double round_seconds() const override { return 0.075; }
  std::size_t round_size() const override { return 1; }

  Names names() const override {
    return {"fuzz_time_to_bug_s", 1e-3, "fuzz_execs_per_s", 1.0, "weave_overhead_pct"};
  }

  OpResult run_op(std::size_t i, Tracer& tr) override {
    fuzz::CampaignOptions co;
    co.workers = 1;
    co.max_execs = kExecCap;
    co.batch = 16;
    co.max_input_len = kMaxInputLen;
    co.seed = derive(opts_.seed, 3000 + i);
    co.collect_curve = false;
    OpResult r;
    if (tr.on()) reg_.begin();
    const std::int64_t t0 = now_ns();
    std::unique_ptr<fuzz::Campaign> c;
    fuzz::CampaignResult res;
    {
      auto op = tr.scope("bench.op");
      {
        auto s = tr.scope("fuzz.weave");
        c = std::make_unique<fuzz::Campaign>(target_, co);
      }
      {
        auto s = tr.scope("fuzz.campaign");
        res = c->run();
      }
    }
    r.ms = static_cast<double>(now_ns() - t0) / 1e6;
    r.work = static_cast<double>(res.execs);
    if (tr.on()) {
      const auto& reg = obs::Registry::instance();
      acc_["fuzz.execs"] += static_cast<double>(res.execs);
      acc_["fuzz.campaigns"] += 1;
      acc_["fuzz.reset_pages"] += static_cast<double>(reg.value("rvdyn.fuzz.w0.reset_pages"));
      acc_["fuzz.corpus_admits"] += static_cast<double>(reg.value("rvdyn.fuzz.w0.corpus_admits"));
      if (res.found_crash())
        execs_to_bug_.push_back(static_cast<double>(res.crashes.front().found_at_exec));
      c.reset();  // publishes the worker machine's emu counters
      reg_.end();
    }
    r.ok = res.found_crash() && res.crashes.front().reason == emu::StopReason::Breakpoint &&
           res.crashes.front().input.size() >= std::strlen(kMagic) &&
           std::memcmp(res.crashes.front().input.data(), kMagic, std::strlen(kMagic)) == 0;
    if (!r.ok) {
      std::fprintf(stderr, "fuzz check failed: campaign %zu: %s after %llu execs\n", i,
                   res.found_crash() ? "wrong crash" : "no crash",
                   static_cast<unsigned long long>(res.execs));
      return r;
    }
    return r;
  }

  double overhead_pct() const override { return overhead_pct_; }

  void traced_metrics(Tracer& tr, std::size_t ops, Metrics& out) override {
    for (const auto& [k, v] : reg_.totals()) out[k] += v;
    for (const auto& [k, v] : acc_) out[k] += v;
    out["fuzz.execs_to_bug"] = median(execs_to_bug_);
    raw_loop(tr, static_cast<std::uint32_t>(ops));
  }

 private:
  /// reset + input write + run on the woven target, with no campaign
  /// around it. The seeded inputs never start with the magic's first byte,
  /// so every exec runs to exit.
  void raw_loop(Tracer& tr, std::uint32_t op) {
    emu::Machine m;
    fuzz::attach_coverage(m, *woven_);
    const auto snap = m.take_snapshot();
    const auto* buf = woven_->binary.find_symbol("fuzz_input");
    const auto* len = woven_->binary.find_symbol("fuzz_len");
    tr.set_op(op);
    auto s = tr.scope("bench.raw_loop");
    for (unsigned k = 0; k < kRawExecs; ++k) {
      const auto& in = inputs_[k % inputs_.size()];
      {
        auto rs = tr.scope("emu.reset");
        m.reset_to_snapshot(snap);
      }
      m.memory().write(fuzz::kPrevAddr, 0, 8);
      m.memory().write(fuzz::kNewEdgesAddr, 0, 8);
      m.memory().write_bytes(buf->value, in.data(), in.size());
      m.memory().write(len->value, in.size(), 8);
      auto es = tr.scope("emu.exec");
      m.run(1u << 20);
    }
  }

  Options opts_;
  symtab::Symtab target_;
  std::unique_ptr<fuzz::WovenTarget> woven_;
  std::vector<std::vector<std::uint8_t>> inputs_;
  double overhead_pct_ = 0;
  std::vector<double> execs_to_bug_;
  RegistryWindow reg_;
  Metrics acc_;
};

}  // namespace

std::unique_ptr<Workload> make_fuzz(const Options& opts, Tracer& tr) {
  return std::make_unique<Fuzz>(opts, tr);
}

}  // namespace rvdyn_bench
