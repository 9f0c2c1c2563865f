// The benchmark's workloads. Each is a closed loop: one thread issues one op
// at a time and the next op starts when the previous one has finished. Ops
// are grouped in rounds (the corpus, the program list, one campaign). A run
// does a fixed number of whole rounds, derived from --seconds and the
// round's nominal duration, so every run covers the same ops at any speed:
// a faster toolkit shortens the run instead of changing the mix its
// percentiles are taken over.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace rvdyn_bench {

struct Options {
  std::uint64_t seed = 1;
  /// Fault injection for the benchmark's own tests: instrumentation
  /// counters start at 1 instead of 0, so every counter check must fail.
  bool corrupt_counters = false;
};

struct OpResult {
  double ms = 0;    ///< host time of the tool path (verification excluded)
  bool ok = true;   ///< every output check passed
  double work = 0;  ///< functions rewritten / guest insns retired / execs
};

/// Named per-layer values a workload contributes to the traced report.
using Metrics = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;
  /// Ops in one round.
  virtual std::size_t round_size() const = 0;
  /// Nominal host seconds of one round (measured on a 4-core 2.1 GHz Xeon,
  /// calibration_ns ~4.2e6); sets how many rounds a run of --seconds does.
  virtual double round_seconds() const = 0;
  /// Run op `i` (counting from 0 across rounds): the timed tool path, then
  /// the output checks. Spans go to `tr`.
  virtual OpResult run_op(std::size_t i, Tracer& tr) = 0;
  /// The workload's deterministic cost figure, in percent: code growth
  /// (rewrite), BB-count virtual-cycle overhead (profile), coverage-weaving
  /// virtual-cycle overhead (fuzz).
  virtual double overhead_pct() const = 0;
  /// The workload's own names for its end-to-end figures, for the printed
  /// report (the JSON result uses the workload-neutral metric names).
  struct Names {
    const char* latency;     ///< e.g. "rewrite_ms"
    double latency_scale;    ///< multiply ms by this for the printed unit
    const char* work;        ///< e.g. "rewrite_funcs_per_s"
    double work_scale;       ///< multiply per-second work by this
    const char* overhead;    ///< e.g. "code_growth_pct"
  };
  virtual Names names() const = 0;
  /// Raw inputs of the per-layer report for the traced window of `ops` ops
  /// (the spans in `tr`): registry counter deltas and summed
  /// gauges under their registry names, plus workload values under their
  /// report names. Runs extra traced measurements where a metric needs them
  /// (the fuzz raw loop).
  virtual void traced_metrics(Tracer& tr, std::size_t ops, Metrics& out) = 0;
};

/// Build and set up `name` ("rewrite", "profile", "fuzz"); setup spans
/// (assembly, decoder init) go to `tr`. Throws on an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Options& opts, Tracer& tr);

std::unique_ptr<Workload> make_rewrite(const Options& opts, Tracer& tr);
std::unique_ptr<Workload> make_profile(const Options& opts, Tracer& tr);
std::unique_ptr<Workload> make_fuzz(const Options& opts, Tracer& tr);

// --- small statistics helpers ----------------------------------------------

/// Value at rank `r` (0-based) of the sorted copy of `v`.
double sorted_at(std::vector<double> v, std::size_t r);
double median(std::vector<double> v);
/// The highest percentile with at least 10 samples beyond it; returns the
/// value and sets `rank` (1-based, of `v.size()`).
double tail(const std::vector<double>& v, std::size_t* rank);
double geomean(const std::vector<double>& v);

/// Current value of every obs::Registry counter (gauges excluded).
std::map<std::string, std::uint64_t> registry_values();
/// `after - before` for `name` (0 when absent).
double delta(const std::map<std::string, std::uint64_t>& before,
             const std::map<std::string, std::uint64_t>& after,
             const std::string& name);

/// obs::Registry counter deltas summed over the timed parts of traced ops
/// (so verification runs never leak into a layer's counts).
class RegistryWindow {
 public:
  void begin() { before_ = registry_values(); }
  void end();
  const Metrics& totals() const { return totals_; }

 private:
  std::map<std::string, std::uint64_t> before_;
  Metrics totals_;
};

/// Add the current value of each registry gauge in `names` to `acc` (gauges
/// such as rvdyn.patch.pass.*.ns hold the last call's value, so they are
/// read right after each call).
void add_gauges(Metrics& acc, std::initializer_list<const char*> names);

}  // namespace rvdyn_bench
