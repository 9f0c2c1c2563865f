// rvdyn::obs metrics: a lock-free counter/gauge/histogram registry.
//
// The hot path (Counter::add) is one thread-local-shard lookup plus one
// relaxed atomic add to an uncontended cache line; readers aggregate across
// shards, so writers never synchronize with each other. Metric names form
// a dotted namespace mirroring the toolkits that emit them:
//   rvdyn.isa.*    decoder table-path decodes and failures
//   rvdyn.emu.*    icache/block-cache hits, misses, evictions, flushes
//   rvdyn.parse.*  per-phase timings, per-worker block/gap counts
//   rvdyn.patch.*  snippet and relocation statistics
//
// Hot-path hook sites go through the RVDYN_OBS_* macros below, which cache
// each metric's registry handle in a function-local static so a hit costs
// one add, not a name lookup.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace rvdyn::obs {

/// How a slot aggregates across thread shards and is reported.
enum class MetricKind : std::uint8_t {
  Counter,  ///< monotonic, summed across shards
  Gauge,    ///< last-set value (global slot, not sharded)
  Max,      ///< maximum across shards (histogram `.max` companions)
};

inline const char* metric_kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Max: return "max";
  }
  return "?";
}

/// Bucket count shared by obs::Histogram and HistogramSnapshot.
inline constexpr unsigned kHistogramBuckets = 16;

/// A histogram reassembled from its component metrics (`.count`, `.sum`,
/// `.max`, `.b<i>`), merged across all thread shards by the registry read
/// path. Buckets are power-of-two: bucket 0 counts zeros, bucket i counts
/// values in [2^(i-1), 2^i), and the last bucket absorbs everything wider.
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Quantile estimate for q in [0, 1] (q=0.5 → p50): nearest-rank walk
  /// over the cumulative buckets with linear interpolation between the
  /// bucket's value bounds. Exact for single-valued buckets (0 and 1);
  /// elsewhere the error is bounded by the bucket width. The top bucket's
  /// upper bound is the recorded max, so p100 == max exactly.
  double percentile(double q) const {
    if (count == 0) return 0.0;
    q = std::min(1.0, std::max(0.0, q));
    const double rank = q * static_cast<double>(count - 1) + 1.0;  // 1-based
    std::uint64_t cum = 0;
    for (unsigned i = 0; i < kHistogramBuckets; ++i) {
      if (buckets[i] == 0) continue;
      const double first_rank = static_cast<double>(cum) + 1.0;
      cum += buckets[i];
      if (rank > static_cast<double>(cum)) continue;
      double lo = i == 0 ? 0.0 : static_cast<double>(1ULL << (i - 1));
      double hi = i == 0 ? 0.0 : static_cast<double>((1ULL << i) - 1);
      if (i + 1 == kHistogramBuckets || hi > static_cast<double>(max))
        hi = static_cast<double>(max);
      if (hi < lo) hi = lo;
      const double frac =
          buckets[i] <= 1
              ? 0.0
              : (rank - first_rank) / static_cast<double>(buckets[i] - 1);
      return lo + frac * (hi - lo);
    }
    return static_cast<double>(max);
  }
  double p50() const { return percentile(0.50); }
  double p95() const { return percentile(0.95); }
  double p99() const { return percentile(0.99); }
};

class Registry {
 public:
  using Id = std::uint32_t;
  static constexpr std::size_t kMaxSlots = 1024;

  /// Process-wide registry. Deliberately leaked so metric flushes from
  /// static-storage destructors (decoders, machines) stay safe at exit.
  static Registry& instance() {
    static Registry* r = new Registry;
    return *r;
  }

  /// Idempotent: re-registering a name returns the existing id. The kind
  /// must match the original registration.
  Id register_metric(const std::string& name, MetricKind kind) {
    std::lock_guard lock(mu_);
    auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    if (meta_.size() >= kMaxSlots)
      throw std::runtime_error("obs: metric slot capacity exhausted");
    const Id id = static_cast<Id>(meta_.size());
    meta_.push_back({name, kind});
    ids_.emplace(name, id);
    return id;
  }

  // --- hot-path writes (lock-free) ---
  void add(Id id, std::uint64_t n) {
    local_shard().slots[id].fetch_add(n, std::memory_order_relaxed);
  }
  void record_max(Id id, std::uint64_t v) {
    std::atomic<std::uint64_t>& slot = local_shard().slots[id];
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (cur < v &&
           !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  void set_gauge(Id id, std::uint64_t v) {
    gauges_[id].store(v, std::memory_order_relaxed);
  }

  // --- reads (aggregate across shards; intended for quiesced moments) ---
  std::uint64_t read(Id id) const {
    std::lock_guard lock(mu_);
    return read_locked(id);
  }

  /// Value of a metric by name; 0 when the name was never registered.
  std::uint64_t value(const std::string& name) const {
    std::lock_guard lock(mu_);
    const auto it = ids_.find(name);
    return it == ids_.end() ? 0 : read_locked(it->second);
  }

  struct Sample {
    std::string name;
    MetricKind kind = MetricKind::Counter;
    std::uint64_t value = 0;
  };

  /// All metrics, sorted by name (meta_ insertion order is registration
  /// order; the map keeps names unique, so sorting is stable).
  std::vector<Sample> snapshot() const {
    std::lock_guard lock(mu_);
    std::vector<Sample> out;
    out.reserve(meta_.size());
    for (Id id = 0; id < meta_.size(); ++id)
      out.push_back({meta_[id].name, meta_[id].kind, read_locked(id)});
    std::sort(out.begin(), out.end(),
              [](const Sample& a, const Sample& b) { return a.name < b.name; });
    return out;
  }

  /// Flat JSON object `{"name": value, ...}` — embedded into BENCH_*.json
  /// files and the example tools' reports.
  std::string to_json() const {
    const auto samples = snapshot();
    std::string out = "{";
    for (std::size_t i = 0; i < samples.size(); ++i) {
      out += "\"" + samples[i].name +
             "\": " + std::to_string(samples[i].value);
      if (i + 1 < samples.size()) out += ", ";
    }
    out += "}";
    return out;
  }

  // --- histogram sample API --------------------------------------------
  /// Called by obs::Histogram's constructor so readers can reassemble the
  /// component metrics into HistogramSnapshots. Idempotent.
  void register_histogram(const std::string& name) {
    std::lock_guard lock(mu_);
    for (const auto& h : histogram_names_)
      if (h == name) return;
    histogram_names_.push_back(name);
  }

  /// Names of every registered histogram, in registration order.
  std::vector<std::string> histogram_names() const {
    std::lock_guard lock(mu_);
    return histogram_names_;
  }

  /// Shard-merged snapshot of histogram `name` (all-zero when the name was
  /// never registered). Percentiles come from the snapshot's accessors:
  ///   Registry::instance().histogram("rvdyn.x").p99()
  HistogramSnapshot histogram(const std::string& name) const {
    std::lock_guard lock(mu_);
    return histogram_locked(name);
  }

  /// Snapshots of every registered histogram, in registration order.
  std::vector<HistogramSnapshot> histograms() const {
    std::lock_guard lock(mu_);
    std::vector<HistogramSnapshot> out;
    out.reserve(histogram_names_.size());
    for (const auto& name : histogram_names_)
      out.push_back(histogram_locked(name));
    return out;
  }

  /// Zero every slot (names stay registered). Call only when no other
  /// thread is writing — test fixtures and bench setup.
  void reset() {
    std::lock_guard lock(mu_);
    for (auto& shard : shards_)
      for (auto& slot : shard->slots)
        slot.store(0, std::memory_order_relaxed);
    for (auto& g : gauges_) g.store(0, std::memory_order_relaxed);
  }

  /// Zero only the metrics whose name starts with `prefix`, leaving every
  /// other namespace untouched — so a fuzzing campaign (or any other
  /// repeated experiment) can clear its own `rvdyn.fuzz.w3.*` counters
  /// between rounds without destroying the decoder/JIT totals accumulated
  /// alongside. Same quiesced-writers contract as reset().
  void reset(const std::string& prefix) {
    std::lock_guard lock(mu_);
    for (Id id = 0; id < meta_.size(); ++id) {
      if (meta_[id].name.compare(0, prefix.size(), prefix) != 0) continue;
      for (auto& shard : shards_)
        shard->slots[id].store(0, std::memory_order_relaxed);
      gauges_[id].store(0, std::memory_order_relaxed);
    }
  }

  /// All metrics under `prefix`, sorted by name.
  std::vector<Sample> snapshot(const std::string& prefix) const {
    std::lock_guard lock(mu_);
    std::vector<Sample> out;
    for (Id id = 0; id < meta_.size(); ++id)
      if (meta_[id].name.compare(0, prefix.size(), prefix) == 0)
        out.push_back({meta_[id].name, meta_[id].kind, read_locked(id)});
    std::sort(out.begin(), out.end(),
              [](const Sample& a, const Sample& b) { return a.name < b.name; });
    return out;
  }

 private:
  struct Meta {
    std::string name;
    MetricKind kind;
  };
  struct Shard {
    std::array<std::atomic<std::uint64_t>, kMaxSlots> slots{};
  };

  Registry() = default;

  HistogramSnapshot histogram_locked(const std::string& name) const {
    HistogramSnapshot h;
    h.name = name;
    const auto by_name = [&](const std::string& n) -> std::uint64_t {
      const auto it = ids_.find(n);
      return it == ids_.end() ? 0 : read_locked(it->second);
    };
    h.count = by_name(name + ".count");
    h.sum = by_name(name + ".sum");
    h.max = by_name(name + ".max");
    for (unsigned i = 0; i < kHistogramBuckets; ++i)
      h.buckets[i] = by_name(name + ".b" + std::to_string(i));
    return h;
  }

  std::uint64_t read_locked(Id id) const {
    if (id >= meta_.size()) return 0;
    if (meta_[id].kind == MetricKind::Gauge)
      return gauges_[id].load(std::memory_order_relaxed);
    std::uint64_t v = 0;
    for (const auto& shard : shards_) {
      const std::uint64_t s = shard->slots[id].load(std::memory_order_relaxed);
      if (meta_[id].kind == MetricKind::Max)
        v = std::max(v, s);
      else
        v += s;
    }
    return v;
  }

  Shard& local_shard() {
    thread_local Shard* shard = nullptr;
    if (shard == nullptr) {
      auto owned = std::make_unique<Shard>();
      std::lock_guard lock(mu_);
      // Shards outlive their threads so exited workers' counts keep
      // contributing to totals.
      shards_.push_back(std::move(owned));
      shard = shards_.back().get();
    }
    return *shard;
  }

  mutable std::mutex mu_;  ///< guards registration + shard list, never adds
  std::unordered_map<std::string, Id> ids_;
  std::vector<Meta> meta_;
  std::vector<std::string> histogram_names_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::array<std::atomic<std::uint64_t>, kMaxSlots> gauges_{};
};

/// Cached-id handle for a counter. Construct once (function-local static at
/// hook sites via RVDYN_OBS_COUNT) and add() forever after without locks.
class Counter {
 public:
  explicit Counter(const std::string& name)
      : id_(Registry::instance().register_metric(name, MetricKind::Counter)) {}
  void add(std::uint64_t n = 1) const { Registry::instance().add(id_, n); }

 private:
  Registry::Id id_;
};

class Gauge {
 public:
  explicit Gauge(const std::string& name)
      : id_(Registry::instance().register_metric(name, MetricKind::Gauge)) {}
  void set(std::uint64_t v) const { Registry::instance().set_gauge(id_, v); }

 private:
  Registry::Id id_;
};

/// Power-of-two histogram: `<name>.count`, `<name>.sum`, `<name>.max`, and
/// buckets `<name>.b<i>` where bucket i counts values whose bit width is i
/// (i.e. v in [2^(i-1), 2^i)); bucket 0 counts zeros, the last bucket
/// absorbs everything wider.
class Histogram {
 public:
  static constexpr unsigned kBuckets = kHistogramBuckets;

  explicit Histogram(const std::string& name) {
    Registry& r = Registry::instance();
    r.register_histogram(name);
    count_ = r.register_metric(name + ".count", MetricKind::Counter);
    sum_ = r.register_metric(name + ".sum", MetricKind::Counter);
    max_ = r.register_metric(name + ".max", MetricKind::Max);
    for (unsigned i = 0; i < kBuckets; ++i)
      buckets_[i] =
          r.register_metric(name + ".b" + std::to_string(i), MetricKind::Counter);
  }

  void record(std::uint64_t v) const {
    Registry& r = Registry::instance();
    r.add(count_, 1);
    r.add(sum_, v);
    r.record_max(max_, v);
    const unsigned width =
        v == 0 ? 0u : 64u - static_cast<unsigned>(__builtin_clzll(v));
    r.add(buckets_[std::min(width, kBuckets - 1)], 1);
  }

 private:
  Registry::Id count_, sum_, max_;
  std::array<Registry::Id, kBuckets> buckets_{};
};

/// RAII phase timer: sets `<name>` (a gauge, nanoseconds) on destruction.
class ScopedTimerGauge {
 public:
  explicit ScopedTimerGauge(const char* name)
      : gauge_(name), t0_(std::chrono::steady_clock::now()) {}
  ~ScopedTimerGauge() {
    const auto dt = std::chrono::steady_clock::now() - t0_;
    gauge_.set(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()));
  }
  ScopedTimerGauge(const ScopedTimerGauge&) = delete;
  ScopedTimerGauge& operator=(const ScopedTimerGauge&) = delete;

 private:
  Gauge gauge_;
  std::chrono::steady_clock::time_point t0_;
};

/// A namespace-scoped window onto the registry: every metric created or
/// read through the view lives under `prefix` + ".", so independent
/// experiments (fuzzing workers, benchmark rounds) get private counters
/// that neither collide with nor survive into each other. The view owns no
/// storage — it is a naming convention made ergonomic — so any number of
/// views over the same prefix see the same slots.
class ScopedView {
 public:
  explicit ScopedView(std::string prefix) : prefix_(std::move(prefix) + ".") {}

  const std::string& prefix() const { return prefix_; }
  std::string qualify(const std::string& name) const { return prefix_ + name; }

  Counter counter(const std::string& name) const {
    return Counter(prefix_ + name);
  }
  Gauge gauge(const std::string& name) const { return Gauge(prefix_ + name); }
  Histogram histogram(const std::string& name) const {
    return Histogram(prefix_ + name);
  }

  /// Value of `prefix.name`; 0 when never registered.
  std::uint64_t value(const std::string& name) const {
    return Registry::instance().value(prefix_ + name);
  }
  /// Shard-merged snapshot of histogram `prefix.name`.
  HistogramSnapshot histogram_snapshot(const std::string& name) const {
    return Registry::instance().histogram(prefix_ + name);
  }
  /// Every metric under the prefix, sorted by name.
  std::vector<Registry::Sample> snapshot() const {
    return Registry::instance().snapshot(prefix_);
  }
  /// Zero every metric under the prefix, nothing else.
  void reset() const { Registry::instance().reset(prefix_); }

 private:
  std::string prefix_;
};

}  // namespace rvdyn::obs

// ---- hook-site macros ------------------------------------------------------

#define RVDYN_OBS_CONCAT2_(a, b) a##b
#define RVDYN_OBS_CONCAT_(a, b) RVDYN_OBS_CONCAT2_(a, b)

/// Increment counter `name` by `n`. `name` must be a string literal (the
/// handle is a function-local static registered on first pass).
#define RVDYN_OBS_COUNT_N(name, n)                       \
  do {                                                   \
    static const ::rvdyn::obs::Counter rvdyn_obs_c_(name); \
    rvdyn_obs_c_.add(n);                                 \
  } while (0)
#define RVDYN_OBS_COUNT(name) RVDYN_OBS_COUNT_N(name, 1)

/// Record `v` into histogram `name`.
#define RVDYN_OBS_HIST(name, v)                              \
  do {                                                       \
    static const ::rvdyn::obs::Histogram rvdyn_obs_h_(name); \
    rvdyn_obs_h_.record(v);                                  \
  } while (0)

/// Set gauge `name` to `v`.
#define RVDYN_OBS_GAUGE(name, v)                         \
  do {                                                   \
    static const ::rvdyn::obs::Gauge rvdyn_obs_g_(name); \
    rvdyn_obs_g_.set(v);                                 \
  } while (0)

/// Time the enclosing scope into gauge `name` (nanoseconds).
#define RVDYN_OBS_TIMER(name)               \
  ::rvdyn::obs::ScopedTimerGauge RVDYN_OBS_CONCAT_(rvdyn_obs_timer_, \
                                                   __LINE__)(name)
