// rvdyn_bench, the benchmark binary:
//   rvdyn_bench --workload <rewrite|profile|fuzz> --seed <n> --seconds <s>
//               --trace <0|1> [--out-dir <dir>] [--source-digest <id>]
//   rvdyn_bench --list-metrics
//
// Sets the workload up three times (set-up time is their median; the first
// is timed from process start), then runs a fixed number of whole rounds of
// ops: --seconds over the round's nominal duration. With --trace 1 a sixteenth
// as many rounds run (at least two), each untraced and again with spans on
// (which keeps the span files small); the ratio of the two is the tracing
// overhead. Prints the host fingerprint,
// one line per metric, and as the last line one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {...}}
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
// A traced run also writes its spans, per-layer self times and the
// obs::Registry snapshot under <out-dir>/traces/.
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "host.hpp"
#include "isa/decoder.hpp"
#include "obs/metrics.hpp"
#include "report.hpp"
#include "trace.hpp"
#include "workload.hpp"

using namespace rvdyn_bench;

namespace {

constexpr int kSetups = 3;
/// A run stops early (at a round boundary) past this much measuring, so a
/// badly slowed toolkit still finishes well inside the benchmark's limits.
constexpr double kMaxMeasureSeconds = 120;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  std::string source_digest = "unknown";
  bool list_metrics = false;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: rvdyn_bench --workload <rewrite|profile|fuzz> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--source-digest <id>]\n       rvdyn_bench --list-metrics\n",
               msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--list-metrics") {
      a.list_metrics = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out-dir") a.out_dir = v;
    else if (k == "--source-digest") a.source_digest = v;
    else usage(("unknown option " + k).c_str());
  }
  if (!a.list_metrics && a.workload.empty()) usage("--workload is required");
  if (!a.list_metrics && a.seconds <= 0) usage("--seconds must be positive");
  return a;
}

void list_metrics() {
  const auto print = [](const char* key, const std::vector<MetricInfo>& v) {
    std::printf("  \"%s\": [\n", key);
    for (std::size_t i = 0; i < v.size(); ++i)
      std::printf("    {\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"}%s\n",
                  v[i].name, v[i].unit, v[i].better, i + 1 < v.size() ? "," : "");
    std::printf("  ]");
  };
  std::printf("{\n");
  print("end_to_end", end_to_end_metrics());
  std::printf(",\n");
  print("per_layer", per_layer_metrics());
  std::printf("\n}\n");
}

struct Window {
  std::vector<OpResult> ops;
  std::size_t failed = 0;
};

/// Run the ops of round `round` into `win`.
void run_round(Workload& w, Tracer& tr, std::size_t round, Window& win) {
  for (std::size_t k = 0; k < w.round_size(); ++k) {
    const std::size_t i = round * w.round_size() + k;
    tr.set_op(static_cast<std::uint32_t>(i));
    OpResult r;
    try {
      r = w.run_op(i, tr);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "op %zu failed: %s\n", i, e.what());
      r.ok = false;
    }
    if (!r.ok) ++win.failed;
    win.ops.push_back(r);
  }
}

/// Run `rounds` whole rounds untraced into `base`; with `traced`, run each
/// round a second time with spans on, right before or after the untraced
/// one (alternating, so neither side always runs on colder caches). Both
/// sides of the tracing overhead then see the same host conditions.
void run_rounds(Workload& w, std::size_t rounds, Window& base, Tracer* tr,
                Window* traced) {
  Tracer off(false);
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(kMaxMeasureSeconds * 1e9);
  for (std::size_t round = 0; round < rounds; ++round) {
    if (now_ns() > deadline) {
      std::fprintf(stderr, "stopping after %zu of %zu rounds: over %.0f s\n",
                   round, rounds, kMaxMeasureSeconds);
      return;
    }
    const bool traced_first = tr != nullptr && round % 2 == 1;
    if (traced_first) run_round(w, *tr, round, *traced);
    run_round(w, off, round, base);
    if (tr != nullptr && !traced_first) run_round(w, *tr, round, *traced);
  }
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t process_start = now_ns();
  const Args args = parse_args(argc, argv);
  if (args.list_metrics) {
    list_metrics();
    return 0;
  }

  Options opts;
  opts.seed = args.seed;
  Tracer setup_tr(args.trace);
  Tracer off(false);
  std::unique_ptr<Workload> w;
  std::vector<double> setup_s;
  try {
    for (int k = 0; k < kSetups; ++k) {
      w.reset();
      const std::int64_t t0 = k == 0 ? process_start : now_ns();
      Tracer& tr = k == 0 ? setup_tr : off;
      {
        auto s = tr.scope("isa.decoder_init");
        const rvdyn::isa::Decoder warm;
        (void)warm;
      }
      w = make_workload(args.workload, opts, tr);
      setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "set-up failed: %s\n", e.what());
    return 1;
  }

  std::printf("host: %s\n", host_fingerprint_json(args.source_digest).c_str());
  std::printf("workload: %s, seed %llu, %.0f s, trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace);

  const auto rounds = static_cast<std::size_t>(
      std::max(1.0, std::round(args.seconds / w->round_seconds())));
  Window base, traced;
  Tracer tr(true);
  if (args.trace)
    run_rounds(*w, std::max<std::size_t>(2, rounds / 16), base, &tr, &traced);
  else
    run_rounds(*w, rounds, base, nullptr, nullptr);
  const std::size_t attempted = base.ops.size() + traced.ops.size();
  const std::size_t failed = base.failed + traced.failed;
  std::string metrics_json;
  const auto add_metric = [&](const std::string& name, double v, const char* unit) {
    std::printf("metric %-34s %16.6g %s\n", name.c_str(), v, unit);
    metrics_json += (metrics_json.empty() ? "" : ", ") + std::string("\"") + name +
                    "\": {\"value\": " + json_number(v) + ", \"unit\": \"" + unit + "\"}";
  };

  if (!args.trace) {
    std::vector<double> ms;
    double work = 0, total_ms = 0;
    for (const OpResult& r : base.ops) {
      ms.push_back(r.ms);
      work += r.work;
      total_ms += r.ms;
    }
    std::size_t rank = 0;
    const double p50 = median(ms), tl = tail(ms, &rank);
    const double work_per_s = total_ms == 0 ? 0 : work / (total_ms / 1e3);
    const Workload::Names nm = w->names();
    // The workload's own names for its figures, for people reading the log;
    // the JSON below carries the workload-neutral names.
    std::printf("%s_p50 = %.6g, %s_tail = %.6g (rank %zu of %zu), %s = %.6g, "
                "%s = %.6g, failed_op_share = %.6g\n",
                nm.latency, p50 * nm.latency_scale, nm.latency, tl * nm.latency_scale,
                rank, ms.size(), nm.work, work_per_s * nm.work_scale, nm.overhead,
                w->overhead_pct(),
                static_cast<double>(failed) / static_cast<double>(attempted));
    add_metric("setup_s", median(setup_s), "s");
    add_metric("peak_rss_mb", peak_rss_mb(), "MB");
    add_metric("op_ms_p50", p50, "ms");
    add_metric("op_ms_tail", tl, "ms");
    add_metric("work_per_s", work_per_s, "1/s");
    add_metric("overhead_pct", w->overhead_pct(), "%");
  } else {
    Metrics raw;
    w->traced_metrics(tr, traced.ops.size(), raw);
    double base_ms = 0, traced_ms = 0;
    for (std::size_t i = 0; i < traced.ops.size() && i < base.ops.size(); ++i) {
      base_ms += base.ops[i].ms;
      traced_ms += traced.ops[i].ms;
    }
    const double overhead = base_ms == 0 ? 0 : 100.0 * (traced_ms / base_ms - 1.0);
    const Metrics layer =
        per_layer_report(tr, traced.ops.size(), raw, setup_tr, overhead);
    for (const MetricInfo& mi : per_layer_metrics()) add_metric(mi.name, layer.at(mi.name), mi.unit);

    const std::string dir = args.out_dir + "/traces";
    ::mkdir(args.out_dir.c_str(), 0755);
    ::mkdir(dir.c_str(), 0755);
    const std::string stem = dir + "/" + args.workload + "-seed" + std::to_string(args.seed);
    std::string self = "{";
    for (const auto& [layer_name, ms] : layer_self_ms(tr))
      self += (self.size() > 1 ? ", \"" : "\"") + layer_name + "\": " +
              json_number(ms / static_cast<double>(traced.ops.size()));
    self += "}";
    const bool wrote =
        tr.write_tsv(stem + ".spans.tsv") &&
        write_text(stem + ".layers.json",
                   "{\"ops\": " + std::to_string(traced.ops.size()) +
                       ", \"self_ms_per_op\": " + self +
                       ", \"registry\": " + rvdyn::obs::Registry::instance().to_json() +
                       "}\n");
    std::printf("trace: %zu spans over %zu ops -> %s.{spans.tsv,layers.json}%s\n",
                tr.spans().size(), traced.ops.size(), stem.c_str(),
                wrote ? "" : " (write failed)");
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
              failed == 0 ? "true" : "false", attempted, failed, metrics_json.c_str());
  return 0;
}
