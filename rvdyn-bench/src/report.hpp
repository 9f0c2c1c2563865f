// Metric tables and the per-layer report. The names, units and directions
// here are the ones BENCHMARK.json lists; `rvdyn_bench --list-metrics`
// prints them in that file's format.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workload.hpp"

namespace rvdyn_bench {

struct MetricInfo {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" or "higher"
};

const std::vector<MetricInfo>& end_to_end_metrics();
const std::vector<MetricInfo>& per_layer_metrics();

/// Every per-layer metric for a traced window of `ops` ops (the spans of
/// `tr`), with `raw` from Workload::traced_metrics, the set-up spans in
/// `setup`, and the measured tracing overhead.
Metrics per_layer_report(const Tracer& tr, std::size_t ops,
                         const Metrics& raw, const Tracer& setup,
                         double trace_overhead_pct);

}  // namespace rvdyn_bench
