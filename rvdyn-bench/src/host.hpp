// Host fingerprint and provenance printed with every run, so a slower host
// shows as such: CPU model, nproc, the time of a fixed calibration loop,
// the source revision, build type and bench_util's `degraded` flag.
#pragma once

#include <string>

namespace rvdyn_bench {

/// One-line JSON object with the fingerprint. `source_digest` identifies
/// the source tree when the checkout is not a git repository.
std::string host_fingerprint_json(const std::string& source_digest);

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

}  // namespace rvdyn_bench
