#include "host.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <vector>

#include "bench_util.hpp"
#include "trace.hpp"

namespace rvdyn_bench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// Median ns of a fixed integer loop (5 repetitions).
double calibration_ns() {
  std::vector<double> runs;
  for (int r = 0; r < 5; ++r) {
    const std::int64_t t0 = now_ns();
    volatile std::uint64_t sink = 0;
    std::uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 2'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink = x;
    (void)sink;
    runs.push_back(static_cast<double>(now_ns() - t0));
  }
  std::sort(runs.begin(), runs.end());
  return runs[runs.size() / 2];
}

}  // namespace

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string host_fingerprint_json(const std::string& source_digest) {
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\"cpu_model\": \"%s\", \"nproc\": %ld, \"calibration_ns\": "
                "%.0f, \"git_sha\": \"%s\", \"source_digest\": \"%s\", "
                "\"build_type\": \"%s\", \"degraded\": %s}",
                json_escape(cpu_model()).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
                calibration_ns(), RVDYN_GIT_SHA,
                json_escape(source_digest).c_str(), RVDYN_BUILD_TYPE,
                rvdyn::bench::build_is_degraded() ? "true" : "false");
  return buf;
}

}  // namespace rvdyn_bench
