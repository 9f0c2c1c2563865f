#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace rvdyn_bench {

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Options& opts, Tracer& tr) {
  if (name == "rewrite") return make_rewrite(opts, tr);
  if (name == "profile") return make_profile(opts, tr);
  if (name == "fuzz") return make_fuzz(opts, tr);
  throw std::invalid_argument("unknown workload: " + name);
}

double sorted_at(std::vector<double> v, std::size_t r) {
  if (v.empty()) return 0;
  r = std::min(r, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(r), v.end());
  return v[r];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const std::size_t n = v.size();
  std::sort(v.begin(), v.end());
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double tail(const std::vector<double>& v, std::size_t* rank) {
  const std::size_t n = v.size();
  // 1-based rank with n - r >= 10 samples beyond it; with 10 or fewer
  // samples no percentile qualifies and the maximum is reported.
  const std::size_t r = n > 10 ? n - 10 : n;
  if (rank) *rank = r;
  return n == 0 ? 0 : sorted_at(v, r - 1);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

std::map<std::string, std::uint64_t> registry_values() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& s : rvdyn::obs::Registry::instance().snapshot())
    if (s.kind == rvdyn::obs::MetricKind::Counter) out[s.name] = s.value;
  return out;
}

double delta(const std::map<std::string, std::uint64_t>& before,
             const std::map<std::string, std::uint64_t>& after,
             const std::string& name) {
  const auto a = after.find(name);
  if (a == after.end()) return 0;
  const auto b = before.find(name);
  return static_cast<double>(a->second) -
         static_cast<double>(b == before.end() ? 0 : b->second);
}

}  // namespace rvdyn_bench

namespace rvdyn_bench {

void RegistryWindow::end() {
  const auto after = registry_values();
  for (const auto& [name, v] : after) totals_[name] += delta(before_, after, name);
}

void add_gauges(Metrics& acc, std::initializer_list<const char*> names) {
  for (const char* n : names)
    acc[n] += static_cast<double>(rvdyn::obs::Registry::instance().value(n));
}

}  // namespace rvdyn_bench
