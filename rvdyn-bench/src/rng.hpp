// Seeded pseudo-random stream (splitmix64): every benchmark input is drawn
// from one of these, so the same --seed gives the same inputs on any host.
#pragma once

#include <cstdint>

namespace rvdyn_bench {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  int range(int lo, int hi) {
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  /// Uniform double in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  bool chance(double p) { return unit() < p; }

 private:
  std::uint64_t s_;
};

/// Independent sub-seed `k` of `seed` (one per corpus binary, campaign, ...).
inline std::uint64_t derive(std::uint64_t seed, std::uint64_t k) {
  Rng r(seed ^ (0xD1B54A32D192ED03ULL * (k + 1)));
  return r.next();
}

}  // namespace rvdyn_bench
