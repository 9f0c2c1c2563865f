// Fan one callable across a fixed number of worker threads.
#pragma once

#include <thread>
#include <vector>

namespace rvdyn {

/// Run `fn(worker_idx)` on `n` workers: n-1 spawned threads plus the
/// calling thread as worker 0. Returns once every worker has returned.
template <typename Fn>
void run_on_workers(unsigned n, Fn&& fn) {
  if (n <= 1) {
    fn(0u);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(n - 1);
  for (unsigned w = 1; w < n; ++w) threads.emplace_back([&fn, w] { fn(w); });
  fn(0u);
  for (auto& t : threads) t.join();
}

}  // namespace rvdyn
