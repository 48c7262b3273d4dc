#include "src/sim/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

namespace escort {

int HardwareConcurrency() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

std::vector<JobOutcome> ParallelFor(int jobs, size_t count,
                                    const std::function<void(size_t)>& fn) {
  std::vector<JobOutcome> outcomes(count);
  std::atomic<size_t> next{0};
  auto worker = [&] {
    // Each index is claimed once, so a worker writes only its own slots.
    for (size_t i = next++; i < count; i = next++) {
      try {
        fn(i);
      } catch (const std::exception& e) {
        outcomes[i].ok = false;
        outcomes[i].error = e.what();
      } catch (...) {
        outcomes[i].ok = false;
        outcomes[i].error = "non-standard exception";
      }
    }
  };
  const size_t threads =
      std::min(static_cast<size_t>(jobs <= 0 ? HardwareConcurrency() : jobs), count);
  // A jthread joins when destroyed, so the workers already started are
  // joined even if starting the next one throws.
  std::vector<std::jthread> workers;
  workers.reserve(threads);
  for (size_t w = 0; w < threads; ++w) {
    workers.emplace_back(worker);
  }
  for (std::jthread& w : workers) {
    w.join();
  }
  return outcomes;
}

double MonotonicMillis() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace escort
