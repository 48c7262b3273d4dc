// Parallel runner for independent simulation cells (the sweep harness in
// src/workload/sweep.h is its client).
//
// Contract: jobs must be *isolated* — each job owns its entire mutable
// world (EventQueue, Kernel, testbed) and may only share immutable data
// such as the calibrated CostModel/NetworkModel singletons. Outcomes are
// reported in submission (index) order regardless of completion order, so
// a parallel run is observationally identical to a serial one. A job that
// throws surfaces as a failed outcome for that index — never as a
// deadlock or an abort of the whole sweep.
//
// Raw std::thread lives only in parallel.cc; this header deliberately
// exposes no threading primitives.

#ifndef SRC_SIM_PARALLEL_H_
#define SRC_SIM_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace escort {

// Outcome of one job. When `ok` is false, `error` carries the what() of
// the exception the job threw (or a placeholder for non-std exceptions).
struct JobOutcome {
  bool ok = true;
  std::string error;
};

// Number of hardware threads, always at least 1.
int HardwareConcurrency();

// Runs fn(0), fn(1), ..., fn(count - 1) on min(jobs, count) worker
// threads (jobs <= 0: hardware concurrency) and joins them. Returns one
// outcome per index, in index order; count == 0 starts no thread. No job
// runs on the calling thread: glibc gives the main thread its own malloc
// arena, so a cell run there could report a different peak RSS.
std::vector<JobOutcome> ParallelFor(int jobs, size_t count,
                                    const std::function<void(size_t)>& fn);

// Milliseconds on the host's monotonic clock, for wall-clock perf
// measurement only (the bench JSON `perf` block). Simulated time always
// comes from EventQueue::now(); nothing in simulation logic may branch on
// this value — it exists so sweeps can report events/sec.
double MonotonicMillis();

}  // namespace escort

#endif  // SRC_SIM_PARALLEL_H_
