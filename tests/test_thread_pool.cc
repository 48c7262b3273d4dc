// Unit tests for the sweep's parallel runner (src/sim/parallel.h): outcome
// ordering, exception containment, edge cases (zero jobs, more workers
// than jobs), the worker-count bound, and clean shutdown with a full
// kernel + AuditScope world alive inside every cell.

#include "src/sim/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/kernel/audit.h"
#include "src/kernel/kernel.h"

namespace escort {
namespace {

// Threads in this process, from /proc/self/status; -1 if unreadable.
int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::stoi(line.substr(8));
    }
  }
  return -1;
}

TEST(ThreadPool, HardwareConcurrencyIsPositive) { EXPECT_GE(HardwareConcurrency(), 1); }

TEST(ThreadPool, OutcomesArriveInIndexOrder) {
  std::vector<int> values(64, -1);
  std::vector<JobOutcome> outcomes =
      ParallelFor(4, values.size(), [&](size_t i) { values[i] = static_cast<int>(i) * 3; });
  ASSERT_EQ(outcomes.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_TRUE(outcomes[i].ok) << i;
    EXPECT_EQ(values[i], static_cast<int>(i) * 3);
  }
}

TEST(ThreadPool, OrderingHoldsWhenCompletionOrderIsScrambled) {
  // Early indices sleep longest, so completion order is roughly reversed;
  // the outcome vector must still be index-ordered.
  std::vector<size_t> completion_order;
  std::mutex mu;
  std::vector<JobOutcome> outcomes = ParallelFor(8, 8, [&](size_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds((8 - i) * 3));
    std::lock_guard<std::mutex> lock(mu);
    completion_order.push_back(i);
  });
  ASSERT_EQ(outcomes.size(), 8u);
  ASSERT_EQ(completion_order.size(), 8u);
  for (const JobOutcome& o : outcomes) {
    EXPECT_TRUE(o.ok);
  }
}

TEST(ThreadPool, ExceptionSurfacesAsFailedJobNotAbort) {
  std::vector<JobOutcome> outcomes = ParallelFor(4, 10, [](size_t i) {
    if (i == 3) {
      throw std::runtime_error("cell 3 exploded");
    }
    if (i == 7) {
      throw 42;  // non-std exception must also be contained
    }
  });
  ASSERT_EQ(outcomes.size(), 10u);
  EXPECT_FALSE(outcomes[3].ok);
  EXPECT_NE(outcomes[3].error.find("cell 3 exploded"), std::string::npos);
  EXPECT_FALSE(outcomes[7].ok);
  EXPECT_EQ(outcomes[7].error, "non-standard exception");
  for (size_t i : {0u, 1u, 2u, 4u, 5u, 6u, 8u, 9u}) {
    EXPECT_TRUE(outcomes[i].ok) << i;
  }

  // A failing run leaves nothing behind: the next one still works.
  std::atomic<int> ran{0};
  std::vector<JobOutcome> again = ParallelFor(4, 4, [&](size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 4);
  for (const JobOutcome& o : again) {
    EXPECT_TRUE(o.ok);
  }
}

TEST(ThreadPool, ZeroJobsReturnsImmediately) {
  std::vector<JobOutcome> outcomes = ParallelFor(4, 0, [](size_t) { FAIL(); });
  EXPECT_TRUE(outcomes.empty());
}

TEST(ThreadPool, MoreWorkersThanJobs) {
  std::atomic<int> ran{0};
  std::vector<JobOutcome> outcomes = ParallelFor(8, 3, [&](size_t) { ++ran; });
  EXPECT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(ran.load(), 3);
}

// ParallelFor starts min(jobs, count) workers, never `jobs` of them for a
// smaller grid.
TEST(ThreadPool, StartsNoMoreWorkersThanJobs) {
  auto rise = [](int jobs, size_t count) {
    const int before = ProcessThreads();
    int peak = before;
    std::mutex mu;
    ParallelFor(jobs, count, [&](size_t) {
      const int now = ProcessThreads();
      std::lock_guard<std::mutex> lock(mu);
      peak = std::max(peak, now);
    });
    return peak - before;
  };
  ASSERT_GT(ProcessThreads(), 0);
  // A sanitizer runtime may start a helper thread with the process's first
  // thread (TSan does); start it here so the counts below see only workers.
  ParallelFor(1, 1, [](size_t) {});
  EXPECT_LE(rise(8, 2), 2);
  EXPECT_LE(rise(0, 64), HardwareConcurrency());
}

TEST(ThreadPool, ParallelForOneShot) {
  std::vector<int> values(16, 0);
  std::vector<JobOutcome> outcomes =
      ParallelFor(4, values.size(), [&](size_t i) { values[i] = 1; });
  EXPECT_EQ(outcomes.size(), 16u);
  for (int v : values) {
    EXPECT_EQ(v, 1);
  }
}

// Every cell owns a full simulation world — EventQueue + Kernel with an
// enforcing-capable AuditScope — created and destroyed on a worker thread.
// The workers must be joined cleanly afterwards; under TSan this also
// proves the per-cell worlds share no mutable state.
TEST(ThreadPool, CleanShutdownWithAuditScopePerCell) {
  std::vector<JobOutcome> outcomes = ParallelFor(4, 8, [](size_t i) {
    EventQueue eq;
    KernelConfig kc;
    kc.accounting = (i % 2) == 0;
    kc.start_softclock = false;  // it reschedules forever; RunToCompletion must drain
    Kernel kernel(&eq, kc);
    AuditScope audit(&kernel);
    Thread* t = kernel.CreateThread(kernel.kernel_owner(), "cell");
    t->Push(5'000, kKernelDomain, nullptr, true);
    eq.RunToCompletion();
  });
  for (const JobOutcome& o : outcomes) {
    EXPECT_TRUE(o.ok) << o.error;
  }
}

}  // namespace
}  // namespace escort
