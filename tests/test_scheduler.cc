// Scheduler tests: priority ordering and proportional-share (stride)
// ratios. The proportional-share property test is the foundation of the QoS
// experiments (Figures 10 and 11).

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/kernel/scheduler.h"
#include "src/sim/rng.h"

namespace escort {
namespace {

struct SchedFixture {
  EventQueue eq;
  std::unique_ptr<Kernel> kernel;
  std::vector<std::unique_ptr<Owner>> owners;

  explicit SchedFixture(SchedulerKind kind) {
    KernelConfig kc;
    kc.scheduler = kind;
    kc.start_softclock = false;
    kernel = std::make_unique<Kernel>(&eq, kc);
  }

  Owner* NewOwner(const std::string& name) {
    owners.push_back(
        std::make_unique<Owner>(OwnerType::kKernel, kernel->NextOwnerId(), name));
    kernel->RegisterOwner(owners.back().get(), name);
    return owners.back().get();
  }

  // Runs `setup` inside a work item so the CPU is busy while threads are
  // enqueued — the scheduler, not arrival order, decides what runs next.
  void EnqueueWhileBusy(std::function<void()> setup) {
    Owner* dummy = NewOwner("dummy-setup");
    Thread* d = kernel->CreateThread(dummy, "setup");
    d->Push(10, kKernelDomain, std::move(setup), /*yields=*/true);
  }
};

TEST(PriorityScheduler, HigherPriorityRunsFirst) {
  SchedFixture f(SchedulerKind::kPriority);
  Owner* low = f.NewOwner("low");
  Owner* high = f.NewOwner("high");
  low->sched().priority = 1;
  high->sched().priority = 10;

  std::vector<char> order;
  Thread* tl = f.kernel->CreateThread(low, "low");
  Thread* th = f.kernel->CreateThread(high, "high");
  // Schedule low first; high must still run first once both are ready.
  f.EnqueueWhileBusy([&] {
    tl->Push(100, kKernelDomain, [&] { order.push_back('l'); }, true);
    th->Push(100, kKernelDomain, [&] { order.push_back('h'); }, true);
  });
  f.eq.RunToCompletion();
  EXPECT_EQ(order, (std::vector<char>{'h', 'l'}));
}

TEST(PriorityScheduler, FifoWithinSamePriority) {
  SchedFixture f(SchedulerKind::kPriority);
  Owner* o = f.NewOwner("o");
  std::vector<int> order;
  Thread* a = f.kernel->CreateThread(o, "a");
  Thread* b = f.kernel->CreateThread(o, "b");
  f.EnqueueWhileBusy([&] {
    a->Push(100, kKernelDomain, [&] { order.push_back(1); }, true);
    b->Push(100, kKernelDomain, [&] { order.push_back(2); }, true);
    a->Push(100, kKernelDomain, [&] { order.push_back(3); }, true);
  });
  f.eq.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// Property: with continuously backlogged owners, CPU shares converge to the
// ticket ratio. Parameterized over ticket splits.
class StrideShareTest : public ::testing::TestWithParam<std::pair<uint64_t, uint64_t>> {};

TEST_P(StrideShareTest, SharesProportionalToTickets) {
  auto [tickets_a, tickets_b] = GetParam();
  SchedFixture f(SchedulerKind::kProportionalShare);
  Owner* a = f.NewOwner("a");
  Owner* b = f.NewOwner("b");
  a->sched().tickets = tickets_a;
  b->sched().tickets = tickets_b;

  Thread* ta = f.kernel->CreateThread(a, "a");
  Thread* tb = f.kernel->CreateThread(b, "b");

  // Keep both owners backlogged: every item re-queues itself, yielding.
  // The loop closures must not own themselves (shared_ptr cycle), so the
  // test scope holds them and the closure captures a raw pointer.
  std::vector<std::unique_ptr<std::function<void()>>> loops;
  auto feed = [&](Thread* t) {
    loops.push_back(std::make_unique<std::function<void()>>());
    std::function<void()>* loop = loops.back().get();
    *loop = [t, loop] { t->Push(1000, kKernelDomain, *loop, /*yields=*/true); };
    t->Push(1000, kKernelDomain, *loop, /*yields=*/true);
  };
  feed(ta);
  feed(tb);
  f.eq.RunUntil(CyclesFromMillis(50));

  double share_a = static_cast<double>(a->usage().cycles);
  double share_b = static_cast<double>(b->usage().cycles);
  double expected = static_cast<double>(tickets_a) / static_cast<double>(tickets_b);
  EXPECT_NEAR(share_a / share_b, expected, expected * 0.06)
      << "a=" << share_a << " b=" << share_b;
}

INSTANTIATE_TEST_SUITE_P(TicketRatios, StrideShareTest,
                         ::testing::Values(std::make_pair(100ull, 100ull),
                                           std::make_pair(200ull, 100ull),
                                           std::make_pair(400ull, 100ull),
                                           std::make_pair(1000ull, 100ull),
                                           std::make_pair(100ull, 300ull)));

TEST(StrideScheduler, ReservationSurvivesBlocking) {
  // A high-ticket owner that blocks briefly between work bursts must still
  // receive its share against a continuously-backlogged low-ticket owner —
  // the regression behind the QoS stream undershoot.
  SchedFixture f(SchedulerKind::kProportionalShare);
  Owner* qos = f.NewOwner("qos");
  Owner* best_effort = f.NewOwner("be");
  qos->sched().tickets = 5000;
  best_effort->sched().tickets = 100;

  Thread* tq = f.kernel->CreateThread(qos, "qos");
  Thread* tb = f.kernel->CreateThread(best_effort, "be");

  // Best-effort: continuously backlogged. The closure must not own itself
  // (shared_ptr cycle), so the test scope holds it and the closure captures
  // a raw pointer.
  std::function<void()> floop_fn;
  std::function<void()>* floop = &floop_fn;
  floop_fn = [tb, floop] { tb->Push(2000, kKernelDomain, *floop, true); };
  tb->Push(2000, kKernelDomain, floop_fn, true);

  // QoS: paced bursts every 100us, each needing 60us of CPU (60% demand).
  std::function<void()> burst_fn;
  std::function<void()>* burst = &burst_fn;
  EventQueue* eq = &f.eq;
  burst_fn = [tq, burst, eq] {
    tq->Push(18'000, kKernelDomain, nullptr, true);
    eq->ScheduleAfter(CyclesFromMicros(100), *burst);
  };
  f.eq.ScheduleAfter(CyclesFromMicros(100), burst_fn);

  f.eq.RunUntil(CyclesFromMillis(50));
  // Demand is 60%; it must get (close to) all of it.
  double got = static_cast<double>(qos->usage().cycles) /
               static_cast<double>(f.eq.now());
  EXPECT_GT(got, 0.55);
}

TEST(Schedulers, RemoveDropsThreadFromReadyQueue) {
  for (SchedulerKind kind : {SchedulerKind::kPriority, SchedulerKind::kProportionalShare}) {
    SchedFixture f(kind);
    Owner* o = f.NewOwner("o");
    Thread* t = f.kernel->CreateThread(o, "t");
    int ran = 0;
    f.EnqueueWhileBusy([&] {
      t->Push(100, kKernelDomain, [&] { ++ran; }, true);
      t->Push(100, kKernelDomain, [&] { ++ran; }, true);
      f.kernel->StopThread(t);
    });
    f.eq.RunToCompletion();
    EXPECT_EQ(ran, 0) << "scheduler kind " << static_cast<int>(kind);
  }
}

// --- Oracle: the stride heap against the scan it replaced -------------------
//
// ScanStride is the proportional-share scheduler before its heap: ready
// threads in a deque in enqueue order, removed ones left as null tombstones,
// and a Dequeue that scans every ready thread for the minimum pass, ties to
// the earliest enqueue.
class ScanStride {
 public:
  void Enqueue(Thread* t) {
    SchedState& s = t->owner()->sched();
    if (!s.pass_initialized || s.pass < global_pass_) {
      s.pass = global_pass_;
      s.pass_initialized = true;
    }
    ready_.push_back(t);
    ++live_;
  }

  Thread* Dequeue() {
    auto best = ready_.end();
    for (auto it = ready_.begin(); it != ready_.end(); ++it) {
      if (*it == nullptr) {
        continue;
      }
      if (best == ready_.end() ||
          (*it)->owner()->sched().pass < (*best)->owner()->sched().pass) {
        best = it;
      }
    }
    if (best == ready_.end()) {
      return nullptr;
    }
    Thread* t = *best;
    *best = nullptr;
    --live_;
    CollectTombstones();
    global_pass_ = t->owner()->sched().pass;
    return t;
  }

  void Remove(Thread* t) {
    auto it = std::find(ready_.begin(), ready_.end(), t);
    if (it != ready_.end()) {
      *it = nullptr;
      --live_;
      CollectTombstones();
    }
  }

  void AccountRun(Thread* t, Cycles used) {
    SchedState& s = t->owner()->sched();
    uint64_t tickets = s.tickets == 0 ? 1 : s.tickets;
    s.pass += used * (uint64_t{1} << 20) / tickets;
  }

  bool Empty() const { return live_ == 0; }
  uint64_t global_pass() const { return global_pass_; }

 private:
  void CollectTombstones() {
    while (!ready_.empty() && ready_.front() == nullptr) {
      ready_.pop_front();
    }
    if (ready_.size() > 2 * live_) {
      ready_.erase(std::remove(ready_.begin(), ready_.end(), nullptr), ready_.end());
    }
  }

  std::deque<Thread*> ready_;
  size_t live_ = 0;
  uint64_t global_pass_ = 0;
};

// Drives ProportionalShareScheduler and ScanStride through the same seeded
// operations over two mirrored sets of owners and threads (each scheduler
// keeps passes in its own owners) and requires the same Dequeue sequence.
TEST(StrideScheduler, HeapMatchesScanOracle) {
  constexpr int kOwners = 32;
  constexpr int kOps = 50000;
  const uint64_t kTickets[] = {50, 100, 100, 200, 400, 800};
  const Cycles kUsed[] = {500, 1000, 2000, 4000, 1000, 3000};
  SchedFixture f(SchedulerKind::kProportionalShare);
  Rng rng(13);

  struct Mirror {
    Thread* heap;  // scheduled by the heap, in the heap's owner
    Thread* scan;  // the same thread in the oracle's owner
    size_t owner;
    bool queued = false;
  };
  std::vector<Mirror> threads;
  std::vector<Owner*> scan_owners;
  for (int i = 0; i < kOwners; ++i) {
    std::string name = "o" + std::to_string(i);
    Owner* a = f.NewOwner(name);
    Owner* b = f.NewOwner(name + "-oracle");
    a->sched().tickets = b->sched().tickets = kTickets[rng.NextBelow(std::size(kTickets))];
    scan_owners.push_back(b);
    uint64_t n = 1 + rng.NextBelow(4);
    for (uint64_t j = 0; j < n; ++j) {
      threads.push_back({f.kernel->CreateThread(a, name), f.kernel->CreateThread(b, name),
                         static_cast<size_t>(i)});
    }
  }
  std::map<Thread*, size_t> index_of;
  for (size_t i = 0; i < threads.size(); ++i) {
    index_of[threads[i].heap] = i;
  }
  std::vector<int> asleep_until(kOwners, 0);  // owners sitting out a long sleep

  ProportionalShareScheduler heap;
  ScanStride scan;
  std::vector<size_t> queued;
  auto queued_of_owner = [&](size_t owner) {
    return std::count_if(queued.begin(), queued.end(),
                         [&](size_t q) { return threads[q].owner == owner; });
  };
  auto unqueue = [&](size_t i) {
    threads[i].queued = false;
    queued.erase(std::find(queued.begin(), queued.end(), i));
  };
  int ties = 0;
  int rekeys = 0;
  int rejoins = 0;
  int middle_removes = 0;
  size_t running = threads.size();  // none yet
  // `op` counts the operations applied to both schedulers; draws that find
  // nothing to do are redrawn.
  for (int op = 0; op < kOps; ++op) {
    uint64_t r = rng.NextBelow(100);
    if (r < 45) {
      size_t i = rng.NextBelow(threads.size());
      if (threads[i].queued || i == running || asleep_until[threads[i].owner] > op) {
        --op;
        continue;
      }
      const SchedState& s = threads[i].scan->owner()->sched();
      if (s.pass_initialized && s.pass < scan.global_pass()) {
        ++rejoins;
      }
      heap.Enqueue(threads[i].heap);
      scan.Enqueue(threads[i].scan);
      threads[i].queued = true;
      queued.push_back(i);
    } else if (r < 80) {
      // Count equal minimum passes among the ready owners.
      std::set<size_t> at_min;
      uint64_t min_pass = ~uint64_t{0};
      for (size_t q : queued) {
        uint64_t pass = scan_owners[threads[q].owner]->sched().pass;
        if (pass < min_pass) {
          min_pass = pass;
          at_min.clear();
        }
        if (pass == min_pass) {
          at_min.insert(threads[q].owner);
        }
      }
      ties += at_min.size() > 1 ? 1 : 0;
      Thread* got = heap.Dequeue();
      Thread* want = scan.Dequeue();
      ASSERT_EQ(got == nullptr, want == nullptr) << "op " << op;
      if (got == nullptr) {
        continue;
      }
      size_t i = index_of.at(got);
      ASSERT_EQ(threads[i].scan, want) << "op " << op << ": the heap chose thread " << i;
      unqueue(i);
      running = i;
      Cycles used = kUsed[rng.NextBelow(std::size(kUsed))];
      if (queued_of_owner(threads[i].owner) > 0) {
        ++rekeys;  // the owner's waiting threads now hold stale snapshots
      }
      heap.AccountRun(threads[i].heap, used);
      scan.AccountRun(threads[i].scan, used);
      if (rng.NextBelow(50) == 0) {
        asleep_until[threads[i].owner] = op + 1000 + static_cast<int>(rng.NextBelow(3000));
      }
    } else if (r < 88) {
      // Charge a waiting thread's owner directly.
      if (queued.empty()) {
        --op;
        continue;
      }
      size_t i = queued[rng.NextBelow(queued.size())];
      Cycles used = kUsed[rng.NextBelow(std::size(kUsed))];
      ++rekeys;
      heap.AccountRun(threads[i].heap, used);
      scan.AccountRun(threads[i].scan, used);
    } else {
      // Remove a ready thread that is neither the oldest nor the newest.
      if (queued.size() < 3) {
        --op;
        continue;
      }
      size_t i = queued[1 + rng.NextBelow(queued.size() - 2)];
      ++middle_removes;
      heap.Remove(threads[i].heap);
      scan.Remove(threads[i].scan);
      unqueue(i);
    }
    ASSERT_EQ(heap.Empty(), scan.Empty()) << "op " << op;
  }
  // Drain both.
  while (!scan.Empty()) {
    Thread* got = heap.Dequeue();
    ASSERT_NE(got, nullptr);
    ASSERT_EQ(threads[index_of.at(got)].scan, scan.Dequeue());
  }
  EXPECT_TRUE(heap.Empty());
  // Every path the heap's exactness argument relies on was exercised.
  EXPECT_GT(ties, 1000);
  EXPECT_GT(rekeys, 1000);
  EXPECT_GT(rejoins, 100);
  EXPECT_GT(middle_removes, 1000);
}

}  // namespace
}  // namespace escort
