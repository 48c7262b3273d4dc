// Thread schedulers. Escort configures the scheduler at build time (paper
// §3.2): a priority scheduler and a proportional-share scheduler (used for
// the QoS experiments and by the web server).
//
// Scheduling state lives in the *owner* (paper Figure 4): all threads of an
// owner share its priority / ticket allocation.

#ifndef SRC_KERNEL_SCHEDULER_H_
#define SRC_KERNEL_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/kernel/thread.h"

namespace escort {

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  // Adds a ready thread. A thread is enqueued at most once.
  virtual void Enqueue(Thread* t) = 0;

  // Removes and returns the next thread to run; nullptr if none ready.
  virtual Thread* Dequeue() = 0;

  // Removes a thread wherever it is queued (blocking / destruction).
  virtual void Remove(Thread* t) = 0;

  // Charges `used` cycles of CPU to the owner for scheduling purposes
  // (proportional share advances the owner's pass; others ignore it).
  virtual void AccountRun(Thread* t, Cycles used) = 0;

  virtual bool Empty() const = 0;
  virtual const char* name() const = 0;
};

// Strict priority with FIFO order within a priority level.
// Owner::sched().priority — larger value runs first.
class PriorityScheduler : public Scheduler {
 public:
  void Enqueue(Thread* t) override;
  Thread* Dequeue() override;
  void Remove(Thread* t) override;
  void AccountRun(Thread* /*t*/, Cycles /*used*/) override {}
  bool Empty() const override;
  const char* name() const override { return "priority"; }

 private:
  // priority -> FIFO of threads; iterate from the highest priority.
  std::map<int, std::deque<Thread*>, std::greater<int>> ready_;
};

// Stride (proportional-share) scheduling. Each owner holds tickets; the
// owner with the smallest pass value runs next and its pass advances in
// inverse proportion to its tickets. This is the scheduler that sustains the
// 1 MB/s QoS stream in Figures 10 and 11.
//
// Ready threads sit in a binary min-heap keyed (pass snapshot, enqueue
// sequence). An owner's pass only grows while its threads wait (AccountRun
// adds; Enqueue raises only a pass below global_pass_, which no queued owner
// has), so a snapshot is a lower bound on its owner's current pass. Dequeue
// re-keys the top until its snapshot is current; that top then has the
// minimum current pass, ties going to the earliest enqueue — the thread a
// scan of every ready thread would pick.
class ProportionalShareScheduler : public Scheduler {
 public:
  void Enqueue(Thread* t) override;
  Thread* Dequeue() override;
  void Remove(Thread* t) override;
  void AccountRun(Thread* t, Cycles used) override;
  bool Empty() const override;
  const char* name() const override { return "proportional-share"; }

 private:
  static constexpr uint64_t kStrideScale = 1 << 20;

  struct Entry {
    uint64_t pass;  // the owner's pass when keyed; never above its current pass
    uint64_t seq;   // enqueue order
    Thread* thread;
  };

  // Heap comparator: true when `a` runs after `b`.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.pass != b.pass ? a.pass > b.pass : a.seq > b.seq;
    }
  };

  std::vector<Entry> ready_;
  uint64_t next_seq_ = 0;
  uint64_t global_pass_ = 0;
};

}  // namespace escort

#endif  // SRC_KERNEL_SCHEDULER_H_
