#include "src/kernel/scheduler.h"

#include <algorithm>
#include <cassert>

namespace escort {

namespace {

// Removes `t` from a deque, returning true if it was present.
bool EraseFrom(std::deque<Thread*>& dq, Thread* t) {
  auto it = std::find(dq.begin(), dq.end(), t);
  if (it == dq.end()) {
    return false;
  }
  dq.erase(it);
  return true;
}

}  // namespace

// --- PriorityScheduler -----------------------------------------------------

void PriorityScheduler::Enqueue(Thread* t) { ready_[t->owner()->sched().priority].push_back(t); }

Thread* PriorityScheduler::Dequeue() {
  for (auto it = ready_.begin(); it != ready_.end();) {
    if (it->second.empty()) {
      it = ready_.erase(it);
      continue;
    }
    Thread* t = it->second.front();
    it->second.pop_front();
    return t;
  }
  return nullptr;
}

void PriorityScheduler::Remove(Thread* t) {
  for (auto& [prio, dq] : ready_) {
    if (EraseFrom(dq, t)) {
      return;
    }
  }
}

bool PriorityScheduler::Empty() const {
  for (const auto& [prio, dq] : ready_) {
    if (!dq.empty()) {
      return false;
    }
  }
  return true;
}

// --- ProportionalShareScheduler ---------------------------------------------

void ProportionalShareScheduler::Enqueue(Thread* t) {
  SchedState& s = t->owner()->sched();
  if (!s.pass_initialized || s.pass < global_pass_) {
    // A newly arriving (or long-sleeping) owner joins at the current virtual
    // time so it cannot starve others by hoarding credit.
    s.pass = global_pass_;
    s.pass_initialized = true;
  }
  ready_.push_back(Entry{s.pass, next_seq_++, t});
  std::push_heap(ready_.begin(), ready_.end(), Later());
}

Thread* ProportionalShareScheduler::Dequeue() {
  if (ready_.empty()) {
    return nullptr;
  }
  // Re-key the top until its snapshot is its owner's current pass.
  for (;;) {
    Entry& top = ready_.front();
    const uint64_t pass = top.thread->owner()->sched().pass;
    assert(top.pass <= pass && "stride snapshot above its owner's pass");
    if (top.pass == pass) {
      break;
    }
    std::pop_heap(ready_.begin(), ready_.end(), Later());
    ready_.back().pass = pass;
    std::push_heap(ready_.begin(), ready_.end(), Later());
  }
  std::pop_heap(ready_.begin(), ready_.end(), Later());
  Thread* t = ready_.back().thread;
  ready_.pop_back();
  // The global virtual time is the *minimum* pass in the system (the pass
  // of the owner just selected). Arriving owners join at this time: they
  // cannot hoard credit from a sleep, and a high-ticket owner that blocks
  // briefly keeps its low pass — its reservation survives re-joining.
  global_pass_ = t->owner()->sched().pass;
  return t;
}

void ProportionalShareScheduler::Remove(Thread* t) {
  auto it = std::find_if(ready_.begin(), ready_.end(),
                         [t](const Entry& e) { return e.thread == t; });
  if (it != ready_.end()) {
    ready_.erase(it);
    std::make_heap(ready_.begin(), ready_.end(), Later());
  }
}

void ProportionalShareScheduler::AccountRun(Thread* t, Cycles used) {
  SchedState& s = t->owner()->sched();
  uint64_t tickets = s.tickets == 0 ? 1 : s.tickets;
  // Pass advances inversely to the ticket allocation; the scale keeps
  // precision for small runs against large ticket counts.
  s.pass += used * kStrideScale / tickets;
}

bool ProportionalShareScheduler::Empty() const { return ready_.empty(); }

}  // namespace escort
