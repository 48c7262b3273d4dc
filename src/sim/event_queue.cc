#include "src/sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

namespace escort {

namespace {

constexpr Cycles kNever = std::numeric_limits<Cycles>::max();

}  // namespace

bool EventQueue::Later::operator()(const Node& a, const Node& b) const {
  if (a.key.when != b.key.when) {
    return a.key.when > b.key.when;
  }
  if (a.txn != b.txn) {
    return a.txn;  // transactions run after every event at their time
  }
  if (a.key.stream != b.key.stream) {
    return a.key.stream > b.key.stream;
  }
  if (a.key.seq != b.key.seq) {
    return a.key.seq > b.key.seq;
  }
  return a.key.minor > b.key.minor;
}

EventQueue::Key EventQueue::NextKey(Cycles when) {
  if (when < now_) {
    when = now_;
  }
  if (ctx_.sequenced) {
    // Entries a transaction schedules share its (stream, seq).
    return Key{when, ctx_.seq, ctx_.stream, ++ctx_.next_minor};
  }
  return Key{when, next_seq_[ctx_.stream]++, ctx_.stream, 0};
}

EventQueue::EventId EventQueue::Push(Key key, StreamId exec, bool txn, Callback fn) {
  uint32_t index;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    assert(slots_.size() < (size_t{1} << 32) && "event slot index overflow");
    index = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  slot.exec = exec;
  slot.live = true;
  heap_.push_back(Node{key, index, slot.gen, txn});
  std::push_heap(heap_.begin(), heap_.end(), Later());
  return (static_cast<EventId>(index) << 32) | slot.gen;
}

void EventQueue::FreeSlot(uint32_t index) {
  Slot& slot = slots_[index];
  slot.fn = nullptr;
  slot.live = false;
  if (++slot.gen == 0) {
    // Generations never wrap: a slot whose generation is spent is retired,
    // so a stale id or node can never match a later occupant.
    return;
  }
  free_slots_.push_back(index);
}

EventQueue::EventId EventQueue::ScheduleAt(Cycles when, Callback fn) {
  return Push(NextKey(when), ctx_.stream, false, std::move(fn));
}

EventQueue::EventId EventQueue::ScheduleAtFrom(StreamId exec_stream, Cycles when, Callback fn) {
  return Push(NextKey(when), exec_stream, false, std::move(fn));
}

void EventQueue::PostSequenced(Callback fn) {
  // One seq from the posting stream, consumed now, fixes the key no matter
  // what else runs at this time.
  Push(Key{now_, next_seq_[ctx_.stream]++, ctx_.stream, 0}, ctx_.stream, true, std::move(fn));
}

bool EventQueue::Cancel(EventId id) {
  const uint32_t index = static_cast<uint32_t>(id >> 32);
  if (index >= slots_.size()) {
    return false;
  }
  const Slot& slot = slots_[index];
  if (!slot.live || slot.gen != static_cast<uint32_t>(id)) {
    return false;
  }
  FreeSlot(index);
  return true;
}

EventQueue::TimerId EventQueue::ScheduleTimerAt(Cycles when, Callback fn) {
  if (wheel_ == nullptr) {
    wheel_ = std::make_unique<TimerWheel>();
  }
  Key key = NextKey(when);
  TimerRef ref =
      wheel_->Arm(TimerKey{key.when, key.stream, key.seq, key.minor}, ctx_.stream, std::move(fn));
  return (static_cast<TimerId>(ref.index) << 32) | ref.gen;
}

bool EventQueue::CancelTimer(TimerId id) {
  return wheel_ != nullptr &&
         wheel_->Cancel(TimerRef{static_cast<uint32_t>(id >> 32), static_cast<uint32_t>(id)});
}

EventQueue::StreamId EventQueue::NewStream() {
  next_seq_.push_back(0);
  return static_cast<StreamId>(next_seq_.size() - 1);
}

void EventQueue::SkipStale() const {
  while (!heap_.empty() && slots_[heap_.front().slot].gen != heap_.front().gen) {
    std::pop_heap(heap_.begin(), heap_.end(), Later());
    heap_.pop_back();
  }
}

bool EventQueue::TimerFirst(TimerKey* tk) const {
  if (wheel_ == nullptr || !wheel_->PeekDue(tk)) {
    return false;
  }
  if (heap_.empty()) {
    return true;
  }
  const Node& top = heap_.front();
  if (tk->when != top.key.when) {
    return tk->when < top.key.when;
  }
  if (top.txn) {
    return true;
  }
  return TimerKeyLess(*tk, TimerKey{top.key.when, top.key.stream, top.key.seq, top.key.minor});
}

void EventQueue::RunAs(Context ctx, const Callback& fn) {
  Context saved = ctx_;
  ctx_ = ctx;
  fn();
  ctx_ = saved;
}

bool EventQueue::FireNext(Cycles deadline) {
  SkipStale();
  TimerKey tk;
  if (TimerFirst(&tk)) {
    if (tk.when > deadline) {
      return false;
    }
    StreamId exec = 0;
    TimerWheel::Callback fn = wheel_->PopDue(&tk, &exec);
    now_ = tk.when;
    ++fired_;
    RunAs(Context{exec}, fn);
    return true;
  }
  if (heap_.empty() || heap_.front().key.when > deadline) {
    return false;
  }
  std::pop_heap(heap_.begin(), heap_.end(), Later());
  const Node node = heap_.back();
  heap_.pop_back();
  // Move the callback out and free its slot before running it: the id is
  // dead once the entry fires, and the callback may schedule into the slot.
  Slot& slot = slots_[node.slot];
  Callback fn = std::move(slot.fn);
  const StreamId exec = slot.exec;
  FreeSlot(node.slot);
  now_ = node.key.when;
  if (node.txn) {
    RunAs(Context{node.key.stream, true, node.key.seq, 0}, fn);
  } else {
    ++fired_;
    RunAs(Context{exec}, fn);
  }
  return true;
}

bool EventQueue::Step(Cycles deadline) { return FireNext(deadline); }

void EventQueue::RunUntil(Cycles deadline) {
  while (FireNext(deadline)) {
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

void EventQueue::RunToCompletion() {
  while (FireNext(kNever)) {
  }
}

bool EventQueue::PeekNext(Cycles* when) const {
  SkipStale();
  TimerKey tk;
  if (TimerFirst(&tk)) {
    *when = tk.when;
    return true;
  }
  if (heap_.empty()) {
    return false;
  }
  *when = heap_.front().key.when;
  return true;
}

EventQueue::TimerWheelStats EventQueue::timer_stats() const {
  TimerWheelStats stats;
  if (wheel_ != nullptr) {
    stats.armed = wheel_->armed();
    stats.high_water = wheel_->high_water();
    stats.capacity = wheel_->capacity();
    stats.bytes_reserved = wheel_->bytes_reserved();
  }
  return stats;
}

}  // namespace escort
