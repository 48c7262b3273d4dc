// Discrete-event queue: the single source of simulated time.
//
// Every actor in the system (the server CPU, network links, the disk, client
// machines) schedules callbacks at absolute cycle times, and the queue runs
// them one at a time. The Escort server is one non-preemptive CPU, so a cell
// is one serial stream of events; parallelism lives across cells (the sweep
// runner, src/sim/parallel.h), never inside one.
//
// Order. Every pending entry carries the key (when, stream, seq, minor) and
// the queue runs entries in key order:
//
//  * Streams name actors. Stream 0 always exists (server, kernel, link
//    bookkeeping); the testbed gives each client machine and attacker its
//    own (NewStream). A callback runs *as* a stream, and the entries it
//    schedules draw `seq` from that stream's counter, so equal-time events
//    fire by stream and then in scheduling order. A queue that never calls
//    NewStream() is FIFO on ties.
//  * A sequenced transaction (PostSequenced) runs after every ordinary
//    event and timer due at its time; `minor` numbers the entries it
//    schedules.
//
// Storage. The heap holds small POD nodes (the key, the transaction flag
// and a generation-tagged reference to a callback slot); callbacks sit in a
// pool of slots that sifts never move. An EventId names a slot and its
// generation, like a TimerId. Firing or cancelling an event frees its slot
// and bumps the generation, so the id goes dead at once; a cancelled
// event's node stays in the heap until it reaches the top, where the
// generation mismatch drops it unfired.
//
// Timers (ScheduleTimerAt) live in a hierarchical timer wheel with O(1) arm
// and cancel. A timer draws the same key a ScheduleAt at that point would
// have drawn, and the queue merges the wheel's due timers with the event
// heap by key, so where a deadline is stored never changes the order.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "src/sim/timer_wheel.h"
#include "src/sim/types.h"

namespace escort {

class EventQueue {
 public:
  using Callback = std::function<void()>;
  // Generation-tagged handles: slot (or wheel entry) index in the high 32
  // bits, its generation in the low 32. Generations start at 1, so 0 is
  // never a live id.
  using EventId = uint64_t;
  using TimerId = uint64_t;
  using StreamId = uint32_t;

  EventQueue() : next_seq_(1, 0) {}
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Current simulated time. Only advances inside RunUntil/Step.
  Cycles now() const { return now_; }

  // Stable reference to the clock, for components that need to observe time
  // without holding the whole queue (e.g. a test's event sink).
  const Cycles& now_ref() const { return now_; }

  // Schedules `fn` to run at absolute time `when`. Times in the past are
  // clamped to `now()`. Returns an id usable with Cancel().
  //
  // Deferred-capture contract (EA001, tools/lint/escort_lint.py):
  // `fn` outlives the current event, so it must not capture raw pointers
  // or references to kernel-lifetime objects (Path, Thread, TcpPcb, ...);
  // capture a value key and revalidate at fire time instead.
  // ESCORT_DEFERRED_API
  EventId ScheduleAt(Cycles when, Callback fn);

  // Schedules `fn` to run `delay` cycles from now.
  // ESCORT_DEFERRED_API
  EventId ScheduleAfter(Cycles delay, Callback fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  // Like ScheduleAt, but `fn` runs as `exec_stream`: the entries it
  // schedules are that stream's actions. The shared link uses it to hand a
  // frame to the receiving machine.
  // ESCORT_DEFERRED_API
  EventId ScheduleAtFrom(StreamId exec_stream, Cycles when, Callback fn);

  // Cancels a pending event. Returns false if it already fired or was
  // cancelled. O(1): the callback slot is freed now, the heap node is
  // dropped when it surfaces.
  bool Cancel(EventId id);

  // Timers: per-connection deadlines (TCP retransmit, delayed ACK, client
  // think time) are armed and cancelled at connection rate, so they live in
  // the timer wheel rather than the heap. Same deferred-capture contract as
  // ScheduleAt (EA001).
  // ESCORT_DEFERRED_API
  TimerId ScheduleTimerAt(Cycles when, Callback fn);

  // ESCORT_DEFERRED_API
  TimerId ScheduleTimerAfter(Cycles delay, Callback fn) {
    return ScheduleTimerAt(now_ + delay, std::move(fn));
  }

  // Cancels an armed timer. False if it fired, was cancelled, or the wheel
  // slot was re-issued (generation mismatch). O(1).
  bool CancelTimer(TimerId id);

  // Posts a sequenced transaction: `fn` runs at the current time, after
  // every ordinary event and timer due then, and among other transactions
  // in (stream, seq) order — never in the order the posters happened to
  // run. now() inside `fn` is still the posting time. The shared link sends
  // every frame this way, so same-time senders are arbitrated by stream.
  // ESCORT_DEFERRED_API
  void PostSequenced(Callback fn);

  // Allocates a new actor stream (stream 0 always exists).
  StreamId NewStream();

  // Stream whose callback is currently running (or the stream set by a
  // StreamScope outside event execution).
  StreamId current_stream() const { return ctx_.stream; }

  // RAII stream setter for testbed construction: actors created and
  // started inside the scope schedule their events on `stream`.
  class StreamScope {
   public:
    StreamScope(EventQueue* eq, StreamId stream) : eq_(eq), prev_(eq->ctx_.stream) {
      eq_->ctx_.stream = stream;
    }
    ~StreamScope() { eq_->ctx_.stream = prev_; }
    StreamScope(const StreamScope&) = delete;
    StreamScope& operator=(const StreamScope&) = delete;

   private:
    EventQueue* eq_;
    StreamId prev_;
  };

  // Wheel occupancy for the bench `memory` block and the
  // `sim.timers_armed` gauge.
  struct TimerWheelStats {
    uint64_t armed = 0;
    uint64_t high_water = 0;
    uint64_t capacity = 0;
    uint64_t bytes_reserved = 0;
  };
  TimerWheelStats timer_stats() const;

  // Fires the next pending entry due at or before `deadline`, advancing
  // time to its deadline. Returns false if there is none.
  bool Step(Cycles deadline = std::numeric_limits<Cycles>::max());

  // Runs entries until `deadline` (inclusive). Time is left at `deadline`
  // even if the queue drains earlier.
  void RunUntil(Cycles deadline);

  // Runs until no entries remain.
  void RunToCompletion();

  // Time of the earliest pending entry; returns false if none.
  bool PeekNext(Cycles* when) const;

  bool empty() const { return pending() == 0; }
  // Pending events, transactions and armed timers.
  size_t pending() const {
    return slots_in_use() + (wheel_ != nullptr ? wheel_->armed() : 0);
  }
  // Events and timers fired (transactions are not counted).
  uint64_t fired_count() const { return fired_; }

  // Callback slots holding a pending event or transaction, and the size of
  // the slot pool (its high-water mark: bounded by the most events ever
  // outstanding at once, not by the events ever scheduled).
  size_t slots_in_use() const { return slots_.size() - free_slots_.size(); }
  size_t slot_count() const { return slots_.size(); }

 private:
  struct Key {
    Cycles when;
    uint64_t seq;
    StreamId stream;
    uint32_t minor;
  };

  // Heap node. Sifts move only these; the callback stays in its slot.
  struct Node {
    Key key;
    uint32_t slot;
    uint32_t gen;  // the slot's generation when the node was pushed
    bool txn;      // sequenced transaction
  };

  // A pending entry's callback and the stream it runs as.
  struct Slot {
    Callback fn;
    StreamId exec = 0;
    uint32_t gen = 1;  // bumped when the entry fires or is cancelled
    bool live = false;
  };

  // Heap comparator: true when `a` runs after `b`.
  struct Later {
    bool operator()(const Node& a, const Node& b) const;
  };

  // What the running callback schedules as.
  struct Context {
    StreamId stream = 0;
    bool sequenced = false;  // inside a transaction body
    uint64_t seq = 0;        // the transaction's seq
    uint32_t next_minor = 0;
  };

  // Key for an entry scheduled now by the running context.
  Key NextKey(Cycles when);
  EventId Push(Key key, StreamId exec, bool txn, Callback fn);
  // Returns slot `index` to the pool; every id and node naming its current
  // generation goes stale.
  void FreeSlot(uint32_t index);
  // Fires the earliest entry if it is due at or before `deadline`.
  bool FireNext(Cycles deadline);
  void RunAs(Context ctx, const Callback& fn);
  // Pops stale (cancelled) nodes off the top of the heap.
  void SkipStale() const;
  // True when the wheel's due-top precedes the heap top; stages the wheel
  // as a side effect.
  bool TimerFirst(TimerKey* tk) const;

  mutable std::vector<Node> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;  // LIFO
  // Lazily created on the first ScheduleTimerAt.
  std::unique_ptr<TimerWheel> wheel_;
  std::vector<uint64_t> next_seq_;  // per stream
  Context ctx_;
  Cycles now_ = 0;
  uint64_t fired_ = 0;
};

}  // namespace escort

#endif  // SRC_SIM_EVENT_QUEUE_H_
