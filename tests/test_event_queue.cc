#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/sim/rng.h"

namespace escort {
namespace {

TEST(EventQueue, StartsAtTimeZeroAndEmpty) {
  EventQueue eq;
  EXPECT_EQ(eq.now(), 0u);
  EXPECT_TRUE(eq.empty());
  EXPECT_FALSE(eq.Step());
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue eq;
  std::vector<int> order;
  eq.ScheduleAt(300, [&] { order.push_back(3); });
  eq.ScheduleAt(100, [&] { order.push_back(1); });
  eq.ScheduleAt(200, [&] { order.push_back(2); });
  eq.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eq.now(), 300u);
}

TEST(EventQueue, EqualTimesFireInScheduleOrder) {
  EventQueue eq;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    eq.ScheduleAt(50, [&order, i] { order.push_back(i); });
  }
  eq.RunToCompletion();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueue, PastDeadlinesClampToNow) {
  EventQueue eq;
  eq.ScheduleAt(100, [] {});
  eq.RunToCompletion();
  bool fired = false;
  eq.ScheduleAt(10, [&] { fired = true; });  // in the past
  Cycles when = 0;
  ASSERT_TRUE(eq.PeekNext(&when));
  EXPECT_EQ(when, 100u);
  eq.RunToCompletion();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue eq;
  bool fired = false;
  auto id = eq.ScheduleAt(10, [&] { fired = true; });
  EXPECT_TRUE(eq.Cancel(id));
  EXPECT_FALSE(eq.Cancel(id));  // double cancel fails
  eq.RunToCompletion();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, CancelAfterFireFails) {
  EventQueue eq;
  auto id = eq.ScheduleAt(10, [] {});
  eq.RunToCompletion();
  EXPECT_FALSE(eq.Cancel(id));
}

TEST(EventQueue, RunUntilAdvancesTimeEvenWhenIdle) {
  EventQueue eq;
  eq.RunUntil(12345);
  EXPECT_EQ(eq.now(), 12345u);
}

TEST(EventQueue, PastDeadlinesClampToAnIdleAdvancedClock) {
  EventQueue eq;
  eq.RunUntil(12345);
  EXPECT_EQ(eq.now(), 12345u);
  // Scheduling in the past clamps to the clock RunUntil advanced.
  bool fired = false;
  eq.ScheduleAt(10, [&] { fired = true; });
  Cycles when = 0;
  ASSERT_TRUE(eq.PeekNext(&when));
  EXPECT_EQ(when, 12345u);
  eq.RunToCompletion();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, RunUntilDoesNotFireLaterEvents) {
  EventQueue eq;
  bool fired = false;
  eq.ScheduleAt(1000, [&] { fired = true; });
  eq.RunUntil(999);
  EXPECT_FALSE(fired);
  eq.RunUntil(1000);
  EXPECT_TRUE(fired);
}

TEST(EventQueue, EventsCanRescheduleThemselves) {
  EventQueue eq;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) {
      eq.ScheduleAfter(10, tick);
    }
  };
  eq.ScheduleAfter(10, tick);
  eq.RunToCompletion();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(eq.now(), 50u);
}

TEST(EventQueue, PendingCountTracksLiveEvents) {
  EventQueue eq;
  auto a = eq.ScheduleAt(10, [] {});
  eq.ScheduleAt(20, [] {});
  EXPECT_EQ(eq.pending(), 2u);
  eq.Cancel(a);
  EXPECT_EQ(eq.pending(), 1u);
  eq.RunToCompletion();
  EXPECT_EQ(eq.pending(), 0u);
  EXPECT_EQ(eq.fired_count(), 1u);
}

TEST(EventQueue, StepReturnsFalseWhenOnlyCancelledRemain) {
  EventQueue eq;
  auto id = eq.ScheduleAt(10, [] {});
  eq.Cancel(id);
  EXPECT_FALSE(eq.Step());
}

TEST(EventQueue, CancelThenRescheduleYieldsFreshId) {
  EventQueue eq;
  int fired = 0;
  auto a = eq.ScheduleAt(10, [&] { fired = 1; });
  EXPECT_TRUE(eq.Cancel(a));
  auto b = eq.ScheduleAt(10, [&] { fired = 2; });
  EXPECT_NE(a, b);
  EXPECT_FALSE(eq.Cancel(a));  // old id stays dead
  eq.RunToCompletion();
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(eq.Cancel(b));  // fired, not cancellable
}

TEST(EventQueue, PeekNextSkipsCancelledHead) {
  EventQueue eq;
  auto head = eq.ScheduleAt(10, [] {});
  eq.ScheduleAt(20, [] {});
  eq.Cancel(head);
  Cycles when = 0;
  ASSERT_TRUE(eq.PeekNext(&when));
  EXPECT_EQ(when, 20u);  // the cancelled earlier event is invisible
  EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, PeekNextFalseWhenAllCancelled) {
  EventQueue eq;
  auto a = eq.ScheduleAt(10, [] {});
  auto b = eq.ScheduleAt(20, [] {});
  eq.Cancel(a);
  eq.Cancel(b);
  Cycles when = 0;
  EXPECT_FALSE(eq.PeekNext(&when));
  EXPECT_TRUE(eq.empty());
}

// Regression test for unbounded event bookkeeping: the queue once kept one
// entry per event ever scheduled. Fired and cancelled events return their
// callback slots to the pool, so a long run of schedule, cancel, fire keeps
// the pool at the most events ever outstanding at once.
TEST(EventQueue, ConsumedBookkeepingIsCompacted) {
  EventQueue eq;
  constexpr int kRounds = 100000;
  for (int i = 0; i < kRounds; ++i) {
    eq.ScheduleAfter(1, [] {});
    auto cancelled = eq.ScheduleAfter(2, [] {});
    ASSERT_EQ(eq.slots_in_use(), 2u);
    eq.Cancel(cancelled);
    ASSERT_EQ(eq.slots_in_use(), 1u);
    eq.Step();
    ASSERT_EQ(eq.slots_in_use(), 0u);
  }
  EXPECT_EQ(eq.fired_count(), static_cast<uint64_t>(kRounds));
  // One slot per event ever scheduled would be 2 * kRounds.
  EXPECT_EQ(eq.slot_count(), 2u);
}

// Whatever order events are consumed in, the slots in use equal the
// outstanding events, every fired or cancelled id stays dead, and a fresh
// id differs from every earlier id even when it reuses a freed slot.
TEST(EventQueue, CompactionPreservesIdSemantics) {
  EventQueue eq;
  std::vector<EventQueue::EventId> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(eq.ScheduleAt(10 + static_cast<Cycles>(i), [] {}));
  }
  EXPECT_EQ(eq.slots_in_use(), 64u);
  // Cancel a late block first, then the front.
  for (int i = 32; i < 64; ++i) {
    EXPECT_TRUE(eq.Cancel(ids[static_cast<size_t>(i)]));
  }
  EXPECT_EQ(eq.slots_in_use(), 32u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_TRUE(eq.Cancel(ids[static_cast<size_t>(i)]));
  }
  EXPECT_EQ(eq.slots_in_use(), 0u);
  for (auto id : ids) {
    EXPECT_FALSE(eq.Cancel(id));  // every consumed id stays consumed
  }
  std::set<EventQueue::EventId> issued(ids.begin(), ids.end());
  std::vector<EventQueue::EventId> fresh;
  for (int i = 0; i < 64; ++i) {
    fresh.push_back(eq.ScheduleAt(100 + static_cast<Cycles>(i), [] {}));
    EXPECT_TRUE(issued.insert(fresh.back()).second) << "id reissued at " << i;
  }
  EXPECT_EQ(eq.slot_count(), 64u);  // the fresh events reused the freed slots
  EXPECT_EQ(eq.slots_in_use(), 64u);
  for (auto id : ids) {
    EXPECT_FALSE(eq.Cancel(id));  // old ids cannot reach the new occupants
  }
  EXPECT_EQ(eq.slots_in_use(), 64u);
  eq.RunToCompletion();
  EXPECT_EQ(eq.fired_count(), 64u);
  EXPECT_EQ(eq.slots_in_use(), 0u);
  for (auto id : issued) {
    EXPECT_FALSE(eq.Cancel(id));
  }
}

// A cancelled (or fired) event's slot is reused by the next event; the old
// id must neither cancel the new occupant nor let the cancelled event's
// heap node fire it early.
TEST(EventQueue, StaleIdCannotCancelSlotReuser) {
  EventQueue eq;
  std::vector<Cycles> fired_at;
  auto cancelled = eq.ScheduleAt(10, [&] { fired_at.push_back(10); });
  ASSERT_TRUE(eq.Cancel(cancelled));
  auto reuser = eq.ScheduleAt(20, [&] { fired_at.push_back(eq.now()); });
  EXPECT_EQ(eq.slot_count(), 1u);  // same slot, new generation
  EXPECT_NE(reuser, cancelled);
  EXPECT_EQ(reuser >> 32, cancelled >> 32);
  EXPECT_FALSE(eq.Cancel(cancelled));
  EXPECT_EQ(eq.pending(), 1u);
  EXPECT_TRUE(eq.Step());
  EXPECT_EQ(fired_at, (std::vector<Cycles>{20}));  // not at the stale node's 10

  auto fired = eq.ScheduleAt(30, [] {});
  EXPECT_TRUE(eq.Step());
  bool ran = false;
  auto second = eq.ScheduleAt(40, [&] { ran = true; });
  EXPECT_EQ(second >> 32, fired >> 32);
  EXPECT_FALSE(eq.Cancel(fired));
  EXPECT_FALSE(eq.Cancel(reuser));
  eq.RunToCompletion();
  EXPECT_TRUE(ran);
}

// Ids nobody was handed cancel nothing: 0, an index past the pool, and a
// free slot's next generation before it is issued.
TEST(EventQueue, UnissuedIdsCannotCancel) {
  EventQueue eq;
  EXPECT_FALSE(eq.Cancel(0));
  auto id = eq.ScheduleAt(10, [] {});
  EXPECT_FALSE(eq.Cancel(id + (EventQueue::EventId{1} << 32)));
  eq.RunToCompletion();
  EXPECT_FALSE(eq.Cancel(id + 1));
  EXPECT_EQ(eq.slots_in_use(), 0u);
  bool fired = false;
  auto next = eq.ScheduleAt(20, [&] { fired = true; });
  EXPECT_EQ(next, id + 1);  // that generation is issued only now
  eq.RunToCompletion();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, NowRefTracksTheClock) {
  EventQueue eq;
  const Cycles& clock = eq.now_ref();
  EXPECT_EQ(clock, 0u);
  eq.ScheduleAt(40, [] {});
  eq.RunUntil(100);
  EXPECT_EQ(clock, 100u);
}

// Equal-time events are ordered by (stream, seq): a lower stream id wins
// regardless of scheduling order.
TEST(EventQueue, EqualTimesOrderByStreamThenSeq) {
  EventQueue eq;
  EventQueue::StreamId s1 = eq.NewStream();
  std::vector<int> order;
  {
    EventQueue::StreamScope scope(&eq, s1);
    eq.ScheduleAt(10, [&] { order.push_back(10); });  // stream 1, seq 0
    eq.ScheduleAt(10, [&] { order.push_back(11); });  // stream 1, seq 1
  }
  eq.ScheduleAt(10, [&] { order.push_back(0); });  // stream 0, scheduled later
  eq.RunUntil(10);
  EXPECT_EQ(order, (std::vector<int>{0, 10, 11}));
}

TEST(EventQueue, CurrentStreamFollowsScopeAndExecution) {
  EventQueue eq;
  EventQueue::StreamId s1 = eq.NewStream();
  EXPECT_EQ(s1, 1u);  // stream 0 pre-exists
  EXPECT_EQ(eq.current_stream(), 0u);
  EventQueue::StreamId seen = 999;
  EventQueue::StreamId seen_from = 999;
  {
    EventQueue::StreamScope scope(&eq, s1);
    EXPECT_EQ(eq.current_stream(), s1);
    eq.ScheduleAt(5, [&] { seen = eq.current_stream(); });
  }
  EXPECT_EQ(eq.current_stream(), 0u);
  // ScheduleAtFrom hands the callback to another stream.
  eq.ScheduleAtFrom(s1, 6, [&] { seen_from = eq.current_stream(); });
  eq.RunUntil(6);
  EXPECT_EQ(seen, s1);  // the event executed in its scheduling stream
  EXPECT_EQ(seen_from, s1);
}

TEST(EventQueue, PeekAndStepSeeTheMinimumAcrossStreams) {
  EventQueue eq;
  EventQueue::StreamId s1 = eq.NewStream();
  EventQueue::StreamId s2 = eq.NewStream();
  std::vector<int> order;
  {
    EventQueue::StreamScope scope(&eq, s1);
    eq.ScheduleAt(30, [&] { order.push_back(30); });
  }
  {
    EventQueue::StreamScope scope(&eq, s2);
    eq.ScheduleAt(20, [&] { order.push_back(20); });
  }
  Cycles when = 0;
  ASSERT_TRUE(eq.PeekNext(&when));
  EXPECT_EQ(when, 20u);
  EXPECT_TRUE(eq.Step());
  EXPECT_EQ(order, (std::vector<int>{20}));
  EXPECT_EQ(eq.now(), 20u);
  EXPECT_TRUE(eq.Step());
  EXPECT_EQ(order, (std::vector<int>{20, 30}));
  EXPECT_FALSE(eq.Step());
}

// Timers and heap events share one order: at equal times they fire in
// scheduling order whichever structure holds them.
TEST(EventQueue, TimersInterleaveWithEventsInKeyOrder) {
  EventQueue eq;
  std::vector<int> order;
  eq.ScheduleTimerAt(50, [&] { order.push_back(0); });
  eq.ScheduleAt(50, [&] { order.push_back(1); });
  eq.ScheduleTimerAt(50, [&] { order.push_back(2); });
  auto dead = eq.ScheduleTimerAt(50, [&] { order.push_back(-1); });
  eq.ScheduleAt(40, [&] { order.push_back(-40); });
  EXPECT_TRUE(eq.CancelTimer(dead));
  EXPECT_FALSE(eq.CancelTimer(dead));
  EXPECT_EQ(eq.pending(), 4u);
  eq.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{-40, 0, 1, 2}));
  EXPECT_EQ(eq.fired_count(), 4u);
}

// Sequenced transactions run after every ordinary event at their time, in
// (stream, seq) order — not in the order their posters ran — with now()
// still the posting time.
TEST(EventQueue, SequencedTransactionsRunInKeyOrder) {
  EventQueue eq;
  EventQueue::StreamId s1 = eq.NewStream();
  EventQueue::StreamId s2 = eq.NewStream();
  std::vector<std::string> log;
  auto post = [&eq, &log](const std::string& who) {
    eq.PostSequenced([&eq, &log, who] { log.push_back(who + "@" + std::to_string(eq.now())); });
  };
  // Keyed on stream 0 but run as s2, so s2 posts first.
  eq.ScheduleAtFrom(s2, 10, [&post] { post("s2"); });
  {
    EventQueue::StreamScope scope(&eq, s1);
    eq.ScheduleAt(10, [&post] { post("s1"); });
  }
  {
    EventQueue::StreamScope scope(&eq, s2);
    eq.ScheduleAt(10, [&log] { log.push_back("event"); });
  }
  eq.RunUntil(10);
  EXPECT_EQ(log, (std::vector<std::string>{"event", "s1@10", "s2@10"}));
}

// Entries a transaction schedules share its (stream, seq) and fire in the
// order the body scheduled them, ahead of what the poster scheduled after
// posting.
TEST(EventQueue, SequencedChildrenFireInMinorOrder) {
  EventQueue eq;
  EventQueue::StreamId s1 = eq.NewStream();
  std::vector<int> order;
  {
    EventQueue::StreamScope scope(&eq, s1);
    eq.ScheduleAt(10, [&] {
      eq.PostSequenced([&] {
        eq.ScheduleAt(eq.now() + 100, [&] { order.push_back(1); });
        eq.ScheduleAt(eq.now() + 100, [&] { order.push_back(2); });
        eq.ScheduleAt(eq.now() + 100, [&] { order.push_back(3); });
      });
      eq.ScheduleAt(110, [&] { order.push_back(4); });
    });
  }
  eq.RunUntil(2000);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

// --- Differential against a naive sorted reference --------------------------
//
// NaiveQueue restates the queue's contract in its plainest form: one flat
// list of pending entries, each carrying its full key (when, txn, stream,
// seq, minor), and Step fires the key-minimum found by a linear scan.
// Timers are ordinary entries here (the wheel is only storage). A seeded
// Program runs the same random operations against both queues; they must
// fire the same entries at the same times as the same streams, and agree on
// every Cancel, pending() and PeekNext along the way.
class NaiveQueue {
 public:
  using Callback = std::function<void()>;
  using StreamId = uint32_t;
  using EventId = uint64_t;
  using TimerId = uint64_t;

  class StreamScope {
   public:
    StreamScope(NaiveQueue* q, StreamId stream) : q_(q), prev_(q->ctx_.stream) {
      q_->ctx_.stream = stream;
    }
    ~StreamScope() { q_->ctx_.stream = prev_; }
    StreamScope(const StreamScope&) = delete;
    StreamScope& operator=(const StreamScope&) = delete;

   private:
    NaiveQueue* q_;
    StreamId prev_;
  };

  Cycles now() const { return now_; }
  StreamId current_stream() const { return ctx_.stream; }
  size_t pending() const { return entries_.size(); }
  uint64_t fired_count() const { return fired_; }

  StreamId NewStream() {
    next_seq_.push_back(0);
    return static_cast<StreamId>(next_seq_.size() - 1);
  }

  EventId ScheduleAt(Cycles when, Callback fn) {
    return Add(NextKey(when), ctx_.stream, std::move(fn));
  }
  EventId ScheduleAtFrom(StreamId exec, Cycles when, Callback fn) {
    return Add(NextKey(when), exec, std::move(fn));
  }
  TimerId ScheduleTimerAt(Cycles when, Callback fn) { return ScheduleAt(when, std::move(fn)); }
  void PostSequenced(Callback fn) {
    Add(Key{now_, true, ctx_.stream, next_seq_[ctx_.stream]++, 0}, ctx_.stream, std::move(fn));
  }

  bool Cancel(EventId id) {
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].id == id) {
        entries_.erase(entries_.begin() + static_cast<long>(i));
        return true;
      }
    }
    return false;
  }
  bool CancelTimer(TimerId id) { return Cancel(id); }

  bool PeekNext(Cycles* when) const {
    if (entries_.empty()) {
      return false;
    }
    *when = std::get<0>(Min()->key);
    return true;
  }

  bool Step() {
    if (entries_.empty()) {
      return false;
    }
    auto it = entries_.begin() + (Min() - entries_.data());
    Entry e = std::move(*it);
    entries_.erase(it);
    auto [when, txn, stream, seq, minor] = e.key;
    now_ = when;
    Context saved = ctx_;
    if (txn) {
      ctx_ = Context{stream, true, seq, 0};
    } else {
      ctx_ = Context{e.exec, false, 0, 0};
      ++fired_;
    }
    e.fn();
    ctx_ = saved;
    return true;
  }

  void RunUntil(Cycles deadline) {
    Cycles when = 0;
    while (PeekNext(&when) && when <= deadline) {
      Step();
    }
    if (now_ < deadline) {
      now_ = deadline;
    }
  }

  void RunToCompletion() {
    while (Step()) {
    }
  }

 private:
  using Key = std::tuple<Cycles, bool, StreamId, uint64_t, uint32_t>;

  struct Entry {
    Key key;
    StreamId exec;
    Callback fn;
    EventId id;
  };

  struct Context {
    StreamId stream = 0;
    bool sequenced = false;
    uint64_t seq = 0;
    uint32_t next_minor = 0;
  };

  Key NextKey(Cycles when) {
    when = std::max(when, now_);
    if (ctx_.sequenced) {
      return Key{when, false, ctx_.stream, ctx_.seq, ++ctx_.next_minor};
    }
    return Key{when, false, ctx_.stream, next_seq_[ctx_.stream]++, 0};
  }

  EventId Add(Key key, StreamId exec, Callback fn) {
    entries_.push_back(Entry{key, exec, std::move(fn), next_id_});
    return next_id_++;
  }

  const Entry* Min() const {
    return &*std::min_element(entries_.begin(), entries_.end(),
                              [](const Entry& a, const Entry& b) { return a.key < b.key; });
  }

  std::vector<Entry> entries_;
  std::vector<uint64_t> next_seq_ = std::vector<uint64_t>(1, 0);
  Context ctx_;
  Cycles now_ = 0;
  uint64_t fired_ = 0;
  EventId next_id_ = 1;
};

// A seeded random program over one queue type. Every entry gets a label;
// firing logs (label, time, stream) and runs a small random script that
// schedules children — inside a transaction they are minor-keyed. The log
// also records every Cancel result and, after each top-level operation,
// pending(), fired_count() and PeekNext.
template <class Q>
class Program {
 public:
  static constexpr int kStreams = 5;

  explicit Program(uint64_t seed) : rng_(seed) {
    for (int i = 1; i < kStreams; ++i) {
      q_.NewStream();
    }
  }

  std::vector<uint64_t> Run(int ops) {
    for (int i = 0; i < ops; ++i) {
      uint64_t op = rng_.NextBelow(100);
      if (op < 34) {
        typename Q::StreamScope scope(&q_, RandomStream());
        ScheduleRandom();
      } else if (op < 44) {
        CancelLive();
      } else if (op < 49) {
        CancelDead(dead_.empty() ? 0 : rng_.NextBelow(dead_.size()));
      } else if (op < 54) {
        // The most recent casualty's slot is the next one reused: refill it,
        // then try the dead id against its new occupant.
        if (!dead_.empty()) {
          size_t victim = dead_.size() - 1;
          typename Q::StreamScope scope(&q_, RandomStream());
          ScheduleRandom();
          const Issued& dead = issued_[dead_[victim]];
          const Issued& fresh = issued_.back();
          if (dead.kind == Kind::kEvent && fresh.kind == Kind::kEvent &&
              (fresh.handle >> 32) == (dead.handle >> 32)) {
            ++same_slot_cancels_;  // meaningful for EventQueue's slot handles
          }
          CancelDead(victim);
        }
      } else if (op < 90) {
        q_.Step();
      } else {
        q_.RunUntil(q_.now() + RandomDelay());
      }
      Cycles when = 0;
      bool any = q_.PeekNext(&when);
      Log({3, q_.pending(), q_.fired_count(), any ? when + 1 : 0});
    }
    // Drain without scripts so the run ends.
    draining_ = true;
    q_.RunToCompletion();
    Log({4, q_.pending(), q_.fired_count(), q_.now()});
    return log_;
  }

  // Dead-id cancels tried right after a fresh event took the dead one's
  // slot.
  uint64_t same_slot_cancels() const { return same_slot_cancels_; }

 private:
  enum class Kind : uint8_t { kEvent, kTimer, kTxn };

  struct Issued {
    Kind kind;
    uint64_t handle = 0;
    bool live = true;
  };

  uint32_t RandomStream() { return static_cast<uint32_t>(rng_.NextBelow(kStreams)); }

  Cycles RandomDelay() {
    switch (rng_.NextBelow(5)) {
      case 0:
        return 0;  // exact ties with now
      case 1:
        return rng_.NextBelow(4);
      case 2:
        return rng_.NextBelow(200);
      case 3:
        return rng_.NextBelow(1u << 18);  // crosses timer-wheel slots
      default:
        return rng_.NextBelow(5000);
    }
  }

  Cycles RandomWhen() {
    // One in eight lands in the past and is clamped to now.
    if (rng_.NextBelow(8) == 0) {
      return q_.now() - std::min<Cycles>(q_.now(), rng_.NextBelow(100));
    }
    return q_.now() + RandomDelay();
  }

  void ScheduleRandom() {
    uint64_t label = issued_.size();
    auto fire = [this, label] { Fire(label); };
    uint64_t kind = rng_.NextBelow(4);
    if (kind == 3) {
      issued_.push_back({Kind::kTxn});
      q_.PostSequenced(fire);
      return;  // transactions have no id
    }
    Cycles when = RandomWhen();
    if (kind == 0) {
      issued_.push_back({Kind::kEvent, q_.ScheduleAt(when, fire)});
    } else if (kind == 1) {
      uint32_t exec = RandomStream();
      issued_.push_back({Kind::kEvent, q_.ScheduleAtFrom(exec, when, fire)});
    } else {
      issued_.push_back({Kind::kTimer, q_.ScheduleTimerAt(when, fire)});
    }
    live_pos_[label] = live_.size();
    live_.push_back(label);
  }

  void Fire(uint64_t label) {
    Log({1, label, q_.now(), q_.current_stream()});
    Retire(label);
    if (draining_) {
      return;
    }
    // Half the entries schedule nothing, a few schedule two.
    uint64_t children = rng_.NextBelow(8);
    children = children < 4 ? 0 : (children < 7 ? 1 : 2);
    for (uint64_t i = 0; i < children; ++i) {
      ScheduleRandom();
    }
  }

  void Retire(uint64_t label) {
    Issued& e = issued_[label];
    e.live = false;
    if (e.kind == Kind::kTxn) {
      return;
    }
    size_t pos = live_pos_[label];
    live_[pos] = live_.back();
    live_pos_[live_[pos]] = pos;
    live_.pop_back();
    live_pos_.erase(label);
    dead_.push_back(label);
  }

  bool CancelLabel(uint64_t label) {
    const Issued& e = issued_[label];
    return e.kind == Kind::kTimer ? q_.CancelTimer(e.handle) : q_.Cancel(e.handle);
  }

  void CancelLive() {
    if (live_.empty()) {
      return;
    }
    uint64_t label = live_[rng_.NextBelow(live_.size())];
    bool ok = CancelLabel(label);
    EXPECT_TRUE(ok) << "live label " << label;
    Log({2, label, ok ? 1u : 0u});
    Retire(label);
  }

  void CancelDead(size_t index) {
    if (dead_.empty()) {
      return;
    }
    uint64_t label = dead_[index];
    bool ok = CancelLabel(label);
    EXPECT_FALSE(ok) << "dead label " << label;
    Log({2, label, ok ? 1u : 0u});
  }

  void Log(std::initializer_list<uint64_t> record) { log_.insert(log_.end(), record); }

  Q q_;
  Rng rng_;
  std::vector<Issued> issued_;  // by label
  std::vector<uint64_t> live_;  // cancellable labels still pending
  std::map<uint64_t, size_t> live_pos_;
  std::vector<uint64_t> dead_;  // fired or cancelled labels
  std::vector<uint64_t> log_;
  uint64_t same_slot_cancels_ = 0;
  bool draining_ = false;
};

TEST(EventQueue, DifferentialAgainstSortedReference) {
  constexpr int kOps = 100000;
  for (uint64_t seed : {1u, 2027u}) {
    Program<EventQueue> queue(seed);
    Program<NaiveQueue> reference(seed);
    std::vector<uint64_t> got = queue.Run(kOps);
    std::vector<uint64_t> want = reference.Run(kOps);
    size_t same = 0;
    while (same < got.size() && same < want.size() && got[same] == want[same]) {
      ++same;
    }
    EXPECT_EQ(same, want.size()) << "seed " << seed << ": logs diverge at token " << same;
    EXPECT_EQ(got.size(), want.size()) << "seed " << seed;
    // The run must have tried stale ids against their slots' new occupants.
    EXPECT_GT(queue.same_slot_cancels(), 100u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace escort
