// Hierarchical timer wheel: O(1) arm/cancel for per-connection timers.
//
// Per-connection TCP timers (retransmit, delayed ACK, CLOSE_WAIT auto-close,
// client think time) are armed and cancelled millions of times per cell at
// million-client scale; pushing each through the event heap costs O(log n)
// per operation against heaps that are mostly *other connections' timers*.
// The wheel files an armed timer into one of 6 cascading levels of 256 slots
// (level-0 slot width 2^16 sim-cycles ≈ 218 µs at 300 MHz; each level is
// 256x coarser, 6 levels cover the whole 64-bit cycle range) — an array
// store, O(1). Cancel unlinks the doubly-linked slot entry, O(1).
//
// Exactness contract: the wheel is a *staging structure*, never an ordering
// authority. Every armed timer carries the full total-order key
// (when, stream, seq, minor) assigned by the event queue, and expiry goes
// through a two-stage path: CollectUpTo moves whole slots whose tick the
// cursor has reached into a key-ordered due-heap, and PeekDue/PopDue only
// ever surface the key-minimum of that heap, after proving (via the
// occupancy bitmaps) that no slot still holds an earlier entry. The queue
// then merges the wheel's due-top against its event heap by the same key —
// so timers fire exactly in key order, ties and all. tests/test_timer_wheel.cc drives ~100k randomized ops against a naive
// reference heap and asserts identical fire order.
//
// Handles are generation-tagged (index, gen) like slab ConnHandles: Cancel
// of a fired or re-armed timer is rejected by the generation check, never by
// luck.
//
// Owned by one EventQueue; no locking.

#ifndef SRC_SIM_TIMER_WHEEL_H_
#define SRC_SIM_TIMER_WHEEL_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/types.h"

namespace escort {

// Full deterministic-order key: the (when, stream, seq, minor) key the
// event queue orders its heap by.
struct TimerKey {
  Cycles when = 0;
  uint32_t stream = 0;
  uint64_t seq = 0;
  uint32_t minor = 0;
};

inline bool TimerKeyLess(const TimerKey& a, const TimerKey& b) {
  if (a.when != b.when) return a.when < b.when;
  if (a.stream != b.stream) return a.stream < b.stream;
  if (a.seq != b.seq) return a.seq < b.seq;
  return a.minor < b.minor;
}

// Generation-tagged reference to an armed timer.
struct TimerRef {
  uint32_t index = 0;
  uint32_t gen = 0;
};

class TimerWheel {
 public:
  using Callback = std::function<void()>;

  TimerWheel();
  ~TimerWheel();
  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  // Files a timer. `key.when` must be >= the time of every timer already
  // fired (the cursor never moves backwards). O(1).
  TimerRef Arm(const TimerKey& key, uint32_t exec_stream, Callback fn);

  // Cancels an armed timer; false if it already fired, was cancelled, or
  // the slot was re-issued (generation mismatch). O(1).
  bool Cancel(TimerRef ref);

  // True if any timer is armed; on true, *key is the key-minimum armed
  // timer, staged at the top of the due-heap (collecting slots as needed).
  bool PeekDue(TimerKey* key);

  // Pops the due-top surfaced by a preceding PeekDue and returns its
  // callback; the timer's handle goes stale before the callback is handed
  // back.
  Callback PopDue(TimerKey* key, uint32_t* exec_stream);

  // Live armed timers (slots + due-heap).
  size_t armed() const { return armed_; }
  size_t high_water() const { return high_water_; }
  size_t capacity() const { return entries_.capacity(); }
  size_t bytes_reserved() const;

 private:
  static constexpr int kLevels = 6;
  static constexpr int kSlotBits = 8;
  static constexpr size_t kSlots = size_t{1} << kSlotBits;  // 256 per level
  static constexpr int kTickBits = 16;  // level-0 slot width in cycles
  static constexpr int32_t kNil = -1;

  enum class State : uint8_t { kFree, kInSlot, kInDue };

  struct Entry {
    TimerKey key;
    Callback fn;
    uint32_t gen = 1;
    uint32_t exec_stream = 0;
    int32_t prev = kNil;  // slot list links (next doubles as freelist link)
    int32_t next = kNil;
    int16_t level = kNil;
    int16_t slot = kNil;
    State state = State::kFree;
    bool alive = false;
  };

  struct Level {
    int32_t heads[kSlots];
    uint64_t occupied[kSlots / 64];
  };

  static uint64_t TickOf(Cycles when) { return when >> kTickBits; }
  Cycles collected_boundary() const { return cursor_tick_ << kTickBits; }

  int32_t AllocEntry();
  void FreeEntry(int32_t idx);
  // Files entries_[idx] into (level, slot) by the cursor-relative placement
  // rule; requires TickOf(key.when) >= cursor_tick_.
  void Place(int32_t idx);
  void Unlink(int32_t idx);
  // Moves every entry of the slot into the due-heap (level 0) or refiles it
  // downward (cascade).
  void DrainSlot(int level, size_t slot, bool to_due);
  // Advances the cursor so every slot entry with tick < target_tick is in
  // the due-heap; cascades outer levels at rotation boundaries.
  void CollectUpTo(uint64_t target_tick);
  void Cascade();
  // First occupied slot index >= from at `level`, or kNil.
  int FirstOccupied(const Level& lv, size_t from) const;
  // Lower bound on the earliest slot-filed entry (bitmap scan); false when
  // no entries are filed.
  bool SlotMinLowerBound(Cycles* out) const;

  void DuePush(int32_t idx);
  int32_t DuePop();

  std::vector<Entry> entries_;
  int32_t free_head_ = kNil;
  Level levels_[kLevels];
  std::vector<int32_t> due_;  // min-heap of entry indices, by full key
  uint64_t cursor_tick_ = 0;  // slot entries all have tick >= cursor_tick_
  size_t armed_ = 0;          // live timers (slots + due)
  size_t slot_live_ = 0;      // live timers still filed in slots
  // Invariant: no slot-filed entry has when < slot_min_bound_. Raised to
  // the collected boundary after collections, lowered by arms — lets the
  // hot PeekDue path skip the bitmap scan entirely.
  Cycles slot_min_bound_ = 0;
  size_t high_water_ = 0;
};

}  // namespace escort

#endif  // SRC_SIM_TIMER_WHEEL_H_
