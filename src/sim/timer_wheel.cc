#include "src/sim/timer_wheel.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace escort {

TimerWheel::TimerWheel() {
  for (Level& lv : levels_) {
    std::fill(std::begin(lv.heads), std::end(lv.heads), kNil);
    std::fill(std::begin(lv.occupied), std::end(lv.occupied), uint64_t{0});
  }
}

TimerWheel::~TimerWheel() = default;

size_t TimerWheel::bytes_reserved() const {
  return entries_.capacity() * sizeof(Entry) + due_.capacity() * sizeof(int32_t) +
         sizeof(levels_);
}

int32_t TimerWheel::AllocEntry() {
  if (free_head_ != kNil) {
    int32_t idx = free_head_;
    free_head_ = entries_[static_cast<size_t>(idx)].next;
    entries_[static_cast<size_t>(idx)].next = kNil;
    return idx;
  }
  // Entry indices are int32_t (the high half of an EventQueue::TimerId).
  assert(entries_.size() < (size_t{1} << 31) && "timer wheel entry index overflow");
  int32_t idx = static_cast<int32_t>(entries_.size());
  entries_.emplace_back();
  return idx;
}

void TimerWheel::FreeEntry(int32_t idx) {
  Entry& e = entries_[static_cast<size_t>(idx)];
  e.fn = nullptr;
  ++e.gen;  // every outstanding TimerRef to this incarnation goes stale
  e.state = State::kFree;
  e.alive = false;
  e.prev = kNil;
  e.level = static_cast<int16_t>(kNil);
  e.slot = static_cast<int16_t>(kNil);
  e.next = free_head_;
  free_head_ = idx;
}

void TimerWheel::Place(int32_t idx) {
  Entry& e = entries_[static_cast<size_t>(idx)];
  uint64_t t = TickOf(e.key.when);
  assert(t >= cursor_tick_ && "timer filed behind the wheel cursor");
  // Cursor-relative placement: the lowest level whose rotation (shared
  // high digits with the cursor) still covers the tick. Ticks are 48 bits
  // (64 - kTickBits), so 6 levels x 8 bits always suffice.
  uint64_t diff = t ^ cursor_tick_;
  int level = 0;
  if (diff != 0) {
    int msb = 63 - std::countl_zero(diff);
    level = msb / kSlotBits;
    if (level >= kLevels) {
      level = kLevels - 1;
    }
  }
  size_t slot = (t >> (level * kSlotBits)) & (kSlots - 1);
  Level& lv = levels_[level];
  e.level = static_cast<int16_t>(level);
  e.slot = static_cast<int16_t>(slot);
  e.prev = kNil;
  e.next = lv.heads[slot];
  if (e.next != kNil) {
    entries_[static_cast<size_t>(e.next)].prev = idx;
  }
  lv.heads[slot] = idx;
  lv.occupied[slot >> 6] |= uint64_t{1} << (slot & 63);
  e.state = State::kInSlot;
}

void TimerWheel::Unlink(int32_t idx) {
  Entry& e = entries_[static_cast<size_t>(idx)];
  Level& lv = levels_[e.level];
  size_t slot = static_cast<size_t>(e.slot);
  if (e.prev != kNil) {
    entries_[static_cast<size_t>(e.prev)].next = e.next;
  } else {
    lv.heads[slot] = e.next;
  }
  if (e.next != kNil) {
    entries_[static_cast<size_t>(e.next)].prev = e.prev;
  }
  if (lv.heads[slot] == kNil) {
    lv.occupied[slot >> 6] &= ~(uint64_t{1} << (slot & 63));
  }
  e.prev = kNil;
  e.next = kNil;
}

TimerRef TimerWheel::Arm(const TimerKey& key, uint32_t exec_stream, Callback fn) {
  int32_t idx = AllocEntry();
  Entry& e = entries_[static_cast<size_t>(idx)];
  e.key = key;
  e.fn = std::move(fn);
  e.exec_stream = exec_stream;
  e.alive = true;
  ++armed_;
  if (armed_ > high_water_) {
    high_water_ = armed_;
  }
  if (key.when < collected_boundary()) {
    // The cursor already passed this tick (it can run ahead of execution
    // time): stage directly in the key-ordered due-heap.
    e.state = State::kInDue;
    DuePush(idx);
  } else {
    Place(idx);
    ++slot_live_;
    if (key.when < slot_min_bound_) {
      slot_min_bound_ = key.when;
    }
  }
  return TimerRef{static_cast<uint32_t>(idx), e.gen};
}

bool TimerWheel::Cancel(TimerRef ref) {
  if (ref.index >= entries_.size()) {
    return false;
  }
  Entry& e = entries_[ref.index];
  if (!e.alive || e.gen != ref.gen) {
    return false;
  }
  --armed_;
  if (e.state == State::kInSlot) {
    Unlink(static_cast<int32_t>(ref.index));
    --slot_live_;
    FreeEntry(static_cast<int32_t>(ref.index));
  } else {
    // Already staged in the due-heap: stale the handle now, recycle the
    // entry when the heap pops it (heaps have no O(1) removal).
    e.alive = false;
    ++e.gen;
    e.fn = nullptr;
  }
  return true;
}

void TimerWheel::DrainSlot(int level, size_t slot, bool to_due) {
  Level& lv = levels_[level];
  int32_t idx = lv.heads[slot];
  lv.heads[slot] = kNil;
  lv.occupied[slot >> 6] &= ~(uint64_t{1} << (slot & 63));
  while (idx != kNil) {
    Entry& e = entries_[static_cast<size_t>(idx)];
    int32_t next = e.next;
    e.prev = kNil;
    e.next = kNil;
    if (to_due) {
      e.state = State::kInDue;
      DuePush(idx);
      --slot_live_;
    } else {
      Place(idx);  // cascade: refile downward relative to the advanced cursor
    }
    idx = next;
  }
}

void TimerWheel::Cascade() {
  // The cursor just entered a new level-0 rotation (low 8 bits are zero):
  // refile the outer-level slot(s) that cover it. Placement is absolute
  // (cursor-relative), so refiled entries land at the right level whatever
  // the order. When a level's digit also wrapped to zero, the next level
  // out entered a new slot too.
  for (int level = 1; level < kLevels; ++level) {
    size_t digit = (cursor_tick_ >> (level * kSlotBits)) & (kSlots - 1);
    if (levels_[level].heads[digit] != kNil) {
      DrainSlot(level, digit, /*to_due=*/false);
    }
    if (digit != 0) {
      break;
    }
  }
}

void TimerWheel::CollectUpTo(uint64_t target_tick) {
  while (cursor_tick_ < target_tick) {
    if ((cursor_tick_ & (kSlots - 1)) == 0) {
      Cascade();
    }
    size_t slot0 = cursor_tick_ & (kSlots - 1);
    uint64_t block_end = (cursor_tick_ | (kSlots - 1)) + 1;
    int s = FirstOccupied(levels_[0], slot0);
    if (s != kNil) {
      uint64_t s_tick = (cursor_tick_ & ~uint64_t{kSlots - 1}) | static_cast<uint64_t>(s);
      if (s_tick >= target_tick) {
        cursor_tick_ = target_tick;
        break;
      }
      DrainSlot(0, static_cast<size_t>(s), /*to_due=*/true);
      cursor_tick_ = s_tick + 1;
    } else {
      // Rest of the rotation is empty: jump straight to its boundary.
      if (block_end >= target_tick) {
        cursor_tick_ = target_tick;
        break;
      }
      cursor_tick_ = block_end;
    }
  }
  if (collected_boundary() > slot_min_bound_) {
    slot_min_bound_ = collected_boundary();
  }
}

int TimerWheel::FirstOccupied(const Level& lv, size_t from) const {
  if (from >= kSlots) {
    return kNil;
  }
  size_t word = from >> 6;
  uint64_t bits = lv.occupied[word] & (~uint64_t{0} << (from & 63));
  for (;;) {
    if (bits != 0) {
      return static_cast<int>((word << 6) + static_cast<size_t>(std::countr_zero(bits)));
    }
    if (++word >= kSlots / 64) {
      return kNil;
    }
    bits = lv.occupied[word];
  }
}

bool TimerWheel::SlotMinLowerBound(Cycles* out) const {
  if (slot_live_ == 0) {
    return false;
  }
  // Levels are scanned inward-out: every level-0 entry in the current
  // rotation precedes every entry filed further out. The scan starts at
  // the cursor's own digit (inclusive) — a just-entered rotation may still
  // have its cascade pending.
  int s = FirstOccupied(levels_[0], cursor_tick_ & (kSlots - 1));
  if (s != kNil) {
    *out = ((cursor_tick_ & ~uint64_t{kSlots - 1}) | static_cast<uint64_t>(s)) << kTickBits;
    return true;
  }
  for (int level = 1; level < kLevels; ++level) {
    size_t digit = (cursor_tick_ >> (level * kSlotBits)) & (kSlots - 1);
    int d = FirstOccupied(levels_[level], digit);
    if (d != kNil) {
      uint64_t base = cursor_tick_ & ~((uint64_t{1} << ((level + 1) * kSlotBits)) - 1);
      *out = (base | (static_cast<uint64_t>(d) << (level * kSlotBits))) << kTickBits;
      return true;
    }
  }
  return false;
}

bool TimerWheel::PeekDue(TimerKey* key) {
  for (;;) {
    while (!due_.empty() && !entries_[static_cast<size_t>(due_.front())].alive) {
      FreeEntry(DuePop());
    }
    if (!due_.empty()) {
      const Entry& top = entries_[static_cast<size_t>(due_.front())];
      // No slot entry can precede the due-top once the bound clears it;
      // ties on `when` force a collection so seq order is decided by the
      // due-heap, never by where an entry happened to be filed.
      if (slot_live_ == 0 || top.key.when < slot_min_bound_) {
        *key = top.key;
        return true;
      }
      CollectUpTo(TickOf(top.key.when) + 1);
      continue;
    }
    if (slot_live_ == 0) {
      return false;
    }
    Cycles lb;
    if (!SlotMinLowerBound(&lb)) {
      return false;
    }
    uint64_t target = TickOf(lb) + 1;
    if (target <= cursor_tick_) {
      target = cursor_tick_ + 1;  // pending cascade: force one tick of progress
    }
    CollectUpTo(target);
  }
}

TimerWheel::Callback TimerWheel::PopDue(TimerKey* key, uint32_t* exec_stream) {
  // A preceding PeekDue staged the wheel-wide minimum at due_.front() and
  // swept cancelled tops.
  int32_t idx = DuePop();
  Entry& e = entries_[static_cast<size_t>(idx)];
  *key = e.key;
  *exec_stream = e.exec_stream;
  Callback fn = std::move(e.fn);
  --armed_;
  FreeEntry(idx);
  return fn;
}

void TimerWheel::DuePush(int32_t idx) {
  due_.push_back(idx);
  std::push_heap(due_.begin(), due_.end(), [this](int32_t a, int32_t b) {
    return TimerKeyLess(entries_[static_cast<size_t>(b)].key,
                        entries_[static_cast<size_t>(a)].key);
  });
}

int32_t TimerWheel::DuePop() {
  std::pop_heap(due_.begin(), due_.end(), [this](int32_t a, int32_t b) {
    return TimerKeyLess(entries_[static_cast<size_t>(b)].key,
                        entries_[static_cast<size_t>(a)].key);
  });
  int32_t idx = due_.back();
  due_.pop_back();
  return idx;
}

}  // namespace escort
