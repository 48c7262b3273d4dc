// escort_lint self-test fixture: EA lookalikes that must stay silent.
//
// Exercises the lookalikes next to each rule: value-key revalidation,
// immediate (non-deferred) callables, id-keyed iteration.
// The checker must report nothing for this file.
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

// ESCORT_KERNEL_LIFETIME
class Session {
 public:
  uint64_t id() const;
  void Poke();
};

class SessionTable {
 public:
  Session* FindLive(uint64_t id);
};

class DelayLine {
 public:
  // ESCORT_DEFERRED_API
  void ScheduleAfter(uint64_t delay, std::function<void()> fn);
};

class CleanWorker {
 public:
  // Value key + revalidation through the table: the EA001-clean idiom.
  void Defer(DelayLine* line, SessionTable* table, Session* session) {
    uint64_t key = session->id();
    line->ScheduleAfter(5, [table, key] {
      Session* live = table->FindLive(key);
      if (live != nullptr) {
        live->Poke();
      }
    });
  }

  // visitor_ runs its argument immediately; raw capture is fine.
  void Inline(Session* session) {
    visitor_([session] { session->Poke(); });
  }

  uint64_t Drain() {
    uint64_t total = 0;
    for (const auto& entry : by_key_) {
      total += entry.second;
    }
    return total;
  }

 private:
  std::function<void(std::function<void()>)> visitor_;
  std::map<uint64_t, uint64_t> by_key_;
};
