// escort_lint self-test fixture: EA001 deferred-capture safety.
//
// A lambda handed to a deferred API outlives the current event; raw
// pointers/references to kernel-lifetime objects inside it dangle when the
// owner is reclaimed (pathKill) before the closure fires. The clean idiom
// captures a value key and revalidates through the manager at fire time.
#include <cstdint>
#include <functional>
#include <utility>

// ESCORT_KERNEL_LIFETIME
class Path {
 public:
  uint64_t id() const { return id_; }
  void Touch();

 private:
  uint64_t id_ = 0;
};

class EventQueue {
 public:
  // ESCORT_DEFERRED_API
  void ScheduleAt(uint64_t at, std::function<void()> fn);
  // ESCORT_DEFERRED_API
  void PostSequenced(std::function<void()> fn);
  uint64_t now() const;
};

class PathManager {
 public:
  Path* FindLive(uint64_t id);
};

class Module {
 public:
  void BadRawPointer(EventQueue* eq, Path* path) {
    eq->ScheduleAt(10, [path] { path->Touch(); });  // EXPECT: EA001
  }

  void BadReference(EventQueue* eq, Path& path) {
    eq->ScheduleAt(10, [&path] { path.Touch(); });  // EXPECT: EA001
  }

  void BadCaptureDefault(EventQueue* eq, Path* path) {
    eq->PostSequenced([=] { path->Touch(); });  // EXPECT: EA001
  }

  void BadInitCapture(EventQueue* eq, Path* path) {
    eq->ScheduleAt(10, [p = path] { p->Touch(); });  // EXPECT: EA001
  }

  // Value key + revalidation: the blessed pattern.
  void GoodRevalidated(EventQueue* eq, PathManager* pm, Path* path) {
    uint64_t path_id = path->id();
    eq->ScheduleAt(10, [pm, path_id] {
      Path* live = pm->FindLive(path_id);
      if (live != nullptr) {
        live->Touch();
      }
    });
  }

  // Immediate invocation is not deferral; raw captures are fine here.
  void GoodImmediate(Path* path) {
    Apply([path] { path->Touch(); });
  }

  void SuppressedWithReason(EventQueue* eq, Path* path) {
    eq->ScheduleAt(10, [path] { path->Touch(); });  // NOLINT-EA001(closure is drained before any reclaim point in this fixture)
  }

  void SuppressedWithoutReason(EventQueue* eq, Path* path) {
    eq->ScheduleAt(10, [path] { path->Touch(); });  // NOLINT-EA001()  // EXPECT: EA000
  }

 private:
  void Apply(std::function<void()> fn);
};
