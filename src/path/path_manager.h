// PathManager: the kernel-resident engine behind pathCreate, pathDestroy,
// pathKill and incremental demultiplexing (paper §2.2, §3.1).

#ifndef SRC_PATH_PATH_MANAGER_H_
#define SRC_PATH_PATH_MANAGER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/path/module_graph.h"
#include "src/path/path.h"

namespace escort {

class PathManager {
 public:
  PathManager(Kernel* kernel, ModuleGraph* graph);
  ~PathManager();

  PathManager(const PathManager&) = delete;
  PathManager& operator=(const PathManager&) = delete;

  Kernel* kernel() { return kernel_; }
  ModuleGraph* graph() { return graph_; }

  // pathCreate: establishes a path incrementally, invoking Open on
  // `start` and following the chain of next-modules it returns. Consecutive
  // modules must be connected in the graph. `account_label` groups the
  // path's cycles in accounting reports ("Main Active Path", ...).
  // `threads` sizes the path's thread pool.
  Path* Create(Module* start, const Attributes& attrs, const std::string& account_label,
               size_t threads = 1);

  // pathDestroy: invokes the module destructors in initialization order,
  // then reclaims all resources.
  void Destroy(Path* path);

  // pathKill: immediate reclamation; destructors are NOT invoked. Returns
  // the reclamation cost in cycles (the Table 2 metric).
  Cycles Kill(Path* path);

  // Incremental demux of an incoming message starting at `start`
  // (typically the receiving driver). Side-effect free until the unique
  // path is identified; then the message is scheduled onto that path with
  // the interrupt + demux cycles charged to it. Dropped messages consume
  // their cycles on the kernel's interrupt thread.
  // Returns the identified path, or nullptr when dropped.
  Path* DemuxAndDeliver(Module* start, Message msg, const char** drop_reason = nullptr);

  // Maximum work items a path may have pending before incoming frames for
  // it are dropped (full-ring behaviour under overload).
  void set_input_backlog_limit(size_t n) { backlog_limit_ = n; }

  const std::vector<Path*>& live_paths() const { return live_list_; }
  size_t live_count() const { return paths_.size(); }

  // Owner-id lookup, nullptr once the path has been reclaimed (retired
  // paths are NOT found). This is the revalidation point for deferred
  // work: closures capture path->id() instead of the Path* (EA001) and
  // re-resolve here at fire time.
  Path* FindLive(uint64_t owner_id);

  uint64_t destroyed_count() const { return destroyed_; }
  uint64_t killed_count() const { return killed_; }
  uint64_t demux_drops() const { return demux_drops_; }
  uint64_t backlog_drops() const { return backlog_drops_; }
  // Demux drops with this reason so far (0 for a reason never seen).
  uint64_t drop_count(const std::string& reason) const;

  // Clears lazily retired path objects (safe point housekeeping).
  void ReapRetired();

  // Teardown observer: invoked at the top of every reclamation (Destroy and
  // Kill alike), while the path's usage ledger is still intact; `killed` is
  // true for pathKill reclamations. The ledger-baseline detector
  // (src/server/detect.h) samples per-class resource consumption here —
  // clean teardowns only, so a killed runaway never poisons the baseline.
  // Runs before kernel cleanups, so the hook sees the final
  // cycle/page/IOBuffer charges.
  void set_teardown_hook(std::function<void(Path*, bool killed)> hook) {
    teardown_hook_ = std::move(hook);
  }

 private:
  Cycles ReclaimPath(Path* path, bool killed);

  Kernel* const kernel_;
  ModuleGraph* const graph_;
  Thread* interrupt_thread_ = nullptr;

  std::map<Path*, std::unique_ptr<Path>> paths_;
  std::map<uint64_t, Path*> by_id_;  // owner id -> live path (FindLive)
  std::vector<Path*> live_list_;
  std::vector<std::unique_ptr<Path>> retired_;

  std::function<void(Path*, bool)> teardown_hook_;
  size_t backlog_limit_ = 192;
  uint64_t created_ = 0;
  uint64_t destroyed_ = 0;
  uint64_t killed_ = 0;
  uint64_t demux_drops_ = 0;
  uint64_t backlog_drops_ = 0;
  // Per drop reason: the count, and the registry counter
  // `path.demux_drops.<reason>` (null without metrics), registered once at
  // the reason's first drop.
  struct DropReason {
    uint64_t count = 0;
    MetricCounter* metric = nullptr;
  };
  std::map<std::string, DropReason> drop_reasons_;
};

}  // namespace escort

#endif  // SRC_PATH_PATH_MANAGER_H_
