// The path abstraction (paper §2.2, §3.1): a logical channel through the
// module graph over which I/O data flows. A path is an Owner — the entity
// all per-connection resources are charged to — and encapsulates (1) the
// sequence of stages applied to data moving through the system and (2) the
// threads scheduled to execute it.
//
// Mirrors the paper's Path structure: owner state, the hash of allowed
// protection-domain crossings, the stage list and a thread pool. The
// paper's four source/sink queues and reference count are not modelled:
// work reaches a path only as DeliverAt items, and nothing holds a path
// across a pathDestroy.

#ifndef SRC_PATH_PATH_H_
#define SRC_PATH_PATH_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/elib/message.h"
#include "src/kernel/kernel.h"
#include "src/path/attribute.h"
#include "src/path/module.h"

namespace escort {

class PathManager;

// One module's contribution to a path. Stages die with their path (they
// live in Path::stages_), so a Stage* is as dangerous to capture into a
// deferred closure as the Path* itself — capture the stage index and
// re-derive through a revalidated path.
// ESCORT_KERNEL_LIFETIME
class Stage {
 public:
  Module* module = nullptr;
  Path* path = nullptr;
  int index = 0;
  PdId pd = kKernelDomain;
  std::unique_ptr<StageState> state;
  std::function<void(Path*, Stage*)> destructor;

  template <typename T>
  T* state_as() {
    return static_cast<T*>(state.get());
  }
};

// Paths are reclaimed at arbitrary times by pathKill (runaway detection,
// policy action) and lazily freed at the next demux safe point; a raw
// Path* in a deferred closure is a use-after-free waiting for an attack
// burst. Capture path->id() and revalidate via PathManager::FindLive.
// ESCORT_KERNEL_LIFETIME
class Path : public Owner {
 public:
  Path(Kernel* kernel, PathManager* manager, std::string name);
  ~Path() override;

  Kernel* kernel() const { return kernel_; }
  PathManager* manager() const { return manager_; }

  // --- Stages -----------------------------------------------------------
  const std::vector<std::unique_ptr<Stage>>& stages() const { return stages_; }
  Stage* stage(size_t index) { return index < stages_.size() ? stages_[index].get() : nullptr; }
  Stage* AppendStage(Module* module, std::unique_ptr<StageState> state,
                     std::function<void(Path*, Stage*)> destructor);
  // Finds the first stage contributed by `module`; nullptr if none.
  Stage* StageOf(const Module* module);
  // The protection domains of all stages, in order (the read-mapping set
  // for messages that travel the whole path).
  std::vector<PdId> StageDomains() const;
  // Number of distinct protection domains the path crosses.
  int DistinctDomainCount() const;

  // --- Allowed protection-domain crossings ---------------------------------
  void AllowCrossing(PdId from, PdId to);
  bool CrossingAllowed(PdId from, PdId to) const override;

  // --- Attributes (invariants fixed at creation) -----------------------------
  Attributes attrs;

  // --- Thread pool -------------------------------------------------------------
  void SpawnThreads(size_t count);
  Thread* GrabThread();

  // --- Delivery ------------------------------------------------------------------
  // Schedules `msg` to be processed by the stage at `index`, moving in
  // `dir`, as a work item on one of the path's threads. `extra_cost` is
  // prepended to the item (e.g. interrupt + demux cycles for the first hop).
  // Every hop yields by default: Escort module code yields at stage
  // boundaries, which is what makes the runaway budget (CPU *without*
  // yielding) selective for misbehaving code.
  void DeliverAt(size_t index, Direction dir, Message msg, Cycles extra_cost = 0,
                 bool yields = true);
  // Continue from a stage to its neighbour.
  void ForwardUp(const Stage& from, Message msg);
  void ForwardDown(const Stage& from, Message msg);

  // Total work items currently queued across the pool (overload signal; the
  // demux engine drops frames for backlogged paths like a full NIC ring).
  size_t PendingItems() const;

  // --- Kernel-side cleanup ---------------------------------------------------
  // Callbacks run on ANY reclamation — pathDestroy and pathKill alike —
  // before the owner's resources are torn down. This is for *kernel-
  // maintained* registrations (demux map entries) that must never dangle;
  // module destructors, by contrast, are skipped by pathKill.
  void AddKernelCleanup(std::function<void()> fn) { kernel_cleanups_.push_back(std::move(fn)); }

 private:
  friend class PathManager;

  Kernel* const kernel_;
  PathManager* const manager_;
  std::vector<std::unique_ptr<Stage>> stages_;
  std::set<std::pair<PdId, PdId>> allowed_crossings_;
  std::vector<Thread*> pool_;
  size_t next_thread_ = 0;
  std::vector<std::function<void()>> kernel_cleanups_;
};

}  // namespace escort

#endif  // SRC_PATH_PATH_H_
