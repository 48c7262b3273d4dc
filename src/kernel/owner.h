// Owner: the unit of resource accounting in Escort (paper Figures 4 and 5).
//
// Every resource in the system — CPU cycles, kernel memory, memory pages,
// thread stacks, events, IOBuffer locks — is charged to an owner, which is
// either a *path* or a *protection domain* (plus the two pseudo-owners the
// kernel itself uses: Kernel and Idle). The structure has three parts,
// exactly as in the paper:
//   1. accounting counters, consulted by security policies,
//   2. tracking lists of the live kernel objects charged to this owner,
//      supporting fast reclamation when the owner is destroyed, and
//   3. scheduling state for the threads this owner owns.

#ifndef SRC_KERNEL_OWNER_H_
#define SRC_KERNEL_OWNER_H_

#include <cstdint>
#include <list>
#include <string>

#include "src/sim/types.h"

namespace escort {

class Thread;
class IoBuffer;
class KernelEvent;
struct Page;

// Protection-domain identifier. Domain 0 is the privileged kernel domain.
using PdId = int;
inline constexpr PdId kKernelDomain = 0;

enum class OwnerType {
  kPath,
  kProtectionDomain,
  kKernel,  // pseudo-owner: softclock, interrupt handling, reclamation
  kIdle,    // pseudo-owner: cycles the CPU spends with nothing runnable
};

const char* OwnerTypeName(OwnerType type);

// Part 1 of the Owner structure: resource counters used to decide whether a
// security policy has been violated.
struct ResourceUsage {
  uint64_t kmem_bytes = 0;   // kernel memory backing objects in the lists
  uint64_t pages = 0;        // memory pages
  uint64_t stacks = 0;       // thread stacks (one per domain a thread enters)
  Cycles cycles = 0;         // CPU cycles consumed
  uint64_t events = 0;       // registered timer events
  uint64_t threads = 0;      // live threads
  uint64_t iobuffer_locks = 0;  // IOBuffer locks held
};

// Scheduling state, interpreted by the configured scheduler.
struct SchedState {
  // Priority scheduler: higher runs first.
  int priority = 0;
  // Proportional-share (stride) scheduler.
  uint64_t tickets = 100;
  uint64_t pass = 0;        // virtual time; owner with smallest pass runs next
  bool pass_initialized = false;
};

// Owners (paths, protection domains) are destroyed by pathDestroy/pathKill
// while deferred work may still reference them: EA001 forbids capturing an
// Owner* (or any subclass pointer) into deferred closures — capture the
// owner id and revalidate instead.
// ESCORT_KERNEL_LIFETIME
class Owner {
 public:
  Owner(OwnerType type, uint64_t id, std::string name)
      : type_(type), id_(id), name_(std::move(name)) {}
  virtual ~Owner() = default;

  Owner(const Owner&) = delete;
  Owner& operator=(const Owner&) = delete;

  OwnerType type() const { return type_; }
  uint64_t id() const { return id_; }
  const std::string& name() const { return name_; }

  ResourceUsage& usage() { return usage_; }
  const ResourceUsage& usage() const { return usage_; }

  SchedState& sched() { return sched_; }
  const SchedState& sched() const { return sched_; }

  bool destroyed() const { return destroyed_; }
  void mark_destroyed() { destroyed_ = true; }

  // Maximum cycles a thread of this owner may run without yielding before
  // the kernel declares it runaway and destroys the owner (paper §3.2).
  // Zero disables the check.
  Cycles max_thread_run() const { return max_thread_run_; }
  void set_max_thread_run(Cycles c) { max_thread_run_ = c; }

  // Whether threads of this owner may cross from domain `from` to domain
  // `to`. Paths override this with their allowed-crossings map (paper §3.1);
  // protection-domain-owned threads never cross (paper §3.2).
  virtual bool CrossingAllowed(PdId from, PdId to) const;

  // Part 2: tracking lists. Objects insert/remove themselves; the kernel
  // walks these to reclaim everything on owner destruction.
  std::list<Thread*>& threads() { return threads_; }
  std::list<IoBuffer*>& iobuffer_locks() { return iobuffer_locks_; }
  std::list<KernelEvent*>& events() { return events_; }
  std::list<Page*>& pages() { return pages_; }

  const std::list<Thread*>& threads() const { return threads_; }
  const std::list<IoBuffer*>& iobuffer_locks() const { return iobuffer_locks_; }
  const std::list<KernelEvent*>& events() const { return events_; }
  const std::list<Page*>& pages() const { return pages_; }

 private:
  const OwnerType type_;
  const uint64_t id_;
  const std::string name_;

  ResourceUsage usage_;
  SchedState sched_;
  Cycles max_thread_run_ = 0;
  bool destroyed_ = false;

  std::list<Thread*> threads_;
  std::list<IoBuffer*> iobuffer_locks_;
  std::list<KernelEvent*> events_;
  std::list<Page*> pages_;
};

}  // namespace escort

#endif  // SRC_KERNEL_OWNER_H_
