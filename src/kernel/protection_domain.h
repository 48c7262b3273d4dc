// Protection domains (paper §2.3).
//
// A protection domain is an owner: it holds pages, threads and events of
// its own, plus a *heap*. The kernel only hands out memory at page
// granularity; the domain's heap subdivides pages into smaller objects for
// the paths that cross the domain, transferring the charge to the path (and
// back, via module destructors, when the path is destroyed).
//
// Domain 0 is the privileged kernel domain. On the real hardware, crossings
// are enforced by the Alpha MMU; here the kernel validates each crossing
// against the path's allowed-crossings map and charges the (large, TLB-
// invalidate-dominated) crossing cost to the crossing thread's owner.

#ifndef SRC_KERNEL_PROTECTION_DOMAIN_H_
#define SRC_KERNEL_PROTECTION_DOMAIN_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/kernel/owner.h"
#include "src/kernel/thread.h"

namespace escort {

class Kernel;

class ProtectionDomain : public Owner {
 public:
  ProtectionDomain(Kernel* kernel, PdId pd_id, std::string name, uint64_t owner_id)
      : Owner(OwnerType::kProtectionDomain, owner_id, std::move(name)),
        kernel_(kernel),
        pd_id_(pd_id) {}

  PdId pd_id() const { return pd_id_; }
  bool privileged() const { return pd_id_ == kKernelDomain; }

  // --- Heap -----------------------------------------------------------------
  // Allocates `bytes` of heap memory charged to `for_owner` (a path crossing
  // this domain, or the domain itself). Grows the heap by whole pages from
  // the kernel as needed. Returns false if physical memory is exhausted.
  bool HeapAlloc(Owner* for_owner, uint64_t bytes);

  // Releases a prior HeapAlloc charge.
  void HeapFree(Owner* for_owner, uint64_t bytes);

  // Total bytes a given owner currently has charged from this heap.
  uint64_t HeapChargedTo(const Owner* owner) const;

  // Transfers all of `path_owner`'s outstanding heap charge back to this
  // domain (what a module destructor does on pathDestroy; on pathKill the
  // kernel calls it directly). Returns the number of bytes transferred.
  uint64_t HeapChargeBack(Owner* path_owner);

  uint64_t heap_bytes_in_use() const { return heap_in_use_; }

 private:
  Kernel* const kernel_;
  const PdId pd_id_;

  uint64_t heap_in_use_ = 0;
  uint64_t heap_reserved_ = 0;  // page-granular memory backing the heap
  std::map<const Owner*, uint64_t> heap_charges_;
};

}  // namespace escort

#endif  // SRC_KERNEL_PROTECTION_DOMAIN_H_
