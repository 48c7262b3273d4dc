// IOBuffers (paper §3.3): page-granular buffers used to pass blocks of data
// between protection domains without copying. Similar to FBufs, but with a
// more elaborate reference-counting scheme and more restrictive mapping
// rules:
//
//  * An IOBuffer is allocated to an owner — the current protection domain,
//    or a path crossing the current domain. Owned by the current domain it
//    maps read/write there; owned by a path it maps read/write in the
//    current domain and read-only in the other domains along the path.
//  * The identifier of the domain allowed to write is stored in the buffer
//    itself (first long word). Locking increments the refcount and revokes
//    all write permission (writer id set to 0), so a locked buffer can be
//    checked for consistency and never changes under the checker.
//  * Unlocking decrements the refcount; at zero the buffer moves to a buffer
//    cache. A cache hit that already has read mappings in the same domains
//    only upgrades the current domain to read/write — no cleaning, one
//    mapping change.
//  * A pre-existing buffer can be *associated* with a second owner (web
//    cache use case); the second owner is fully charged and the buffer is
//    locked on its behalf.

#ifndef SRC_KERNEL_IOBUFFER_H_
#define SRC_KERNEL_IOBUFFER_H_

#include <cstdint>
#include <list>
#include <map>
#include <utility>
#include <vector>

#include "src/kernel/owner.h"
#include "src/kernel/thread.h"

namespace escort {

class Kernel;
class IoBufferManager;

enum class MapPerm : uint8_t { kNone = 0, kRead = 1, kReadWrite = 2 };

// Buffers are reclaimed when the last lock drops (cache eviction) or when
// an owner dies (ReleaseAllFor during pathKill): deferred closures must
// capture the buffer id, not the IoBuffer*.
// ESCORT_KERNEL_LIFETIME
class IoBuffer {
 public:
  uint64_t id() const { return id_; }
  uint64_t size() const { return data_.size(); }

  // Total outstanding locks across all holders.
  int lock_count() const { return lock_count_; }
  bool locked() const { return lock_count_ > 0; }

  // Domain currently allowed to write. kNoWriter (the paper's "0") while
  // locked.
  static constexpr PdId kNoWriter = -1;
  PdId writer_pd() const { return writer_pd_; }

  MapPerm PermFor(PdId pd) const;
  bool CanRead(PdId pd) const { return PermFor(pd) != MapPerm::kNone; }
  bool CanWrite(PdId pd) const { return PermFor(pd) == MapPerm::kReadWrite && writer_pd_ == pd; }

  // Data access, permission-checked against the accessing domain (this is
  // the software analogue of the MMU). Returns false on a protection fault.
  bool Write(PdId pd, uint64_t offset, const void* src, uint64_t len);
  bool Read(PdId pd, uint64_t offset, void* dst, uint64_t len) const;

  // Unchecked views for the kernel.
  std::vector<uint8_t>& bytes() { return data_; }
  const std::vector<uint8_t>& bytes() const { return data_; }

  // Number of distinct owners currently charged for this buffer.
  size_t holder_count() const { return holders_.size(); }

  uint64_t fault_count() const { return fault_count_; }

 private:
  friend class IoBufferManager;

  struct Holder {
    int locks = 0;
    std::list<IoBuffer*>::iterator link;  // position in owner->iobuffer_locks()
  };

  IoBuffer(uint64_t id, uint64_t size) : id_(id), data_(size, 0) {}

  // Permission upsert helpers over the flat mappings_ vector.
  void SetMapping(PdId pd, MapPerm perm);
  void AddMappingIfAbsent(PdId pd, MapPerm perm);

  uint64_t id_;
  PdId writer_pd_ = kNoWriter;
  int lock_count_ = 0;
  std::map<Owner*, Holder> holders_;
  // Flat vector, not a map: a buffer maps into the handful of domains along
  // one path, and PermFor sits on the data-access fast path (every
  // permission-checked Read/Write), where a linear scan of 2-4 entries
  // beats tree traversal.
  std::vector<std::pair<PdId, MapPerm>> mappings_;
  std::vector<uint8_t> data_;
  bool in_cache_ = false;
  // Position in the manager's live list (valid while !in_cache_) or in its
  // size bucket (valid while in_cache_): makes live->cache and cache->live
  // transitions O(1) instead of a list scan per transition.
  std::list<IoBuffer*>::iterator link_;
  mutable uint64_t fault_count_ = 0;
};

// Kernel-side IOBuffer management: allocation (with cache), locking,
// association, reclamation. Cycle costs are charged by the Kernel wrappers;
// this class implements the mechanics and invariants.
class IoBufferManager {
 public:
  IoBufferManager() = default;
  ~IoBufferManager();

  IoBufferManager(const IoBufferManager&) = delete;
  IoBufferManager& operator=(const IoBufferManager&) = delete;

  // Allocates a buffer of `size` bytes (rounded up to whole pages), owned by
  // `owner`, writable from `current_pd`, read-only in `read_domains` (the
  // domains along the owning path). Consults the buffer cache first. The
  // new buffer starts with one lock held by `owner`. `cache_hit` (optional)
  // reports whether the cache satisfied the request.
  IoBuffer* Alloc(Owner* owner, uint64_t size, PdId current_pd,
                  const std::vector<PdId>& read_domains, bool* cache_hit = nullptr);

  // Locks on behalf of `locker`: refcount++, revokes write permission.
  void Lock(IoBuffer* buf, Owner* locker);

  // Unlocks for `locker`: refcount--; at zero the buffer enters the cache.
  void Unlock(IoBuffer* buf, Owner* locker);

  // Associates a buffer with a second owner: adds read mappings for
  // `read_domains`, locks the buffer for — and fully charges — the second
  // owner.
  void Associate(IoBuffer* buf, Owner* second_owner, const std::vector<PdId>& read_domains);

  // Drops every lock `owner` holds (pathKill reclamation). Returns the
  // number of buffers released.
  uint64_t ReleaseAllFor(Owner* owner);

  uint64_t cached_buffers() const { return cached_count_; }
  // Outstanding locks across all live buffers (cached buffers hold none);
  // cross-checked by the auditor against the per-owner lock counters.
  uint64_t total_lock_count() const;
  uint64_t alloc_count() const { return alloc_count_; }
  uint64_t cache_hit_count() const { return cache_hit_count_; }
  uint64_t total_fault_count() const;

 private:
  void AddHolder(IoBuffer* buf, Owner* owner);
  void DropHolder(IoBuffer* buf, Owner* owner);
  void MoveToCache(IoBuffer* buf);

  uint64_t next_id_ = 1;
  std::list<IoBuffer*> live_;
  // Buffer cache, bucketed by (page-rounded) size. Each bucket keeps
  // insertion order, so a lookup sees the same candidate sequence as a
  // scan of one flat insertion-ordered list filtered by size — the
  // bucketing changes lookup cost (no walk over other sizes), never which
  // buffer a hit returns.
  std::map<uint64_t, std::list<IoBuffer*>> cache_;
  uint64_t cached_count_ = 0;
  uint64_t alloc_count_ = 0;
  uint64_t cache_hit_count_ = 0;
};

}  // namespace escort

#endif  // SRC_KERNEL_IOBUFFER_H_
