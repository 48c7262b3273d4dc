#include "src/kernel/iobuffer.h"

#include <algorithm>
#include <cstring>

#include "src/kernel/page_allocator.h"

namespace escort {

namespace {

uint64_t RoundUpToPages(uint64_t bytes) {
  if (bytes == 0) {
    return kPageSize;
  }
  return (bytes + kPageSize - 1) / kPageSize * kPageSize;
}

}  // namespace

// --- IoBuffer -----------------------------------------------------------------

MapPerm IoBuffer::PermFor(PdId pd) const {
  for (const auto& [mapped, perm] : mappings_) {
    if (mapped == pd) {
      return perm;
    }
  }
  return MapPerm::kNone;
}

void IoBuffer::SetMapping(PdId pd, MapPerm perm) {
  for (auto& [mapped, existing] : mappings_) {
    if (mapped == pd) {
      existing = perm;
      return;
    }
  }
  mappings_.emplace_back(pd, perm);
}

void IoBuffer::AddMappingIfAbsent(PdId pd, MapPerm perm) {
  for (const auto& [mapped, existing] : mappings_) {
    if (mapped == pd) {
      return;
    }
  }
  mappings_.emplace_back(pd, perm);
}

bool IoBuffer::Write(PdId pd, uint64_t offset, const void* src, uint64_t len) {
  if (!CanWrite(pd) || offset + len > data_.size()) {
    ++fault_count_;
    return false;
  }
  std::memcpy(data_.data() + offset, src, len);
  return true;
}

bool IoBuffer::Read(PdId pd, uint64_t offset, void* dst, uint64_t len) const {
  if (!CanRead(pd) || offset + len > data_.size()) {
    ++fault_count_;
    return false;
  }
  std::memcpy(dst, data_.data() + offset, len);
  return true;
}

// --- IoBufferManager ------------------------------------------------------------

IoBufferManager::~IoBufferManager() {
  for (IoBuffer* buf : live_) {
    delete buf;
  }
  for (auto& [size, bucket] : cache_) {
    for (IoBuffer* buf : bucket) {
      delete buf;
    }
  }
}

void IoBufferManager::AddHolder(IoBuffer* buf, Owner* owner) {
  auto [it, inserted] = buf->holders_.try_emplace(owner);
  if (inserted) {
    owner->iobuffer_locks().push_front(buf);
    it->second.link = owner->iobuffer_locks().begin();
    owner->usage().kmem_bytes += buf->size();
  }
  it->second.locks += 1;
  owner->usage().iobuffer_locks += 1;
  buf->lock_count_ += 1;
}

void IoBufferManager::DropHolder(IoBuffer* buf, Owner* owner) {
  auto it = buf->holders_.find(owner);
  if (it == buf->holders_.end()) {
    return;
  }
  buf->lock_count_ -= it->second.locks;
  owner->usage().iobuffer_locks -= static_cast<uint64_t>(it->second.locks);
  owner->usage().kmem_bytes -= buf->size();
  owner->iobuffer_locks().erase(it->second.link);
  buf->holders_.erase(it);
}

IoBuffer* IoBufferManager::Alloc(Owner* owner, uint64_t size, PdId current_pd,
                                 const std::vector<PdId>& read_domains, bool* cache_hit) {
  uint64_t rounded = RoundUpToPages(size);
  ++alloc_count_;

  // Buffer-cache lookup: a cached buffer of the right size whose read
  // mappings already cover the requested domains needs only the current
  // domain's mapping upgraded to read/write — no cleaning required.
  auto bucket_it = cache_.find(rounded);
  if (bucket_it != cache_.end()) {
    std::list<IoBuffer*>& bucket = bucket_it->second;
    for (auto it = bucket.begin(); it != bucket.end(); ++it) {
      IoBuffer* buf = *it;
      bool covers = true;
      for (PdId pd : read_domains) {
        if (!buf->CanRead(pd) && pd != current_pd) {
          covers = false;
          break;
        }
      }
      if (!covers) {
        continue;
      }
      bucket.erase(it);
      --cached_count_;
      buf->in_cache_ = false;
      buf->SetMapping(current_pd, MapPerm::kReadWrite);
      buf->writer_pd_ = current_pd;
      buf->link_ = live_.insert(live_.end(), buf);
      AddHolder(buf, owner);
      ++cache_hit_count_;
      if (cache_hit != nullptr) {
        *cache_hit = true;
      }
      return buf;
    }
  }

  auto* buf = new IoBuffer(next_id_++, rounded);
  buf->SetMapping(current_pd, MapPerm::kReadWrite);
  buf->writer_pd_ = current_pd;
  for (PdId pd : read_domains) {
    if (pd != current_pd) {
      buf->AddMappingIfAbsent(pd, MapPerm::kRead);
    }
  }
  buf->link_ = live_.insert(live_.end(), buf);
  AddHolder(buf, owner);
  if (cache_hit != nullptr) {
    *cache_hit = false;
  }
  return buf;
}

void IoBufferManager::Lock(IoBuffer* buf, Owner* locker) {
  AddHolder(buf, locker);
  // Locking removes all write privileges: the buffer can now be checked for
  // consistency and cannot be altered by the original writer.
  buf->writer_pd_ = IoBuffer::kNoWriter;
}

void IoBufferManager::Unlock(IoBuffer* buf, Owner* locker) {
  auto it = buf->holders_.find(locker);
  if (it == buf->holders_.end()) {
    return;
  }
  it->second.locks -= 1;
  locker->usage().iobuffer_locks -= 1;
  buf->lock_count_ -= 1;
  if (it->second.locks == 0) {
    locker->usage().kmem_bytes -= buf->size();
    locker->iobuffer_locks().erase(it->second.link);
    buf->holders_.erase(it);
  }
  if (buf->lock_count_ == 0) {
    MoveToCache(buf);
  }
}

void IoBufferManager::Associate(IoBuffer* buf, Owner* second_owner,
                                const std::vector<PdId>& read_domains) {
  for (PdId pd : read_domains) {
    buf->AddMappingIfAbsent(pd, MapPerm::kRead);
  }
  // Association includes locking for — and fully charging — the second
  // owner, so the buffer survives the original owner dropping its lock.
  Lock(buf, second_owner);
}

uint64_t IoBufferManager::ReleaseAllFor(Owner* owner) {
  uint64_t released = 0;
  while (!owner->iobuffer_locks().empty()) {
    IoBuffer* buf = owner->iobuffer_locks().front();
    DropHolder(buf, owner);
    if (buf->lock_count_ == 0) {
      MoveToCache(buf);
    }
    ++released;
  }
  return released;
}

void IoBufferManager::MoveToCache(IoBuffer* buf) {
  // All write mappings are removed when the buffer is cached; read mappings
  // are kept so a future allocation in the same domains is a cheap hit.
  if (!buf->in_cache_) {
    live_.erase(buf->link_);
  }
  for (auto& [pd, perm] : buf->mappings_) {
    if (perm == MapPerm::kReadWrite) {
      perm = MapPerm::kRead;
    }
  }
  buf->writer_pd_ = IoBuffer::kNoWriter;
  buf->in_cache_ = true;
  std::list<IoBuffer*>& bucket = cache_[buf->size()];
  buf->link_ = bucket.insert(bucket.end(), buf);
  ++cached_count_;
}

uint64_t IoBufferManager::total_lock_count() const {
  uint64_t total = 0;
  for (const IoBuffer* buf : live_) {
    total += static_cast<uint64_t>(buf->lock_count());
  }
  return total;
}

uint64_t IoBufferManager::total_fault_count() const {
  uint64_t total = 0;
  for (const IoBuffer* buf : live_) {
    total += buf->fault_count();
  }
  for (const auto& [size, bucket] : cache_) {
    for (const IoBuffer* buf : bucket) {
      total += buf->fault_count();
    }
  }
  return total;
}

}  // namespace escort
