#include "src/elib/message.h"

#include <cstring>

namespace escort {

Message::SharedState::~SharedState() {
  if (kernel != nullptr && buf != nullptr && locker != nullptr) {
    kernel->UnlockIoBuffer(buf, locker);
  }
}

Message Message::Alloc(Kernel* kernel, Owner* owner, PdId current_pd,
                       const std::vector<PdId>& read_domains, uint64_t capacity,
                       uint64_t headroom) {
  Message msg;
  IoBuffer* buf = kernel->AllocIoBuffer(owner, capacity + headroom, current_pd, read_domains);
  if (buf == nullptr) {
    return msg;
  }
  auto state = std::make_shared<SharedState>();
  state->kernel = kernel;
  state->buf = buf;
  state->locker = owner;  // Alloc leaves one kernel lock held by the owner
  msg.state_ = std::move(state);
  msg.head_ = headroom;
  msg.len_ = 0;
  return msg;
}

Message Message::FromBuffer(Kernel* kernel, IoBuffer* buf, Owner* locker, uint64_t offset,
                            uint64_t len) {
  Message msg;
  if (buf == nullptr || offset + len > buf->size()) {
    return msg;
  }
  auto state = std::make_shared<SharedState>();
  state->kernel = kernel;
  state->buf = buf;
  state->locker = locker;
  msg.state_ = std::move(state);
  msg.head_ = offset;
  msg.len_ = len;
  return msg;
}

const uint8_t* Message::Data(PdId pd) const {
  if (!valid() || !state_->buf->CanRead(pd)) {
    return nullptr;
  }
  return state_->buf->bytes().data() + head_;
}

bool Message::Prepend(PdId pd, const void* src, uint64_t len) {
  if (!valid() || head_ < len || !state_->buf->CanWrite(pd)) {
    return false;
  }
  head_ -= len;
  len_ += len;
  if (src != nullptr) {
    std::memcpy(state_->buf->bytes().data() + head_, src, len);
  }
  return true;
}

bool Message::PrependHeaderFragment(Kernel* kernel, PdId pd, const void* src, uint64_t len) {
  if (!valid() || head_ < len) {
    return false;
  }
  if (state_->buf->CanWrite(pd)) {
    return Prepend(pd, src, len);
  }
  // Fragment: a domain-local header buffer chained in front of the payload.
  kernel->ConsumeCharged(kernel->costs().iobuffer_alloc_cached +
                         len * kernel->costs().per_byte_touch);
  head_ -= len;
  len_ += len;
  if (src != nullptr) {
    std::memcpy(state_->buf->bytes().data() + head_, src, len);
  }
  return true;
}

bool Message::Strip(uint64_t len) {
  if (!valid() || len > len_) {
    return false;
  }
  head_ += len;
  len_ -= len;
  return true;
}

bool Message::Append(PdId pd, const void* src, uint64_t len) {
  if (!valid() || head_ + len_ + len > state_->buf->size() || !state_->buf->CanWrite(pd)) {
    return false;
  }
  if (src != nullptr) {
    std::memcpy(state_->buf->bytes().data() + head_ + len_, src, len);
  }
  len_ += len;
  return true;
}

bool Message::Trim(uint64_t len) {
  if (!valid() || len > len_) {
    return false;
  }
  len_ -= len;
  return true;
}

std::vector<uint8_t> Message::CopyOut(PdId pd) const {
  std::vector<uint8_t> out;
  const uint8_t* p = Data(pd);
  if (p == nullptr) {
    return out;
  }
  out.assign(p, p + len_);
  return out;
}

}  // namespace escort
