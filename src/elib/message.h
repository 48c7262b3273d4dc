// Message library (paper §3.3, [Mosberger TR97-19]): the user-level view of
// IOBuffers, tailored for manipulating network messages.
//
//  * A Message is a (head, length) window onto an IOBuffer, with headroom so
//    protocol modules can prepend/strip headers without copying.
//  * Copying a Message adds a *library-level* reference — no kernel call;
//    the kernel lock is released when the last library reference drops, so
//    each owner holds at most one kernel lock per buffer.
//  * A domain that cannot write the buffer (it only has a read mapping)
//    prepends its headers as fragments (PrependHeaderFragment) instead of
//    writing the payload buffer.
//  * Messages also carry an intra-path control tag (kind/aux) used by the
//    stages of a path to label requests flowing between them; the tag is
//    not part of the wire data.

#ifndef SRC_ELIB_MESSAGE_H_
#define SRC_ELIB_MESSAGE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/kernel/iobuffer.h"
#include "src/kernel/kernel.h"

namespace escort {

// Intra-path message kinds (control plane between stages).
enum class MsgKind : uint32_t {
  kData = 0,       // raw wire data (frames/segments)
  kFileRequest,    // HTTP -> FS: resolve + read a file
  kFileData,       // FS -> HTTP: file contents
  kFileError,      // FS -> HTTP: lookup failed
  kTcpSend,        // HTTP -> TCP: application bytes to transmit
  kConnClose,      // HTTP -> TCP: close after transmit completes
  kCgiRequest,     // HTTP -> CGI
  kStreamChunk,    // QoS stream generator -> TCP
};

class Message {
 public:
  Message() = default;

  // Allocates a fresh message backed by a kernel IOBuffer. `headroom` bytes
  // are reserved in front of the payload window for headers to come.
  static Message Alloc(Kernel* kernel, Owner* owner, PdId current_pd,
                       const std::vector<PdId>& read_domains, uint64_t capacity,
                       uint64_t headroom);

  // Wraps an existing IOBuffer (e.g. a cached file block just associated
  // with a path). `locker` must already hold one kernel lock on `buf`; the
  // lock is released when the last library reference drops.
  static Message FromBuffer(Kernel* kernel, IoBuffer* buf, Owner* locker, uint64_t offset,
                            uint64_t len);

  // Copying shares the buffer (library-level refcount: no kernel call).
  Message(const Message&) = default;
  Message& operator=(const Message&) = default;
  Message(Message&&) = default;
  Message& operator=(Message&&) = default;

  bool valid() const { return state_ != nullptr; }
  uint64_t size() const { return len_; }
  uint64_t headroom() const { return head_; }

  // Read-only access from domain `pd`; nullptr on a protection fault.
  const uint8_t* Data(PdId pd) const;

  // Prepends `len` header bytes (copies from `src` if non-null). Fails if
  // headroom is exhausted or the domain cannot write.
  bool Prepend(PdId pd, const void* src, uint64_t len);

  // Prepends a header from a domain that may lack write permission on the
  // payload buffer: models the message library's fragment chains — each
  // domain keeps its headers in a small buffer of its own, so no payload
  // copy is needed. Charges the small fragment cost instead of a
  // reallocation. (The bytes land in this buffer's headroom, which stands
  // in for the fragment; the *payload window* is never written.)
  bool PrependHeaderFragment(Kernel* kernel, PdId pd, const void* src, uint64_t len);

  // Removes `len` bytes from the front (header strip). No copy.
  bool Strip(uint64_t len);

  // Appends payload bytes at the tail. Fails when capacity is exhausted.
  bool Append(PdId pd, const void* src, uint64_t len);

  // Drops `len` bytes from the tail.
  bool Trim(uint64_t len);

  // The underlying buffer (for association / cache use).
  IoBuffer* buffer() const { return state_ ? state_->buf : nullptr; }

  // Extracts the window into a plain byte vector (test/diagnostic helper;
  // performs a checked read from domain `pd`).
  std::vector<uint8_t> CopyOut(PdId pd) const;

  // Control tag.
  MsgKind kind = MsgKind::kData;
  uint64_t aux = 0;
  std::string note;  // free-form (file names, request targets)

 private:
  struct SharedState {
    Kernel* kernel = nullptr;
    IoBuffer* buf = nullptr;
    Owner* locker = nullptr;
    ~SharedState();
  };

  std::shared_ptr<SharedState> state_;
  uint64_t head_ = 0;  // window start within the buffer
  uint64_t len_ = 0;   // window length
};

}  // namespace escort

#endif  // SRC_ELIB_MESSAGE_H_
