// escort_lint self-test fixture: EA003 charge/release flow pairing.
//
// Every handle from AllocPage / AllocIoBuffer must be released,
// transferred (returned, stored, passed on), or provably null on every
// exit path of the acquiring function.
#include <cstdint>

class AcctOwner;

struct MemPage {
  uint64_t id = 0;
};

class DiskBuffer {};

class ResourceKernel {
 public:
  MemPage* AllocPage(AcctOwner* owner);
  void FreePage(AcctOwner* owner, MemPage* page);
  DiskBuffer* AllocIoBuffer(AcctOwner* owner, uint64_t bytes);
  void UnlockIoBuffer(DiskBuffer* buf, AcctOwner* owner);
};

class BlockDriver {
 public:
  void LeakOnEarlyReturn(AcctOwner* owner, bool flush) {
    MemPage* page = kernel_->AllocPage(owner);  // EXPECT: EA003
    if (page == nullptr) {
      return;
    }
    if (flush) {
      return;
    }
    kernel_->FreePage(owner, page);
  }

  void LeakAtFunctionEnd(AcctOwner* owner) {
    MemPage* page = kernel_->AllocPage(owner);  // EXPECT: EA003
    if (page == nullptr) {
      return;
    }
    page->id = 7;
  }

  // Released on both branches: clean.
  void GoodBalancedPaths(AcctOwner* owner, bool flush) {
    MemPage* page = kernel_->AllocPage(owner);
    if (page == nullptr) {
      return;
    }
    if (flush) {
      kernel_->FreePage(owner, page);
      return;
    }
    kernel_->FreePage(owner, page);
  }

  // Ownership transfer: returned to the caller.
  MemPage* GoodTransferReturn(AcctOwner* owner) {
    MemPage* page = kernel_->AllocPage(owner);
    return page;
  }

  // Ownership transfer: stored into a field.
  void GoodTransferStore(AcctOwner* owner) {
    MemPage* page = kernel_->AllocPage(owner);
    if (page == nullptr) {
      return;
    }
    spare_ = page;
  }

  // Ownership transfer: handed to another call.
  void GoodTransferCall(AcctOwner* owner, uint64_t bytes) {
    DiskBuffer* buf = kernel_->AllocIoBuffer(owner, bytes);
    if (buf == nullptr) {
      return;
    }
    Publish(buf);
  }

  void SuppressedWithReason(AcctOwner* owner) {
    MemPage* page = kernel_->AllocPage(owner);  // NOLINT-EA003(page belongs to the fixture arena and is reclaimed at teardown)
    if (page == nullptr) {
      return;
    }
    page->id = 9;
  }

 private:
  void Publish(DiskBuffer* buf);

  ResourceKernel* kernel_ = nullptr;
  MemPage* spare_ = nullptr;
};
