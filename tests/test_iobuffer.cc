// IOBuffer tests (paper §3.3): mapping rules, lock/refcount semantics,
// buffer cache reuse, second-owner association, reclamation.

#include <gtest/gtest.h>

#include "src/kernel/kernel.h"

namespace escort {
namespace {

class IoBufferTest : public ::testing::Test {
 protected:
  IoBufferTest() {
    KernelConfig kc;
    kc.start_softclock = false;
    kc.protection_domains = true;
    kernel_ = std::make_unique<Kernel>(&eq_, kc);
    pd1_ = kernel_->CreateDomain("one");
    pd2_ = kernel_->CreateDomain("two");
    pd3_ = kernel_->CreateDomain("three");
  }

  EventQueue eq_;
  std::unique_ptr<Kernel> kernel_;
  ProtectionDomain* pd1_;
  ProtectionDomain* pd2_;
  ProtectionDomain* pd3_;
};

TEST_F(IoBufferTest, AllocMapsWriterAndReaders) {
  IoBuffer* buf =
      kernel_->AllocIoBuffer(pd1_, 100, pd1_->pd_id(), {pd1_->pd_id(), pd2_->pd_id()});
  ASSERT_NE(buf, nullptr);
  EXPECT_TRUE(buf->CanWrite(pd1_->pd_id()));
  EXPECT_TRUE(buf->CanRead(pd2_->pd_id()));
  EXPECT_FALSE(buf->CanWrite(pd2_->pd_id()));
  EXPECT_FALSE(buf->CanRead(pd3_->pd_id()));
  EXPECT_EQ(buf->writer_pd(), pd1_->pd_id());
}

TEST_F(IoBufferTest, SizeRoundsUpToWholePages) {
  IoBuffer* buf = kernel_->AllocIoBuffer(pd1_, 1, pd1_->pd_id(), {});
  EXPECT_EQ(buf->size(), kPageSize);
  IoBuffer* big = kernel_->AllocIoBuffer(pd1_, kPageSize + 1, pd1_->pd_id(), {});
  EXPECT_EQ(big->size(), 2 * kPageSize);
}

TEST_F(IoBufferTest, ReadWriteEnforceMappings) {
  IoBuffer* buf =
      kernel_->AllocIoBuffer(pd1_, 64, pd1_->pd_id(), {pd1_->pd_id(), pd2_->pd_id()});
  uint8_t data[4] = {1, 2, 3, 4};
  EXPECT_TRUE(buf->Write(pd1_->pd_id(), 0, data, 4));
  // pd2 has a read-only mapping.
  uint8_t out[4] = {0};
  EXPECT_TRUE(buf->Read(pd2_->pd_id(), 0, out, 4));
  EXPECT_EQ(out[3], 4);
  EXPECT_FALSE(buf->Write(pd2_->pd_id(), 0, data, 4));
  // pd3 has no mapping at all.
  EXPECT_FALSE(buf->Read(pd3_->pd_id(), 0, out, 4));
  EXPECT_EQ(buf->fault_count(), 2u);
}

TEST_F(IoBufferTest, OutOfBoundsAccessFaults) {
  IoBuffer* buf = kernel_->AllocIoBuffer(pd1_, 64, pd1_->pd_id(), {});
  uint8_t byte = 7;
  EXPECT_FALSE(buf->Write(pd1_->pd_id(), buf->size(), &byte, 1));
}

TEST_F(IoBufferTest, LockRevokesAllWritePermission) {
  IoBuffer* buf = kernel_->AllocIoBuffer(pd1_, 64, pd1_->pd_id(), {});
  uint8_t byte = 9;
  ASSERT_TRUE(buf->Write(pd1_->pd_id(), 0, &byte, 1));
  kernel_->iobuffers().Lock(buf, pd2_);
  // After locking, even the original writer cannot alter the buffer.
  EXPECT_FALSE(buf->Write(pd1_->pd_id(), 0, &byte, 1));
  EXPECT_EQ(buf->writer_pd(), IoBuffer::kNoWriter);
}

TEST_F(IoBufferTest, UnlockToZeroEntersCacheAndReuses) {
  IoBuffer* buf =
      kernel_->AllocIoBuffer(pd1_, 64, pd1_->pd_id(), {pd1_->pd_id(), pd2_->pd_id()});
  uint64_t id = buf->id();
  kernel_->UnlockIoBuffer(buf, pd1_);  // drops the alloc lock -> cached
  EXPECT_EQ(kernel_->iobuffers().cached_buffers(), 1u);

  // Same size + read mappings covered: the cache satisfies the request with
  // one mapping change (the current domain upgrades to read/write).
  bool was_hit = kernel_->iobuffers().cache_hit_count();
  IoBuffer* again =
      kernel_->AllocIoBuffer(pd1_, 64, pd1_->pd_id(), {pd1_->pd_id(), pd2_->pd_id()});
  EXPECT_EQ(again->id(), id);
  EXPECT_GT(kernel_->iobuffers().cache_hit_count(), static_cast<uint64_t>(was_hit));
  EXPECT_TRUE(again->CanWrite(pd1_->pd_id()));
}

TEST_F(IoBufferTest, CacheMissWhenMappingsDontCover) {
  IoBuffer* buf = kernel_->AllocIoBuffer(pd1_, 64, pd1_->pd_id(), {pd1_->pd_id()});
  kernel_->UnlockIoBuffer(buf, pd1_);
  // Requesting read mapping in pd3, which the cached buffer lacks.
  IoBuffer* other =
      kernel_->AllocIoBuffer(pd1_, 64, pd1_->pd_id(), {pd1_->pd_id(), pd3_->pd_id()});
  EXPECT_NE(other->id(), buf->id());
  EXPECT_EQ(kernel_->iobuffers().cache_hit_count(), 0u);
}

TEST_F(IoBufferTest, OwnerChargedForBufferMemory) {
  uint64_t before = pd1_->usage().kmem_bytes;
  IoBuffer* buf = kernel_->AllocIoBuffer(pd1_, 100, pd1_->pd_id(), {});
  EXPECT_EQ(pd1_->usage().kmem_bytes, before + buf->size());
  EXPECT_EQ(pd1_->usage().iobuffer_locks, 1u);
  kernel_->UnlockIoBuffer(buf, pd1_);
  EXPECT_EQ(pd1_->usage().kmem_bytes, before);
  EXPECT_EQ(pd1_->usage().iobuffer_locks, 0u);
}

TEST_F(IoBufferTest, AssociateChargesSecondOwnerFully) {
  // The web-cache use case: FS's domain allocates; the buffer is later
  // associated with a path-like second owner which is fully charged.
  IoBuffer* buf = kernel_->AllocIoBuffer(pd1_, 64, pd1_->pd_id(), {pd1_->pd_id()});
  Owner second(OwnerType::kKernel, kernel_->NextOwnerId(), "second");
  kernel_->RegisterOwner(&second, "second");
  kernel_->AssociateIoBuffer(buf, &second, {pd2_->pd_id(), pd3_->pd_id()});

  EXPECT_TRUE(buf->CanRead(pd2_->pd_id()));
  EXPECT_TRUE(buf->CanRead(pd3_->pd_id()));
  EXPECT_EQ(second.usage().kmem_bytes, buf->size());
  EXPECT_EQ(buf->holder_count(), 2u);

  // The original owner dropping its lock must not free the buffer: the
  // second owner holds it.
  kernel_->UnlockIoBuffer(buf, pd1_);
  EXPECT_EQ(kernel_->iobuffers().cached_buffers(), 0u);
  kernel_->UnlockIoBuffer(buf, &second);
  EXPECT_EQ(kernel_->iobuffers().cached_buffers(), 1u);
}

TEST_F(IoBufferTest, ReleaseAllForDropsEveryLock) {
  Owner owner(OwnerType::kKernel, kernel_->NextOwnerId(), "o");
  kernel_->RegisterOwner(&owner, "o");
  for (int i = 0; i < 5; ++i) {
    kernel_->AllocIoBuffer(&owner, 64, pd1_->pd_id(), {});
  }
  EXPECT_EQ(owner.usage().iobuffer_locks, 5u);
  uint64_t released = kernel_->iobuffers().ReleaseAllFor(&owner);
  EXPECT_EQ(released, 5u);
  EXPECT_EQ(owner.usage().iobuffer_locks, 0u);
  EXPECT_EQ(owner.usage().kmem_bytes, 0u);
  EXPECT_EQ(kernel_->iobuffers().cached_buffers(), 5u);
}

TEST_F(IoBufferTest, DoubleLockBySameOwnerCountsOnce) {
  IoBuffer* buf = kernel_->AllocIoBuffer(pd1_, 64, pd1_->pd_id(), {});
  kernel_->iobuffers().Lock(buf, pd1_);
  EXPECT_EQ(buf->lock_count(), 2);
  EXPECT_EQ(buf->holder_count(), 1u);
  // kmem charged once per holder, not per lock.
  EXPECT_EQ(pd1_->usage().kmem_bytes, buf->size());
  kernel_->UnlockIoBuffer(buf, pd1_);
  kernel_->UnlockIoBuffer(buf, pd1_);
  EXPECT_EQ(buf->lock_count(), 0);
}

}  // namespace
}  // namespace escort
