// Message library tests: header prepend/strip, headroom, library-level
// refcounting, write-permission loss handling, buffer wrapping.

#include <gtest/gtest.h>

#include "src/elib/message.h"

namespace escort {
namespace {

class MessageTest : public ::testing::Test {
 protected:
  MessageTest() {
    KernelConfig kc;
    kc.start_softclock = false;
    kc.protection_domains = true;
    kernel_ = std::make_unique<Kernel>(&eq_, kc);
    pd1_ = kernel_->CreateDomain("one");
    pd2_ = kernel_->CreateDomain("two");
  }

  Message NewMessage(uint64_t capacity = 256, uint64_t headroom = 64) {
    return Message::Alloc(kernel_.get(), pd1_, pd1_->pd_id(),
                          {pd1_->pd_id(), pd2_->pd_id()}, capacity, headroom);
  }

  EventQueue eq_;
  std::unique_ptr<Kernel> kernel_;
  ProtectionDomain* pd1_;
  ProtectionDomain* pd2_;
};

TEST_F(MessageTest, AllocStartsEmptyWithHeadroom) {
  Message msg = NewMessage(256, 64);
  ASSERT_TRUE(msg.valid());
  EXPECT_EQ(msg.size(), 0u);
  EXPECT_EQ(msg.headroom(), 64u);
}

TEST_F(MessageTest, AppendStripPrependTrimRoundtrip) {
  Message msg = NewMessage();
  const char payload[] = "hello world";
  ASSERT_TRUE(msg.Append(pd1_->pd_id(), payload, sizeof(payload) - 1));
  EXPECT_EQ(msg.size(), 11u);

  const char hdr[] = "HDR!";
  ASSERT_TRUE(msg.Prepend(pd1_->pd_id(), hdr, 4));
  EXPECT_EQ(msg.size(), 15u);
  EXPECT_EQ(msg.headroom(), 60u);

  auto bytes = msg.CopyOut(pd1_->pd_id());
  EXPECT_EQ(std::string(bytes.begin(), bytes.begin() + 4), "HDR!");

  ASSERT_TRUE(msg.Strip(4));
  bytes = msg.CopyOut(pd1_->pd_id());
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "hello world");

  ASSERT_TRUE(msg.Trim(6));
  bytes = msg.CopyOut(pd1_->pd_id());
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "hello");
}

TEST_F(MessageTest, PrependFailsWhenHeadroomExhausted) {
  Message msg = NewMessage(32, 8);
  uint8_t hdr[16] = {0};
  EXPECT_FALSE(msg.Prepend(pd1_->pd_id(), hdr, 16));
  EXPECT_TRUE(msg.Prepend(pd1_->pd_id(), hdr, 8));
  EXPECT_FALSE(msg.Prepend(pd1_->pd_id(), hdr, 1));
}

TEST_F(MessageTest, StripBeyondLengthFails) {
  Message msg = NewMessage();
  msg.Append(pd1_->pd_id(), "abc", 3);
  EXPECT_FALSE(msg.Strip(4));
  EXPECT_TRUE(msg.Strip(3));
}

TEST_F(MessageTest, WritesFromReadOnlyDomainFail) {
  Message msg = NewMessage();
  EXPECT_FALSE(msg.Append(pd2_->pd_id(), "x", 1));
  // Reading from pd2 works (read mapping).
  msg.Append(pd1_->pd_id(), "x", 1);
  EXPECT_NE(msg.Data(pd2_->pd_id()), nullptr);
}

TEST_F(MessageTest, CopySharesBufferWithoutKernelCalls) {
  Message msg = NewMessage();
  msg.Append(pd1_->pd_id(), "shared", 6);
  uint64_t allocs = kernel_->iobuffers().alloc_count();
  Message copy = msg;
  EXPECT_EQ(kernel_->iobuffers().alloc_count(), allocs);
  EXPECT_EQ(copy.buffer(), msg.buffer());
  EXPECT_EQ(copy.size(), 6u);
}

TEST_F(MessageTest, LastReferenceReleasesKernelLock) {
  uint64_t cached_before = kernel_->iobuffers().cached_buffers();
  {
    Message msg = NewMessage();
    Message copy = msg;
    // Both alive: buffer locked.
    EXPECT_EQ(kernel_->iobuffers().cached_buffers(), cached_before);
  }
  // Both gone: the lock dropped, buffer entered the cache.
  EXPECT_EQ(kernel_->iobuffers().cached_buffers(), cached_before + 1);
}

TEST_F(MessageTest, PrependHeaderFragmentWorksWithoutWritePermission) {
  Message msg = NewMessage();
  msg.Append(pd1_->pd_id(), "data", 4);
  // pd2 only has a read mapping, but can chain a header fragment.
  uint8_t hdr[4] = {0xAA, 0xBB, 0xCC, 0xDD};
  ASSERT_TRUE(msg.PrependHeaderFragment(kernel_.get(), pd2_->pd_id(), hdr, 4));
  EXPECT_EQ(msg.size(), 8u);
  auto bytes = msg.CopyOut(pd1_->pd_id());
  EXPECT_EQ(bytes[0], 0xAA);
  EXPECT_EQ(bytes[4], 'd');
}

TEST_F(MessageTest, FromBufferWrapsExistingBuffer) {
  IoBuffer* buf = kernel_->AllocIoBuffer(pd1_, 128, pd1_->pd_id(), {pd1_->pd_id()});
  const char content[] = "cached document";
  buf->Write(pd1_->pd_id(), 0, content, sizeof(content) - 1);

  Owner path_like(OwnerType::kKernel, kernel_->NextOwnerId(), "p");
  kernel_->RegisterOwner(&path_like, "p");
  kernel_->AssociateIoBuffer(buf, &path_like, {pd2_->pd_id()});

  Message msg = Message::FromBuffer(kernel_.get(), buf, &path_like, 0, sizeof(content) - 1);
  ASSERT_TRUE(msg.valid());
  auto bytes = msg.CopyOut(pd2_->pd_id());
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "cached document");
}

TEST_F(MessageTest, FromBufferRejectsOutOfRangeWindow) {
  IoBuffer* buf = kernel_->AllocIoBuffer(pd1_, 64, pd1_->pd_id(), {});
  Message msg = Message::FromBuffer(kernel_.get(), buf, pd1_, buf->size(), 1);
  EXPECT_FALSE(msg.valid());
}

TEST_F(MessageTest, ControlTagTravelsWithMessage) {
  Message msg = NewMessage();
  msg.kind = MsgKind::kFileRequest;
  msg.aux = 0xdeadbeef;
  msg.note = "/index.html";
  Message copy = msg;
  EXPECT_EQ(copy.kind, MsgKind::kFileRequest);
  EXPECT_EQ(copy.aux, 0xdeadbeefu);
  EXPECT_EQ(copy.note, "/index.html");
}

}  // namespace
}  // namespace escort
