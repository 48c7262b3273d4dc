// Kernel timer events (paper §3.2).

#include <gtest/gtest.h>

#include "src/kernel/kernel.h"

namespace escort {
namespace {

class SyncTest : public ::testing::Test {
 protected:
  SyncTest() {
    KernelConfig kc;  // softclock ON: events need it
    kernel_ = std::make_unique<Kernel>(&eq_, kc);
  }

  // Owners must outlive the kernel (its threads and events point at
  // them), so they live here, declared before it.
  Owner* NewOwner(const std::string& name) {
    owners_.push_back(
        std::make_unique<Owner>(OwnerType::kKernel, kernel_->NextOwnerId(), name));
    kernel_->RegisterOwner(owners_.back().get(), name);
    return owners_.back().get();
  }

  EventQueue eq_;
  std::vector<std::unique_ptr<Owner>> owners_;
  std::unique_ptr<Kernel> kernel_;
};

TEST_F(SyncTest, OneShotEventFiresOnceAfterDelay) {
  Owner& o = *NewOwner("o");
  int fires = 0;
  Cycles fire_time = 0;
  kernel_->RegisterEvent(&o, "once", CyclesFromMillis(5), 0, 100, kKernelDomain, [&] {
    ++fires;
    fire_time = eq_.now();
  });
  eq_.RunUntil(CyclesFromMillis(20));
  EXPECT_EQ(fires, 1);
  // Softclock granularity is 1 ms; the event fires on the first tick at or
  // after its deadline.
  EXPECT_GE(fire_time, CyclesFromMillis(5));
  EXPECT_LE(fire_time, CyclesFromMillis(7));
}

TEST_F(SyncTest, PeriodicEventKeepsCadence) {
  Owner& o = *NewOwner("o");
  int fires = 0;
  KernelEvent* ev = kernel_->RegisterEvent(&o, "tick", CyclesFromMillis(2),
                                           CyclesFromMillis(2), 100, kKernelDomain,
                                           [&] { ++fires; });
  eq_.RunUntil(CyclesFromMillis(21));
  // ~10 periods in 20ms.
  EXPECT_GE(fires, 9);
  EXPECT_LE(fires, 11);
  EXPECT_EQ(ev->fire_count(), static_cast<uint64_t>(fires));
}

TEST_F(SyncTest, EventDispatchChargedToOwner) {
  Owner& o = *NewOwner("event-owner");
  kernel_->RegisterEvent(&o, "tick", CyclesFromMillis(1), CyclesFromMillis(1), 500,
                         kKernelDomain, [] {});
  eq_.RunUntil(CyclesFromMillis(10));
  // Dispatch cost lands on the event's owner (the Table 1 "TCP Master
  // Event" split), not on the kernel.
  EXPECT_GT(o.usage().cycles, 4 * 500u);
}

TEST_F(SyncTest, CancelledEventNeverFires) {
  Owner& o = *NewOwner("o");
  int fires = 0;
  KernelEvent* ev = kernel_->RegisterEvent(&o, "never", CyclesFromMillis(5), 0, 100,
                                           kKernelDomain, [&] { ++fires; });
  kernel_->CancelEvent(ev);
  EXPECT_EQ(o.usage().events, 0u);
  eq_.RunUntil(CyclesFromMillis(10));
  EXPECT_EQ(fires, 0);
}

TEST_F(SyncTest, DelayedSoftclockCatchesUpMissedPeriods) {
  Owner& o = *NewOwner("o");
  int fires = 0;
  kernel_->RegisterEvent(&o, "rate", CyclesFromMillis(1), CyclesFromMillis(1), 50,
                         kKernelDomain, [&] { ++fires; });
  // Hog the CPU for 6 ms without yielding so several softclock ticks queue.
  Thread* hog = kernel_->CreateThread(kernel_->kernel_owner(), "hog");
  eq_.ScheduleAt(CyclesFromMillis(2), [&] {
    hog->Push(CyclesFromMillis(6), kKernelDomain, nullptr);
  });
  eq_.RunUntil(CyclesFromMillis(20));
  // All ~18 periods fire despite the stall (rate-preserving catch-up).
  EXPECT_GE(fires, 16);
}

}  // namespace
}  // namespace escort
