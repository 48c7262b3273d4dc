// Kernel execution engine tests: dispatch, non-preemption, yields, cycle
// accounting conservation, idle charging, dynamic consumption, runaway
// detection, protection-domain crossings.

#include <gtest/gtest.h>

#include "src/kernel/kernel.h"

namespace escort {
namespace {

KernelConfig QuietConfig() {
  KernelConfig kc;
  kc.start_softclock = false;  // no background ticks: precise arithmetic
  return kc;
}

class KernelCoreTest : public ::testing::Test {
 protected:
  KernelCoreTest() : kernel_(&eq_, QuietConfig()) {}

  EventQueue eq_;
  Kernel kernel_;
};

TEST_F(KernelCoreTest, WorkItemConsumesItsCost) {
  Thread* t = kernel_.CreateThread(kernel_.kernel_owner(), "t");
  bool ran = false;
  t->Push(1000, kKernelDomain, [&] { ran = true; });
  eq_.RunToCompletion();
  EXPECT_TRUE(ran);
  // Cost + dispatch overhead, all charged to the kernel owner.
  EXPECT_EQ(kernel_.kernel_owner()->usage().cycles,
            1000 + kernel_.costs().thread_dispatch);
}

TEST_F(KernelCoreTest, ConservationHoldsAcrossIdleAndBusy) {
  Thread* t = kernel_.CreateThread(kernel_.kernel_owner(), "t");
  // Busy at t=0 for 5000 cycles; then an external event at 100000 queues
  // 2000 more.
  t->Push(5000, kKernelDomain, nullptr);
  eq_.ScheduleAt(100'000, [&] { t->Push(2000, kKernelDomain, nullptr); });
  eq_.RunToCompletion();
  CycleLedger ledger = kernel_.Snapshot();
  EXPECT_EQ(ledger.Total(), eq_.now() - kernel_.start_time());
  EXPECT_GT(ledger.Get("Idle"), 0u);
}

TEST_F(KernelCoreTest, NonPreemptiveThreadKeepsCpuUntilYield) {
  Thread* a = kernel_.CreateThread(kernel_.kernel_owner(), "a");
  Owner other(OwnerType::kKernel, kernel_.NextOwnerId(), "other");
  kernel_.RegisterOwner(&other, "other");
  Thread* b = kernel_.CreateThread(&other, "b");

  std::vector<char> order;
  // a enqueues two non-yielding items; b enqueues one. a runs first and
  // must complete both items before b gets the CPU.
  a->Push(100, kKernelDomain, [&] { order.push_back('a'); });
  a->Push(100, kKernelDomain, [&] { order.push_back('a'); });
  b->Push(100, kKernelDomain, [&] { order.push_back('b'); });
  eq_.RunToCompletion();
  EXPECT_EQ(order, (std::vector<char>{'a', 'a', 'b'}));
}

TEST_F(KernelCoreTest, YieldingItemRotatesToOtherThreads) {
  // Two equal-priority owners (the kernel owner outranks everything).
  Owner o1(OwnerType::kKernel, kernel_.NextOwnerId(), "o1");
  Owner other(OwnerType::kKernel, kernel_.NextOwnerId(), "other");
  kernel_.RegisterOwner(&o1, "o1");
  kernel_.RegisterOwner(&other, "other");
  Thread* a = kernel_.CreateThread(&o1, "a");
  Thread* b = kernel_.CreateThread(&other, "b");

  std::vector<char> order;
  a->Push(100, kKernelDomain, [&] { order.push_back('a'); }, /*yields=*/true);
  a->Push(100, kKernelDomain, [&] { order.push_back('a'); }, /*yields=*/true);
  b->Push(100, kKernelDomain, [&] { order.push_back('b'); }, /*yields=*/true);
  eq_.RunToCompletion();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'a'}));
}

TEST_F(KernelCoreTest, ConsumeExtendsBusyPeriod) {
  Thread* t = kernel_.CreateThread(kernel_.kernel_owner(), "t");
  Cycles mid = 0;
  t->Push(1000, kKernelDomain, [&] {
    kernel_.Consume(5000);
    mid = eq_.now();
  });
  bool after = false;
  t->Push(1, kKernelDomain, [&] {
    after = true;
    EXPECT_EQ(eq_.now(), mid + 5000 + 1);
  });
  eq_.RunToCompletion();
  EXPECT_TRUE(after);
}

TEST_F(KernelCoreTest, AccountingSurchargeOnlyWhenEnabled) {
  EventQueue eq2;
  KernelConfig kc = QuietConfig();
  kc.accounting = true;
  Kernel acct(&eq2, kc);

  Thread* t1 = kernel_.CreateThread(kernel_.kernel_owner(), "t");
  Thread* t2 = acct.CreateThread(acct.kernel_owner(), "t");
  t1->Push(1000, kKernelDomain, nullptr);
  t2->Push(1000, kKernelDomain, nullptr);
  eq_.RunToCompletion();
  eq2.RunToCompletion();
  EXPECT_EQ(kernel_.accounting_overhead_cycles(), 0u);
  EXPECT_GT(acct.accounting_overhead_cycles(), 0u);
  EXPECT_GT(acct.kernel_owner()->usage().cycles, kernel_.kernel_owner()->usage().cycles);
}

TEST_F(KernelCoreTest, RunawayDetectionFiresAfterBudget) {
  Owner victim(OwnerType::kKernel, kernel_.NextOwnerId(), "victim");
  kernel_.RegisterOwner(&victim, "victim");
  victim.set_max_thread_run(10'000);

  Owner* detected = nullptr;
  kernel_.set_runaway_handler([&](Owner* o, Thread*) { detected = o; });

  Thread* t = kernel_.CreateThread(&victim, "loop");
  // Non-yielding chunks: 3 x 4000 exceeds the 10k budget.
  for (int i = 0; i < 3; ++i) {
    t->Push(4000, kKernelDomain, nullptr, /*yields=*/false);
  }
  eq_.RunToCompletion();
  EXPECT_EQ(detected, &victim);
  EXPECT_EQ(kernel_.runaway_detections(), 1u);
}

TEST_F(KernelCoreTest, YieldingResetsRunawayClock) {
  Owner victim(OwnerType::kKernel, kernel_.NextOwnerId(), "victim");
  kernel_.RegisterOwner(&victim, "victim");
  victim.set_max_thread_run(10'000);
  bool detected = false;
  kernel_.set_runaway_handler([&](Owner*, Thread*) { detected = true; });

  Thread* t = kernel_.CreateThread(&victim, "polite");
  for (int i = 0; i < 10; ++i) {
    t->Push(4000, kKernelDomain, nullptr, /*yields=*/true);
  }
  eq_.RunToCompletion();
  EXPECT_FALSE(detected);
}

TEST_F(KernelCoreTest, PdCrossingChargedOnlyWithProtectionDomains) {
  EventQueue eq2;
  KernelConfig kc = QuietConfig();
  kc.protection_domains = true;
  Kernel pdk(&eq2, kc);
  ProtectionDomain* pd1 = pdk.CreateDomain("m1");

  Thread* t = pdk.CreateThread(pdk.kernel_owner(), "t");
  t->Push(100, pd1->pd_id(), nullptr);
  eq2.RunToCompletion();
  EXPECT_EQ(pdk.pd_crossings(), 1u);

  // Without protection domains: no crossings counted.
  Thread* t2 = kernel_.CreateThread(kernel_.kernel_owner(), "t2");
  t2->Push(100, 3, nullptr);
  eq_.RunToCompletion();
  EXPECT_EQ(kernel_.pd_crossings(), 0u);
}

TEST_F(KernelCoreTest, IllegalCrossingDetectedAndFaultHandled) {
  EventQueue eq2;
  KernelConfig kc = QuietConfig();
  kc.protection_domains = true;
  Kernel pdk(&eq2, kc);
  ProtectionDomain* pd1 = pdk.CreateDomain("m1");
  ProtectionDomain* pd2 = pdk.CreateDomain("m2");

  // A non-path owner's thread may enter a domain from the kernel, but not
  // hop between two unprivileged domains.
  Owner* faulted = nullptr;
  pdk.set_fault_handler([&](Owner* o, Thread*) { faulted = o; });
  Owner rogue(OwnerType::kKernel, pdk.NextOwnerId(), "rogue");
  pdk.RegisterOwner(&rogue, "rogue");
  Thread* t = pdk.CreateThread(&rogue, "t");
  t->Push(100, pd1->pd_id(), nullptr);
  t->Push(100, pd2->pd_id(), nullptr);  // pd1 -> pd2: illegal
  eq2.RunToCompletion();
  EXPECT_EQ(pdk.crossing_violations(), 1u);
  EXPECT_EQ(faulted, &rogue);
}

TEST_F(KernelCoreTest, StackAllocatedPerDomainEntered) {
  EventQueue eq2;
  KernelConfig kc = QuietConfig();
  kc.protection_domains = true;
  Kernel pdk(&eq2, kc);
  ProtectionDomain* pd1 = pdk.CreateDomain("m1");

  Thread* t = pdk.CreateThread(pdk.kernel_owner(), "t");
  uint64_t stacks_before = pdk.kernel_owner()->usage().stacks;
  t->Push(100, pd1->pd_id(), nullptr);
  t->Push(100, kKernelDomain, nullptr);
  t->Push(100, pd1->pd_id(), nullptr);  // revisits: no new stack
  eq2.RunToCompletion();
  EXPECT_EQ(pdk.kernel_owner()->usage().stacks, stacks_before + 1);
}

TEST_F(KernelCoreTest, StopThreadDropsQueuedWork) {
  Thread* t = kernel_.CreateThread(kernel_.kernel_owner(), "t");
  int ran = 0;
  t->Push(10, kKernelDomain, [&] {
    ++ran;
    kernel_.StopThread(kernel_.current_thread());
  });
  t->Push(10, kKernelDomain, [&] { ++ran; });
  eq_.RunToCompletion();
  EXPECT_EQ(ran, 1);
}

TEST_F(KernelCoreTest, ResetAccountingZeroesLedger) {
  Thread* t = kernel_.CreateThread(kernel_.kernel_owner(), "t");
  t->Push(1000, kKernelDomain, nullptr);
  eq_.RunToCompletion();
  kernel_.ResetAccounting();
  EXPECT_EQ(kernel_.TotalCharged(), 0u);
  t->Push(500, kKernelDomain, nullptr);
  eq_.RunToCompletion();
  EXPECT_EQ(kernel_.TotalCharged(), eq_.now() - kernel_.start_time());
}

TEST_F(KernelCoreTest, SoftclockTicksAndChargesKernel) {
  EventQueue eq2;
  KernelConfig kc;  // softclock on
  Kernel k(&eq2, kc);
  eq2.RunUntil(CyclesFromMillis(10));
  k.SettleIdle();
  // ~10 ticks charged to the kernel owner.
  EXPECT_GT(k.kernel_owner()->usage().cycles, 5 * k.costs().softclock_tick);
  CycleLedger ledger = k.Snapshot();
  EXPECT_EQ(ledger.Total(), eq2.now());
}

TEST_F(KernelCoreTest, PrechargeChargesTargetOwnerAndAdvancesTime) {
  Owner beneficiary(OwnerType::kKernel, kernel_.NextOwnerId(), "b");
  kernel_.RegisterOwner(&beneficiary, "b");
  Thread* t = kernel_.CreateThread(kernel_.kernel_owner(), "t");
  t->Push(100, kKernelDomain, [&] { kernel_.ConsumePrechargedTo(&beneficiary, 7000); });
  eq_.RunToCompletion();
  EXPECT_EQ(beneficiary.usage().cycles, 7000u);
  CycleLedger ledger = kernel_.Snapshot();
  EXPECT_EQ(ledger.Total(), eq_.now() - kernel_.start_time());
}

// --- Policy-handler billing ----------------------------------------------------
// Fault and runaway handlers run inside the kernel between work items. The
// cycles they consume are billed to the kernel owner once the matching CPU
// time has passed, so the Table 1 invariant must hold after every event,
// and the CPU must go on to the next queued thread.

constexpr Cycles kHandlerConsume = 9'000;
constexpr Cycles kHandlerPrecharge = 4'000;

// Runs `eq` dry, checking after every event that each elapsed cycle is
// either charged to an owner or part of the in-flight busy segment.
void RunCheckingConservation(EventQueue& eq, Kernel& k) {
  while (eq.Step()) {
    int64_t accounted = static_cast<int64_t>(k.Snapshot().Total()) + k.UnsettledBusyCycles() -
                        k.unsettled_at_reset();
    ASSERT_EQ(accounted, static_cast<int64_t>(eq.now() - k.start_time()))
        << "at cycle " << eq.now();
  }
}

// A protection-domain kernel with a rogue owner whose thread makes an
// illegal pd1 -> pd2 crossing, and a bystander thread queued behind it.
class FaultBillingTest : public ::testing::Test {
 protected:
  FaultBillingTest() : kernel_(&eq_, PdConfig()) {
    pd1_ = kernel_.CreateDomain("m1")->pd_id();
    pd2_ = kernel_.CreateDomain("m2")->pd_id();
    kernel_.RegisterOwner(&rogue_, "rogue");
    kernel_.RegisterOwner(&bystander_, "bystander");
  }

  static KernelConfig PdConfig() {
    KernelConfig kc = QuietConfig();
    kc.protection_domains = true;
    return kc;
  }

  // Queues the faulting work, then one bystander item; the rogue thread
  // holds the CPU (its items do not yield) until the fault.
  Thread* QueueFaultingWork() {
    Thread* t = kernel_.CreateThread(&rogue_, "rogue");
    t->Push(100, pd1_, nullptr);
    t->Push(100, pd2_, [this] { ++dropped_item_runs_; });  // pd1 -> pd2: illegal
    t->Push(100, kKernelDomain, [this] { rogue_ran_after_fault_ = true; });
    Thread* b = kernel_.CreateThread(&bystander_, "bystander");
    b->Push(100, kKernelDomain, [this] { bystander_ran_ = true; });
    return t;
  }

  EventQueue eq_;
  Kernel kernel_;
  PdId pd1_ = kKernelDomain;
  PdId pd2_ = kKernelDomain;
  Owner rogue_{OwnerType::kKernel, kernel_.NextOwnerId(), "rogue"};
  Owner bystander_{OwnerType::kKernel, kernel_.NextOwnerId(), "bystander"};
  int dropped_item_runs_ = 0;
  bool rogue_ran_after_fault_ = false;
  bool bystander_ran_ = false;
};

TEST_F(FaultBillingTest, HandlerThatStopsTheThreadBillsTheKernelAfterTheDelay) {
  kernel_.set_fault_handler([this](Owner* o, Thread* t) {
    kernel_.Consume(kHandlerConsume);
    kernel_.ConsumePrechargedTo(o, kHandlerPrecharge);
    kernel_.StopThread(t);
  });
  QueueFaultingWork();
  RunCheckingConservation(eq_, kernel_);

  EXPECT_EQ(kernel_.crossing_violations(), 1u);
  EXPECT_TRUE(rogue_.threads().empty());  // StopThread unlinked it
  EXPECT_EQ(dropped_item_runs_, 0);
  EXPECT_FALSE(rogue_ran_after_fault_);
  // The dropped item's trap is the kernel's, like the handler's own work.
  EXPECT_EQ(kernel_.kernel_owner()->usage().cycles,
            kHandlerConsume + kernel_.costs().pd_crossing);
  EXPECT_TRUE(bystander_ran_);
}

TEST_F(FaultBillingTest, HandlerWhoseThreadSurvivesBillsTheKernelAtItemEnd) {
  kernel_.set_fault_handler([this](Owner*, Thread*) { kernel_.Consume(kHandlerConsume); });
  Thread* t = QueueFaultingWork();
  RunCheckingConservation(eq_, kernel_);

  EXPECT_EQ(kernel_.crossing_violations(), 1u);
  EXPECT_NE(t->state(), ThreadState::kDead);
  EXPECT_EQ(dropped_item_runs_, 0);
  EXPECT_TRUE(rogue_ran_after_fault_);
  EXPECT_EQ(kernel_.kernel_owner()->usage().cycles, kHandlerConsume);
  EXPECT_TRUE(bystander_ran_);
}

// A victim owner with a 10k-cycle run budget whose thread overruns it on
// its third non-yielding item, and a bystander thread queued behind it.
class RunawayBillingTest : public KernelCoreTest {
 protected:
  RunawayBillingTest() {
    kernel_.RegisterOwner(&victim_, "victim");
    kernel_.RegisterOwner(&bystander_, "bystander");
    victim_.set_max_thread_run(10'000);
  }

  Thread* QueueRunawayWork(int items) {
    Thread* t = kernel_.CreateThread(&victim_, "loop");
    for (int i = 0; i < items; ++i) {
      t->Push(4000, kKernelDomain, [this] { ++victim_items_run_; }, /*yields=*/false);
    }
    Thread* b = kernel_.CreateThread(&bystander_, "bystander");
    b->Push(100, kKernelDomain, [this] { bystander_ran_ = true; });
    return t;
  }

  Owner victim_{OwnerType::kKernel, kernel_.NextOwnerId(), "victim"};
  Owner bystander_{OwnerType::kKernel, kernel_.NextOwnerId(), "bystander"};
  int victim_items_run_ = 0;
  bool bystander_ran_ = false;
};

TEST_F(RunawayBillingTest, HandlerThatStopsTheThreadWithoutConsumingFreesTheCpu) {
  kernel_.set_runaway_handler([this](Owner*, Thread* t) { kernel_.StopThread(t); });
  QueueRunawayWork(4);
  RunCheckingConservation(eq_, kernel_);

  EXPECT_EQ(kernel_.runaway_detections(), 1u);
  EXPECT_TRUE(victim_.threads().empty());  // StopThread unlinked it
  EXPECT_EQ(victim_items_run_, 3);  // the fourth item died with the thread
  EXPECT_EQ(kernel_.kernel_owner()->usage().cycles, 0u);
  EXPECT_TRUE(bystander_ran_);
}

TEST_F(RunawayBillingTest, HandlerWhoseThreadSurvivesBillsTheKernelAfterTheDelay) {
  kernel_.set_runaway_handler([this](Owner*, Thread*) { kernel_.Consume(kHandlerConsume); });
  Thread* t = QueueRunawayWork(3);
  RunCheckingConservation(eq_, kernel_);

  EXPECT_EQ(kernel_.runaway_detections(), 1u);
  EXPECT_NE(t->state(), ThreadState::kDead);
  EXPECT_EQ(victim_items_run_, 3);
  EXPECT_EQ(kernel_.kernel_owner()->usage().cycles, kHandlerConsume);
  EXPECT_TRUE(bystander_ran_);
}

}  // namespace
}  // namespace escort
