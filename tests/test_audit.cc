// Escort Auditor tests: the machine-checked resource-conservation layer
// (src/kernel/audit.h). Seeded violations — a leaked charge, a missing
// release, injected cycles — must be reported; clean teardowns and full
// end-to-end runs must pass with zero drift.

#include <gtest/gtest.h>

#include "src/kernel/audit.h"
#include "tests/testbed.h"

namespace escort {
namespace {

KernelConfig QuietConfig() {
  KernelConfig kc;
  kc.start_softclock = false;
  return kc;
}

class AuditTest : public ::testing::Test {
 protected:
  AuditTest() : kernel_(&eq_, QuietConfig()), scope_(&kernel_, /*enforce=*/false) {}

  Owner* MakeOwner(const std::string& name) {
    owners_.push_back(
        std::make_unique<Owner>(OwnerType::kPath, kernel_.NextOwnerId(), name));
    kernel_.RegisterOwner(owners_.back().get(), name);
    return owners_.back().get();
  }

  // Declaration order matters: scope_ is last so its destructor (which
  // runs the final conservation checks against the kernel) executes first,
  // while the owners it inspects are still alive.
  EventQueue eq_;
  Kernel kernel_;
  std::vector<std::unique_ptr<Owner>> owners_;
  AuditScope scope_;
};

TEST_F(AuditTest, LeakedKmemChargeIsReportedOnDestroy) {
  Owner* o = MakeOwner("leaky");
  // A charge with no matching release: the classic mis-accounting bug the
  // auditor exists to catch.
  kernel_.ChargeKmem(o, 123);
  kernel_.DestroyOwner(o, 0);

  ASSERT_FALSE(scope_.auditor().ok());
  EXPECT_EQ(scope_.auditor().violations().size(), 1u);
  EXPECT_EQ(scope_.auditor().violations()[0].check, "owner-drain/kmem_bytes");
  scope_.auditor().Clear();
}

TEST_F(AuditTest, MissingReleaseInCounterIsReportedOnDestroy) {
  Owner* o = MakeOwner("skewed");
  // Simulate a broken charge/track-list pairing: the counter says one page
  // is held but no page is on the tracking list, so reclamation cannot
  // find it and the counter never drains.
  o->usage().pages += 1;
  kernel_.DestroyOwner(o, 0);

  ASSERT_FALSE(scope_.auditor().ok());
  EXPECT_EQ(scope_.auditor().violations()[0].check, "owner-drain/pages");
  scope_.auditor().Clear();
}

TEST_F(AuditTest, CleanTeardownDrainsEveryResource) {
  Owner* o = MakeOwner("clean");
  kernel_.CreateThread(o, "worker");
  kernel_.RegisterEvent(o, "tick", 1000, 0, 10, kKernelDomain, [] {});
  ASSERT_NE(kernel_.AllocPage(o), nullptr);
  ASSERT_NE(kernel_.AllocIoBuffer(o, 100, kKernelDomain, {kKernelDomain}), nullptr);

  kernel_.DestroyOwner(o, 0);
  EXPECT_TRUE(scope_.auditor().ok()) << scope_.auditor().Report();
}

TEST_F(AuditTest, ObjectConservationCrossChecksRegistries) {
  Owner* o = MakeOwner("live");
  // A live owner whose counter disagrees with the kernel-wide registry.
  o->usage().iobuffer_locks += 2;
  scope_.auditor().CheckConservation(kernel_);

  ASSERT_FALSE(scope_.auditor().ok());
  EXPECT_EQ(scope_.auditor().violations()[0].check, "object-conservation/iobuffer_locks");
  scope_.auditor().Clear();
}

TEST_F(AuditTest, InjectedCyclesBreakCycleConservation) {
  Owner* o = MakeOwner("cheater");
  Thread* t = kernel_.CreateThread(o, "t");
  t->Push(5000, kKernelDomain, nullptr);
  eq_.RunToCompletion();

  // Sanity: the untampered run conserves cycles exactly.
  scope_.auditor().CheckConservation(kernel_);
  ASSERT_TRUE(scope_.auditor().ok()) << scope_.auditor().Report();

  // Cycles charged with no elapsed time — a mis-charge the ledger cannot
  // hide from the conservation check.
  o->usage().cycles += 9999;
  scope_.auditor().CheckConservation(kernel_);
  ASSERT_FALSE(scope_.auditor().ok());
  EXPECT_EQ(scope_.auditor().violations()[0].check, "cycle-conservation");
  scope_.auditor().Clear();
}

using AuditDeathTest = AuditTest;

TEST_F(AuditDeathTest, EnforcingScopeAbortsOnSeededViolation) {
  EXPECT_DEATH(
      {
        EventQueue eq;
        Kernel kernel(&eq, QuietConfig());
        AuditScope scope(&kernel, /*enforce=*/true);
        Owner o(OwnerType::kPath, kernel.NextOwnerId(), "leaky");
        kernel.RegisterOwner(&o, "leaky");
        kernel.ChargeKmem(&o, 64);
        kernel.DestroyOwner(&o, 0);
        // Scope destruction enforces: report + abort.
      },
      "escort-audit");
}

// The Table 1 claim as a hard assertion over a fig8-style throughput run:
// every cycle of simulated time is charged to exactly one owner, in every
// server configuration, with zero drift.
class AuditConfigSweep : public ::testing::TestWithParam<ServerConfig> {};

TEST_P(AuditConfigSweep, CycleConservationExactOverThroughputRun) {
  Testbed tb(GetParam());
  std::vector<std::unique_ptr<HttpClient>> clients;
  for (int i = 0; i < 6; ++i) {
    clients.push_back(
        std::make_unique<HttpClient>(tb.AddClient(i), tb.server->options().ip, "/doc1k"));
    clients.back()->Start(CyclesFromMillis(i));
  }
  tb.RunFor(1.0);

  Kernel& kernel = tb.server->kernel();
  CycleLedger ledger = kernel.Snapshot();
  int64_t elapsed = static_cast<int64_t>(kernel.now() - kernel.start_time());
  EXPECT_EQ(static_cast<int64_t>(ledger.Total()) + kernel.UnsettledBusyCycles() -
                kernel.unsettled_at_reset(),
            elapsed);

  tb.audit->auditor().CheckConservation(kernel);
  EXPECT_TRUE(tb.audit->auditor().ok()) << tb.audit->auditor().Report();

  // The run did real work (not a vacuous conservation proof).
  uint64_t completed = 0;
  for (const auto& c : clients) {
    completed += c->completed();
  }
  EXPECT_GT(completed, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, AuditConfigSweep,
                         ::testing::Values(ServerConfig::kScout, ServerConfig::kAccounting,
                                           ServerConfig::kAccountingPd));

}  // namespace
}  // namespace escort
