// Workload-layer tests: the shared link and the experiment harness itself.

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>

#include "src/sim/trace.h"
#include "src/workload/experiment.h"

namespace escort {
namespace {

class NullEndpoint : public NetEndpoint {
 public:
  void DeliverFrame(const std::vector<uint8_t>& frame) override {
    ++frames;
    last_size = frame.size();
    times.push_back(now ? *now : 0);
  }
  uint64_t frames = 0;
  size_t last_size = 0;
  const Cycles* now = nullptr;
  std::vector<Cycles> times;
};

TEST(SharedLink, DeliversUnicastToOwnerOfDestinationMac) {
  EventQueue eq;
  SharedLink link(&eq, NetworkModel::Calibrated());
  NullEndpoint a;
  NullEndpoint b;
  a.now = &eq.now_ref();
  b.now = &eq.now_ref();
  link.Attach(MacAddr::FromIndex(1), &a);
  link.Attach(MacAddr::FromIndex(2), &b);

  std::vector<uint8_t> frame(100, 0);
  std::copy_n(MacAddr::FromIndex(2).bytes.begin(), 6, frame.begin());
  link.Send(MacAddr::FromIndex(1), frame);
  eq.RunToCompletion();
  EXPECT_EQ(a.frames, 0u);
  EXPECT_EQ(b.frames, 1u);
  EXPECT_EQ(b.last_size, 100u);
}

TEST(SharedLink, BroadcastReachesEveryoneButSender) {
  EventQueue eq;
  SharedLink link(&eq, NetworkModel::Calibrated());
  NullEndpoint a, b, c;
  link.Attach(MacAddr::FromIndex(1), &a);
  link.Attach(MacAddr::FromIndex(2), &b);
  link.Attach(MacAddr::FromIndex(3), &c);
  std::vector<uint8_t> frame(64, 0);
  std::copy_n(MacAddr::Broadcast().bytes.begin(), 6, frame.begin());
  link.Send(MacAddr::FromIndex(1), frame);
  eq.RunToCompletion();
  EXPECT_EQ(a.frames, 0u);
  EXPECT_EQ(b.frames, 1u);
  EXPECT_EQ(c.frames, 1u);
}

TEST(SharedLink, MediumSerializesTransmissions) {
  EventQueue eq;
  NetworkModel model = NetworkModel::Calibrated();
  SharedLink link(&eq, model);
  NullEndpoint sink;
  sink.now = &eq.now_ref();
  link.Attach(MacAddr::FromIndex(2), &sink, 0);

  // Two back-to-back 1500-byte frames: the second arrives one
  // serialization time after the first.
  std::vector<uint8_t> frame(1500, 0);
  std::copy_n(MacAddr::FromIndex(2).bytes.begin(), 6, frame.begin());
  link.Send(MacAddr::FromIndex(1), frame);
  link.Send(MacAddr::FromIndex(1), frame);
  eq.RunToCompletion();
  ASSERT_EQ(sink.times.size(), 2u);
  Cycles gap = sink.times[1] - sink.times[0];
  double expected_secs = (1500 + 24) * 8 / model.link_bandwidth_bps;
  EXPECT_NEAR(SecondsFromCycles(gap), expected_secs, expected_secs * 0.05);
}

TEST(SharedLink, DropEveryNDropsDeterministically) {
  EventQueue eq;
  SharedLink link(&eq, NetworkModel::Calibrated());
  NullEndpoint sink;
  link.Attach(MacAddr::FromIndex(2), &sink);
  link.set_drop_every(3);
  std::vector<uint8_t> frame(64, 0);
  std::copy_n(MacAddr::FromIndex(2).bytes.begin(), 6, frame.begin());
  for (int i = 0; i < 9; ++i) {
    link.Send(MacAddr::FromIndex(1), frame);
  }
  eq.RunToCompletion();
  EXPECT_EQ(link.frames_dropped(), 3u);
  EXPECT_EQ(sink.frames, 6u);
}

// A frame addressed to `dst` (the link reads only the destination MAC).
std::vector<uint8_t> FrameTo(const MacAddr& dst) {
  std::vector<uint8_t> frame(64, 0);
  std::copy_n(dst.bytes.begin(), 6, frame.begin());
  return frame;
}

// Appends its id to a shared log on every delivery.
class LoggingEndpoint : public NetEndpoint {
 public:
  LoggingEndpoint(uint64_t id, std::vector<uint64_t>* log) : id_(id), log_(log) {}
  void DeliverFrame(const std::vector<uint8_t>&) override { log_->push_back(id_); }

 private:
  uint64_t id_;
  std::vector<uint64_t>* log_;
};

TEST(SharedLink, BroadcastDeliversInAscendingMacOrder) {
  // Same-time deliveries are keyed in scheduling order, so the broadcast's
  // walk order is observable: ascending MAC, whatever the attach order.
  EventQueue eq;
  SharedLink link(&eq, NetworkModel::Calibrated());
  std::vector<uint64_t> log;
  LoggingEndpoint e3(3, &log), e1(1, &log), e250k(250000, &log), e2(2, &log);
  link.Attach(MacAddr::FromIndex(3), &e3, 100);
  link.Attach(MacAddr::FromIndex(1), &e1, 100);
  link.Attach(MacAddr::FromIndex(250000), &e250k, 100);
  link.Attach(MacAddr::FromIndex(2), &e2, 100);
  link.Send(MacAddr::FromIndex(2), FrameTo(MacAddr::Broadcast()));
  eq.RunToCompletion();
  EXPECT_EQ(log, (std::vector<uint64_t>{1, 3, 250000}));
}

TEST(SharedLink, DetachEmptiesThePortAndReattachRefillsIt) {
  EventQueue eq;
  SharedLink link(&eq, NetworkModel::Calibrated());
  NullEndpoint first, second;
  const MacAddr mac = MacAddr::FromIndex(7);
  link.Attach(mac, &first);
  link.Send(MacAddr::FromIndex(1), FrameTo(mac));
  eq.RunToCompletion();
  EXPECT_EQ(first.frames, 1u);

  link.Detach(mac);
  link.Send(MacAddr::FromIndex(1), FrameTo(mac));
  link.Send(MacAddr::FromIndex(1), FrameTo(MacAddr::Broadcast()));
  eq.RunToCompletion();
  EXPECT_EQ(first.frames, 1u);

  link.Attach(mac, &second);
  link.Send(MacAddr::FromIndex(1), FrameTo(mac));
  eq.RunToCompletion();
  EXPECT_EQ(first.frames, 1u);
  EXPECT_EQ(second.frames, 1u);
}

TEST(SharedLink, UnicastToUnknownDestinationsIsDropped) {
  EventQueue eq;
  SharedLink link(&eq, NetworkModel::Calibrated());
  NullEndpoint a, b;
  link.Attach(MacAddr::FromIndex(1), &a);
  link.Attach(MacAddr::FromIndex(5), &b);
  link.Detach(MacAddr::FromIndex(5));

  MacAddr foreign = MacAddr::FromIndex(3);
  foreign.bytes[1] = 0x01;  // not 02:00: no FromIndex address
  link.Send(MacAddr::FromIndex(1), FrameTo(MacAddr::FromIndex(5)));       // detached
  link.Send(MacAddr::FromIndex(1), FrameTo(MacAddr::FromIndex(4)));       // never attached
  link.Send(MacAddr::FromIndex(1), FrameTo(MacAddr::FromIndex(1000000)));  // past the table
  link.Send(MacAddr::FromIndex(1), FrameTo(foreign));
  eq.RunToCompletion();
  EXPECT_EQ(a.frames, 0u);
  EXPECT_EQ(b.frames, 0u);
}

TEST(SharedLink, AttachRejectsMacsNotMadeByFromIndex) {
  EventQueue eq;
  SharedLink link(&eq, NetworkModel::Calibrated());
  NullEndpoint a;
  MacAddr foreign = MacAddr::FromIndex(3);
  foreign.bytes[0] = 0x00;
  EXPECT_THROW(link.Attach(foreign, &a), std::invalid_argument);
  EXPECT_THROW(link.Attach(MacAddr::Broadcast(), &a), std::invalid_argument);
}

TEST(ExperimentHarness, BasicRunProducesThroughput) {
  ExperimentSpec spec;
  spec.clients = 4;
  spec.warmup_s = 0.2;
  spec.window_s = 0.4;
  ExperimentResult r = RunExperiment(spec);
  EXPECT_GT(r.conns_per_sec, 100.0);
  EXPECT_EQ(r.client_failures, 0u);
  EXPECT_GT(r.ledger.Get("Main Active Path"), 0u);
  // Conservation over the measurement window.
  double drift = std::abs(static_cast<double>(r.ledger.Total()) -
                          static_cast<double>(r.window_cycles));
  EXPECT_LT(drift / static_cast<double>(r.window_cycles), 0.001);
}

TEST(ExperimentHarness, LinuxComparatorRuns) {
  ExperimentSpec spec;
  spec.linux_server = true;
  spec.clients = 4;
  spec.warmup_s = 0.2;
  spec.window_s = 0.4;
  ExperimentResult r = RunExperiment(spec);
  EXPECT_GT(r.conns_per_sec, 100.0);
}

TEST(ExperimentHarness, DeterministicAcrossRuns) {
  ExperimentSpec spec;
  spec.clients = 2;
  spec.warmup_s = 0.1;
  spec.window_s = 0.2;
  ExperimentResult a = RunExperiment(spec);
  ExperimentResult b = RunExperiment(spec);
  EXPECT_EQ(a.conns_per_sec, b.conns_per_sec);
  EXPECT_EQ(a.completions_total, b.completions_total);
  EXPECT_EQ(a.ledger.Total(), b.ledger.Total());
}

TEST(ExperimentHarness, EnvOverridesRespected) {
  ::setenv("ESCORT_TEST_SECONDS", "1.5", 1);
  EXPECT_DOUBLE_EQ(EnvSeconds("ESCORT_TEST_SECONDS", 9.9), 1.5);
  ::setenv("ESCORT_TEST_SECONDS", "garbage", 1);
  EXPECT_DOUBLE_EQ(EnvSeconds("ESCORT_TEST_SECONDS", 9.9), 9.9);
  ::unsetenv("ESCORT_TEST_SECONDS");
  EXPECT_DOUBLE_EQ(EnvSeconds("ESCORT_TEST_SECONDS", 9.9), 9.9);
}

ExperimentSpec CountSpec(ServerConfig config, StopRule stop, uint64_t count) {
  ExperimentSpec spec;
  spec.config = config;
  spec.stop = stop;
  spec.stop_count = count;
  if (stop == StopRule::kKills) {
    spec.clients = 0;
    spec.cgi_attackers = 1;
  }
  return spec;
}

TEST(ExperimentHarness, AccuracyRunBalancesExactly) {
  ExperimentResult r =
      RunExperiment(CountSpec(ServerConfig::kAccounting, StopRule::kSerialRequests, 10));
  // 5 warm-up requests, then the 10 the window covers.
  EXPECT_EQ(r.completions_total, 5u + 10u);
  EXPECT_EQ(r.ledger.Total(), r.window_cycles);
  EXPECT_GT(r.ledger.Get("Main Active Path"), 0u);
  EXPECT_GT(r.ledger.Get("Passive SYN Path"), 0u);
}

TEST(ExperimentHarness, KillCostMatchesTable2Band) {
  ExperimentResult r = RunExperiment(CountSpec(ServerConfig::kAccounting, StopRule::kKills, 3));
  EXPECT_EQ(r.paths_killed, 3u);
  // Calibrated near the paper's 17,951 cycles.
  EXPECT_GT(r.kill_cost_mean, 10'000.0);
  EXPECT_LT(r.kill_cost_mean, 30'000.0);

  ExperimentResult pd =
      RunExperiment(CountSpec(ServerConfig::kAccountingPd, StopRule::kKills, 3));
  // Full separation costs several times more (paper: 111,568 vs 17,951).
  EXPECT_GT(pd.kill_cost_mean, 3 * r.kill_cost_mean);
}

// With nothing to kill, the kill rule must fail at its deadline rather than
// return a short measurement.
TEST(ExperimentHarness, KillRuleWithoutAttackersThrowsAtDeadline) {
  ExperimentSpec spec = CountSpec(ServerConfig::kAccounting, StopRule::kKills, 1);
  spec.cgi_attackers = 0;
  try {
    RunExperiment(spec);
    FAIL() << "a kill rule that kills nothing returned a result";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos) << e.what();
  }
}

// A blacklist cell runs through the one instrumented runner: penalty-path
// drops and cycles, a trace beyond metadata, and an incident.
TEST(ExperimentHarness, BlacklistCellIsInstrumented) {
  Tracer tracer{TraceConfig{}};
  MetricsRegistry registry;
  ExperimentSpec spec;
  spec.clients = 8;
  spec.cgi_attackers = 4;
  spec.cgi_attack_period = CyclesFromMillis(100);
  spec.blacklist = true;
  spec.warmup_s = 0.1;
  spec.window_s = 0.3;
  spec.tracer = &tracer;
  spec.metrics_registry = &registry;
  ExperimentResult r = RunExperiment(spec);

  EXPECT_GT(r.syns_dropped_at_demux, 0u);
  EXPECT_EQ(r.ledger.totals().count("Penalty Path"), 1u);
  EXPECT_GT(tracer.event_count(), 0u);
  bool runaway_incident = false;
  for (const IncidentRecord& inc : r.incidents) {
    runaway_incident = runaway_incident || inc.trigger == "runaway-kill";
  }
  EXPECT_TRUE(runaway_incident);
}

}  // namespace
}  // namespace escort
