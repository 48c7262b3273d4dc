// Trace subsystem tests (src/sim/trace.h): span bookkeeping and the
// flight-recorder ring in isolation, then the system-level guarantees —
// the same experiment produces a byte-identical trace on every run, its
// counter tracks are exactly the metrics registry's series, tracing never
// perturbs measured results, and flight dumps fire on pathKill and on
// audit violations with the preceding events intact.

#include "src/sim/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "src/kernel/audit.h"
#include "src/sim/event_queue.h"
#include "src/workload/experiment.h"
#include "tests/testbed.h"

namespace escort {
namespace {

size_t CountOccurrences(const std::string& haystack, const std::string& needle) {
  size_t n = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(TraceUnit, SpansBalanceAndFinalizeClosesOpenOnes) {
  TraceConfig tc;
  tc.path = ::testing::TempDir() + "trace_unit.json";
  Tracer tracer(tc);

  tracer.BeginSpan(10, "track-a", "outer", "test");
  tracer.BeginSpan(20, "track-a", "inner", "test");
  tracer.EndSpan(30, "track-a");
  tracer.BeginSpan(15, "track-b", "other", "test");
  // EndSpan on a track with no open span is dropped (spans that began
  // before tracing attached).
  tracer.EndSpan(40, "track-c");
  tracer.Finalize(50);  // closes track-a's outer and track-b's span

  std::string doc = tracer.SerializeStandalone();
  EXPECT_EQ(CountOccurrences(doc, "\"ph\":\"B\""), 3u);
  EXPECT_EQ(CountOccurrences(doc, "\"ph\":\"E\""), 3u);
  EXPECT_NE(doc.find("\"clock\": \"sim-cycles\""), std::string::npos);
  EXPECT_NE(doc.find("\"outer\""), std::string::npos);

  // A second Finalize is a no-op: everything is already balanced.
  tracer.Finalize(60);
  EXPECT_EQ(CountOccurrences(tracer.SerializeStandalone(), "\"ph\":\"E\""), 3u);
}

TEST(TraceUnit, StrEscapesJsonMetacharacters) {
  EXPECT_EQ(Tracer::Str("plain"), "\"plain\"");
  EXPECT_EQ(Tracer::Str("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(Tracer::Str("line\nbreak\t"), "\"line\\nbreak\\t\"");
  EXPECT_EQ(Tracer::Str(std::string("\x01", 1)), "\"\\u0001\"");
  EXPECT_EQ(Tracer::Num(0), "0");
  EXPECT_EQ(Tracer::Num(18446744073709551615ull), "18446744073709551615");
}

TEST(TraceUnit, FlightRingIsBoundedAndDumpsMostRecent) {
  TraceConfig tc;
  tc.path = ::testing::TempDir() + "trace_flight_unit.json";
  tc.flight_capacity = 4;
  Tracer tracer(tc);

  for (int i = 0; i < 10; ++i) {
    tracer.Instant(static_cast<Cycles>(i), "t", "event-" + std::to_string(i), "test");
  }
  tracer.DumpFlight("unit-test-reason", 10);

  EXPECT_EQ(tracer.flight_dumps(), 1u);
  const std::string& dump = tracer.last_flight_dump();
  EXPECT_NE(dump.find("unit-test-reason"), std::string::npos);
  EXPECT_NE(dump.find("\"depth\": 4"), std::string::npos);
  // Only the 4 most recent events survive the ring.
  EXPECT_EQ(dump.find("event-5"), std::string::npos);
  EXPECT_NE(dump.find("event-6"), std::string::npos);
  EXPECT_NE(dump.find("event-9"), std::string::npos);

  // The dump landed on disk at the derived <path>.flight.json location.
  FILE* f = std::fopen(tc.ResolvedFlightPath().c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove(tc.ResolvedFlightPath().c_str());
}

ExperimentSpec AttackSpec() {
  ExperimentSpec spec;
  spec.config = ServerConfig::kAccounting;
  spec.clients = 4;
  spec.doc = "/doc1b";
  spec.syn_attack_rate = 1000.0;
  spec.warmup_s = 0.05;
  spec.window_s = 0.2;
  return spec;
}

// The headline determinism property: the trace byte stream is a pure
// function of the spec.
TEST(Trace, ByteIdenticalAcrossRuns) {
  TraceConfig tc;  // external sink: path stays empty, nothing hits disk
  Tracer t1(tc);
  Tracer t2(tc);

  ExperimentSpec s1 = AttackSpec();
  s1.tracer = &t1;
  ExperimentSpec s2 = AttackSpec();
  s2.tracer = &t2;
  RunExperiment(s1);
  RunExperiment(s2);

  ASSERT_GT(t1.event_count(), 0u);
  std::string doc1 = t1.SerializeStandalone();
  std::string doc2 = t2.SerializeStandalone();
  EXPECT_EQ(doc1, doc2) << "trace differs between two runs of one spec";

  // All three event families are present: lifecycle spans, TCP state
  // transitions, and ledger counter tracks.
  EXPECT_NE(doc1.find("\"path:"), std::string::npos);
  EXPECT_NE(doc1.find("tcp:SYN_RECVD->ESTABLISHED"), std::string::npos);
  EXPECT_NE(doc1.find("kernel.cycles."), std::string::npos);
  EXPECT_NE(doc1.find("kernel.pages."), std::string::npos);
}

using CounterPoint = std::tuple<std::string, Cycles, int64_t>;  // (name, ts, value)

// Every counter and gauge series point of one metrics-document cell.
std::vector<CounterPoint> RegistryPoints(const std::string& cell) {
  std::vector<CounterPoint> out;
  const std::string key = "{\"name\": \"";
  const size_t end = cell.find("\"histograms\"");
  for (size_t pos = cell.find(key); pos < end; pos = cell.find(key, pos + 1)) {
    const size_t name_at = pos + key.size();
    const std::string name = cell.substr(name_at, cell.find('"', name_at) - name_at);
    size_t at = cell.find("\"series\": [", pos) + 11;
    unsigned long long ts = 0;
    long long value = 0;
    int used = 0;
    while (std::sscanf(cell.c_str() + at, "[%llu,%lld]%n", &ts, &value, &used) == 2) {
      out.emplace_back(name, ts, value);
      at += static_cast<size_t>(used);
      at += cell[at] == ',' ? 1 : 0;
    }
  }
  return out;
}

// The trace's counter tracks are rendered from the registry at the end of
// the run: their events are exactly its counter and gauge series points,
// and the counter track (tid 0) never goes backwards.
TEST(Trace, CounterTracksAreTheRegistrySeries) {
  Tracer tracer(TraceConfig{});
  MetricsRegistry registry;
  ExperimentSpec spec = AttackSpec();
  spec.tracer = &tracer;
  spec.metrics_registry = &registry;
  RunExperiment(spec);
  std::vector<CounterPoint> want = RegistryPoints(registry.SerializeCell("x"));

  const std::string doc = tracer.SerializeStandalone();
  const std::string name_key = "\"name\":\"";
  const std::string value_key = "\"args\":{\"value\":";
  std::vector<CounterPoint> got;
  Cycles last_ts = 0;
  for (size_t pos = doc.find("{\"ph\":\"C\""); pos != std::string::npos;
       pos = doc.find("{\"ph\":\"C\"", pos + 1)) {
    unsigned long long ts = 0;
    unsigned tid = 0;
    long long value = 0;
    ASSERT_EQ(std::sscanf(doc.c_str() + pos, "{\"ph\":\"C\",\"ts\":%llu,\"pid\":0,\"tid\":%u",
                          &ts, &tid),
              2);
    ASSERT_EQ(std::sscanf(doc.c_str() + doc.find(value_key, pos) + value_key.size(), "%lld",
                          &value),
              1);
    EXPECT_EQ(tid, 0u);
    EXPECT_GE(ts, last_ts) << "counter track goes backwards";
    last_ts = ts;
    const size_t name_at = doc.find(name_key, pos) + name_key.size();
    got.emplace_back(doc.substr(name_at, doc.find('"', name_at) - name_at), ts, value);
  }

  ASSERT_GT(want.size(), 0u);
  EXPECT_NE(std::find_if(want.begin(), want.end(),
                         [](const CounterPoint& p) {
                           return std::get<0>(p).rfind("kernel.pages.", 0) == 0;
                         }),
            want.end());
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);
}

// With no output path a flight dump stays in memory: the incident the
// attack cell opens must not leave a `.flight.json` in the working
// directory.
TEST(Trace, EmptyPathKeepsFlightDumpInMemory) {
  std::remove(".flight.json");
  TraceConfig tc;
  Tracer tracer(tc);
  ExperimentSpec spec = AttackSpec();
  spec.tracer = &tracer;
  RunExperiment(spec);

  ASSERT_GT(tracer.flight_dumps(), 0u);
  EXPECT_FALSE(tracer.last_flight_dump().empty());
  std::FILE* f = std::fopen(".flight.json", "rb");
  EXPECT_EQ(f, nullptr) << "flight dump written to ./.flight.json";
  if (f != nullptr) {
    std::fclose(f);
  }
}

// Tracing is observation only: attaching a tracer must not change any
// measured result (the instrumentation sites branch on the pointer and
// do no work when it is null — zero overhead when disabled, zero
// perturbation when enabled).
TEST(Trace, TracingDoesNotPerturbResults) {
  ExperimentSpec plain = AttackSpec();
  ExperimentResult off = RunExperiment(plain);

  TraceConfig tc;
  Tracer tracer(tc);
  ExperimentSpec traced = AttackSpec();
  traced.tracer = &tracer;
  ExperimentResult on = RunExperiment(traced);

  EXPECT_EQ(off.completions_total, on.completions_total);
  EXPECT_EQ(off.conns_per_sec, on.conns_per_sec);
  EXPECT_EQ(off.syns_sent, on.syns_sent);
  EXPECT_EQ(off.syns_dropped_at_demux, on.syns_dropped_at_demux);
  EXPECT_EQ(off.paths_killed, on.paths_killed);
  EXPECT_EQ(off.window_cycles, on.window_cycles);
  EXPECT_EQ(off.ledger.Total(), on.ledger.Total());
}

// A runaway CGI attack ends in pathKill, which must dump the flight
// recorder with the events leading up to the kill.
TEST(Trace, FlightDumpOnPathKill) {
  TraceConfig tc;
  tc.flight_path = ::testing::TempDir() + "trace_pathkill.flight.json";
  Tracer tracer(tc);

  ExperimentSpec spec;
  spec.config = ServerConfig::kAccounting;
  spec.clients = 0;
  spec.cgi_attackers = 1;
  spec.warmup_s = 0.05;
  spec.window_s = 1.5;  // long enough for >= 1 attack -> runaway -> kill
  spec.tracer = &tracer;
  ExperimentResult r = RunExperiment(spec);

  ASSERT_GE(r.paths_killed, 1u);
  ASSERT_GE(tracer.flight_dumps(), 1u);
  const std::string& dump = tracer.last_flight_dump();
  EXPECT_NE(dump.find("pathKill"), std::string::npos);
  // The ring preserved context from before the kill: the runaway
  // detection that triggered it.
  EXPECT_NE(dump.find("runaway-detection"), std::string::npos);
  // Counter tracks are written at the end of the run, never into a dump.
  EXPECT_EQ(dump.find("\"ph\":\"C\""), std::string::npos);

  FILE* f = std::fopen(tc.ResolvedFlightPath().c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove(tc.ResolvedFlightPath().c_str());
}

// Audit violations dump the flight recorder too: both the end-of-run
// conservation checks and the per-owner drain check on destruction.
TEST(Trace, FlightDumpOnAuditViolation) {
  KernelConfig kc;
  kc.start_softclock = false;
  EventQueue eq;
  Kernel kernel(&eq, kc);
  AuditScope scope(&kernel, /*enforce=*/false);

  TraceConfig tc;
  tc.flight_path = ::testing::TempDir() + "trace_audit.flight.json";
  Tracer tracer(tc);
  kernel.set_tracer(&tracer);

  tracer.Instant(0, "test", "before-violation", "test");

  // Rule 2 violation: cycles charged with no elapsed simulation time.
  Owner victim(OwnerType::kPath, kernel.NextOwnerId(), "victim");
  kernel.RegisterOwner(&victim, "victim");
  victim.usage().cycles += 9999;
  scope.auditor().CheckConservation(kernel);
  ASSERT_FALSE(scope.auditor().ok());
  EXPECT_EQ(tracer.flight_dumps(), 1u);
  EXPECT_NE(tracer.last_flight_dump().find("audit:conservation"), std::string::npos);
  EXPECT_NE(tracer.last_flight_dump().find("before-violation"), std::string::npos);

  // Rule 1 violation: a counter that never drained before destruction.
  Owner leaky(OwnerType::kPath, kernel.NextOwnerId(), "leaky");
  kernel.RegisterOwner(&leaky, "leaky");
  leaky.usage().pages += 1;
  kernel.DestroyOwner(&leaky, 0);
  EXPECT_EQ(tracer.flight_dumps(), 2u);
  EXPECT_NE(tracer.last_flight_dump().find("audit:owner-drain leaky"),
            std::string::npos);

  scope.auditor().Clear();
  kernel.set_tracer(nullptr);
  std::remove(tc.ResolvedFlightPath().c_str());
  // Unregister the stack-allocated victim before the kernel tears down.
  kernel.DestroyOwner(&victim, 0);
  scope.auditor().Clear();
}

}  // namespace
}  // namespace escort
