// Metrics-plane core tests: log2 histogram bucket math, the pinned
// metrics-JSON schema (a counter's or gauge's `value` is its last sample),
// byte-identity of the --metrics document across --jobs, testbed teardown
// staying out of the document, and zero perturbation of simulation results
// when metrics collection is toggled.

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/metrics.h"
#include "src/workload/sweep.h"

namespace escort {
namespace {

// --- histogram bucket boundaries ---------------------------------------

TEST(MetricHistogramTest, BucketOfEdges) {
  const uint32_t kBuckets = 40;
  EXPECT_EQ(MetricHistogram::BucketOf(0, kBuckets), 0u);
  EXPECT_EQ(MetricHistogram::BucketOf(1, kBuckets), 1u);
  // Bucket k > 0 holds [2^(k-1), 2^k): both edges of several powers.
  for (uint32_t k = 1; k < 20; ++k) {
    const uint64_t lo = 1ull << (k - 1);
    const uint64_t hi = (1ull << k) - 1;
    EXPECT_EQ(MetricHistogram::BucketOf(lo, kBuckets), k) << "lo of bucket " << k;
    EXPECT_EQ(MetricHistogram::BucketOf(hi, kBuckets), k) << "hi of bucket " << k;
  }
  // Values past the range clamp into the last bucket.
  EXPECT_EQ(MetricHistogram::BucketOf(~0ull, kBuckets), kBuckets - 1);
  EXPECT_EQ(MetricHistogram::BucketOf(1ull << 50, 8), 7u);
}

TEST(MetricHistogramTest, BucketUpperBounds) {
  EXPECT_EQ(MetricHistogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(MetricHistogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(MetricHistogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(MetricHistogram::BucketUpperBound(10), 1023u);
  EXPECT_EQ(MetricHistogram::BucketUpperBound(64), ~0ull);
  // Consistency: a value's bucket upper bound is >= the value.
  for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 100ull, 65535ull, 65536ull}) {
    const uint32_t b = MetricHistogram::BucketOf(v, 40);
    EXPECT_GE(MetricHistogram::BucketUpperBound(b), v) << "v=" << v;
  }
}

TEST(MetricHistogramTest, ObserveAndPercentiles) {
  MetricHistogram h(16);
  EXPECT_EQ(h.Percentile(0.5), 0u);  // empty
  for (int i = 0; i < 90; ++i) h.Observe(3);    // bucket 2, ub 3
  for (int i = 0; i < 10; ++i) h.Observe(200);  // bucket 8, ub 255
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 90u * 3 + 10u * 200);
  EXPECT_EQ(h.Percentile(0.50), 3u);
  EXPECT_EQ(h.Percentile(0.90), 3u);
  EXPECT_EQ(h.Percentile(0.99), 255u);
  EXPECT_EQ(h.Percentile(0.0), 3u);   // clamped to rank 1
  EXPECT_EQ(h.Percentile(1.0), 255u);
}

// --- golden JSON schema --------------------------------------------------

// Pins the exact serialized form. A diff here is a schema change: update
// the golden string AND tools/ consumers (check_bench_json.py renderers,
// DESIGN.md §6.10) together.
TEST(MetricsRegistryTest, GoldenDocument) {
  MetricsRegistry reg;

  ESCORT_METRIC_COUNTER(&reg, "a.count", "alpha")->Add(3);
  ESCORT_METRIC_GAUGE(&reg, "g", "gee")->Set(-2);
  MetricHistogram* h = ESCORT_METRIC_HISTOGRAM(&reg, "h", "aitch");
  h->Observe(0);
  h->Observe(1);
  h->Observe(5);
  reg.Sample(100);

  const std::string cell = reg.SerializeCell("golden");
  const std::string want_cell =
      "{\"cell\": \"golden\", \"sample_interval\": 1500000,\n"
      "\"counters\": [\n"
      "{\"name\": \"a.count\", \"help\": \"alpha\", \"value\": 3, "
      "\"series\": [[100,3]]}],\n"
      "\"gauges\": [\n"
      "{\"name\": \"g\", \"help\": \"gee\", \"value\": -2, "
      "\"series\": [[100,-2]]}],\n"
      "\"histograms\": [\n"
      "{\"name\": \"h\", \"help\": \"aitch\", \"count\": 3, \"sum\": 6, "
      "\"p50\": 0, \"p90\": 1, \"p99\": 1, \"buckets\": [1,1,0,1]}]}";
  EXPECT_EQ(cell, want_cell);

  const std::string doc = MetricsRegistry::WrapDocument({cell});
  const std::string want_doc = "{\n\"escort_metrics_schema\": 3,\n\"cpu_hz\": " +
                               std::to_string(kCpuHz) + ",\n\"cells\": [\n" +
                               want_cell + "\n]\n}\n";
  EXPECT_EQ(doc, want_doc);
}

TEST(MetricsRegistryTest, SampleCoalescesRepeatedValues) {
  MetricsRegistry reg;
  MetricCounter* c = ESCORT_METRIC_COUNTER(&reg, "c", "c");
  c->Increment();
  reg.Sample(10);
  reg.Sample(20);  // unchanged value: no new point
  c->Increment();
  reg.Sample(30);
  const std::string cell = reg.SerializeCell("x");
  EXPECT_NE(cell.find("\"series\": [[10,1],[30,2]]"), std::string::npos) << cell;
}

// The document reports what the ticks saw: a change after the last sample
// (testbed teardown, in a sweep) reaches neither the series nor `value`.
TEST(MetricsRegistryTest, ValueIsTheLastSample) {
  MetricsRegistry reg;
  MetricCounter* c = ESCORT_METRIC_COUNTER(&reg, "c", "c");
  MetricGauge* g = ESCORT_METRIC_GAUGE(&reg, "g", "g");
  c->Add(2);
  g->Set(5);
  reg.Sample(10);
  c->Add(7);
  g->Set(-1);
  ESCORT_METRIC_COUNTER(&reg, "late", "l")->Add(3);
  const std::string cell = reg.SerializeCell("x");
  EXPECT_NE(cell.find("\"name\": \"c\", \"help\": \"c\", \"value\": 2, \"series\": [[10,2]]"),
            std::string::npos)
      << cell;
  EXPECT_NE(cell.find("\"name\": \"g\", \"help\": \"g\", \"value\": 5, \"series\": [[10,5]]"),
            std::string::npos)
      << cell;
  // Registered after the last tick: no sample, so 0.
  EXPECT_NE(cell.find("\"name\": \"late\", \"help\": \"l\", \"value\": 0, \"series\": []"),
            std::string::npos)
      << cell;
}

TEST(MetricsRegistryTest, NullSafeHelpersNoOp) {
  MetricAdd(static_cast<MetricCounter*>(nullptr));
  MetricAdd(static_cast<MetricGauge*>(nullptr), 3);
  MetricSet(nullptr, 5);
  MetricObserve(nullptr, 9);  // all must be safe no-ops
}

// --- byte-identity across --jobs ----------------------------------------

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<SweepCell> SmallGrid() {
  Sweep proto("metrics_identity");
  ExperimentSpec benign;
  benign.config = ServerConfig::kAccountingPd;
  benign.clients = 4;
  benign.doc = "/doc1k";
  benign.warmup_s = 0.05;
  benign.window_s = 0.2;
  proto.Add("benign", benign);
  ExperimentSpec attack = benign;
  attack.syn_attack_rate = 800.0;
  proto.Add("attack", attack);
  return proto.cells();
}

TEST(MetricsDeterminismTest, DocumentByteIdenticalAcrossJobs) {
  std::vector<SweepCell> grid = SmallGrid();
  std::string reference;
  for (int jobs : {1, 4}) {
    const std::string path = testing::TempDir() + "metrics_j" + std::to_string(jobs) + ".json";
    Sweep sweep("metrics_identity");
    for (const SweepCell& cell : grid) sweep.Add(cell.id, cell.spec);
    SweepOptions opts;
    opts.jobs = jobs;
    opts.metrics_path = path;
    sweep.Run(opts);
    ASSERT_EQ(sweep.failed_count(), 0);
    const std::string doc = Slurp(path);
    ASSERT_FALSE(doc.empty());
    if (reference.empty()) {
      reference = doc;
    } else {
      EXPECT_EQ(doc, reference) << "metrics document differs at jobs=" << jobs;
    }
  }
}

// The sweep serializes each cell's registry after RunExperiment has torn
// the testbed down, and teardown kills every surviving path: TCP reports
// each as a `path-killed` outcome. No path is killed during a benign run,
// so a document that carries the last sampled values reads 0.
TEST(MetricsDeterminismTest, TeardownDoesNotReachTheDocument) {
  const std::string path = testing::TempDir() + "metrics_teardown.json";
  Sweep sweep("metrics_teardown");
  sweep.Add("benign", SmallGrid().front().spec);
  SweepOptions opts;
  opts.jobs = 1;
  opts.metrics_path = path;
  sweep.Run(opts);
  ASSERT_EQ(sweep.Result("benign").paths_killed, 0u);
  const std::string doc = Slurp(path);
  const std::string entry =
      "\"name\": \"tcp.outcomes.path-killed\", \"help\": \"terminal connection outcomes\", "
      "\"value\": ";
  const size_t at = doc.find(entry);
  ASSERT_NE(at, std::string::npos) << doc;
  EXPECT_EQ(doc.compare(at + entry.size(), 2, "0,"), 0) << doc.substr(at, 160);
}

// A failed final flush is a failed write. On a full device fwrite only
// buffers a small document and fclose is what fails, so the sweep must
// exit instead of reporting success.
TEST(MetricsOutputDeathTest, FullDeviceFailsTheSweep) {
  EXPECT_EXIT(
      {
        Sweep sweep("metrics_full_device");
        sweep.AddCustom("empty", ExperimentSpec(),
                        [](const ExperimentSpec&) { return CellMetrics(); });
        SweepOptions opts;
        opts.jobs = 1;
        opts.metrics_path = "/dev/full";
        sweep.Run(opts);
      },
      ::testing::ExitedWithCode(1), "cannot write metrics output");
}

// --- zero perturbation ---------------------------------------------------

// Metrics collection is observation only: toggling it must not change a
// single bit of the simulation results. The sampler runs as scheduled
// events, so this is a real property, not a tautology.
TEST(MetricsDeterminismTest, CollectionDoesNotPerturbResults) {
  for (bool attack : {false, true}) {
    ExperimentSpec spec;
    spec.config = ServerConfig::kAccountingPd;
    spec.clients = 4;
    spec.doc = "/doc1k";
    spec.warmup_s = 0.05;
    spec.window_s = 0.2;
    if (attack) spec.syn_attack_rate = 800.0;

    ExperimentSpec with = spec;
    with.collect_metrics = true;
    ExperimentSpec without = spec;
    without.collect_metrics = false;
    const ExperimentResult a = RunExperiment(with);
    const ExperimentResult b = RunExperiment(without);

    const std::string ctx = attack ? "attack" : "benign";
    EXPECT_EQ(a.conns_per_sec, b.conns_per_sec) << ctx;
    EXPECT_EQ(a.completions_total, b.completions_total) << ctx;
    EXPECT_EQ(a.client_failures, b.client_failures) << ctx;
    EXPECT_EQ(a.paths_killed, b.paths_killed) << ctx;
    EXPECT_EQ(a.syns_dropped_at_demux, b.syns_dropped_at_demux) << ctx;
    EXPECT_EQ(a.syns_sent, b.syns_sent) << ctx;
    EXPECT_EQ(a.runaway_detections, b.runaway_detections) << ctx;
    EXPECT_EQ(a.window_cycles, b.window_cycles) << ctx;
    EXPECT_EQ(a.ledger.totals(), b.ledger.totals()) << ctx;
    // With collection on, the monitor reports; off, it cannot.
    EXPECT_TRUE(b.incidents.empty()) << ctx;
    if (attack) {
      EXPECT_FALSE(a.incidents.empty()) << ctx;
    }
  }
}

}  // namespace
}  // namespace escort
