// Deterministic metrics plane: counters, gauges and log2-bucketed
// histograms, sampled into sim-time series and exported as a byte-stable
// JSON document. The series are also the trace's counter tracks
// (AppendCounterTracks).
//
// Determinism contract (same as the tracer, src/sim/trace.h):
//
//  * Metrics are mutated only by the cell's own events, in the queue's
//    deterministic order. `Sample()` runs on stream 0 at fixed sim times,
//    so the sampled series are a pure function of the spec.
//  * Serialization iterates std::map (sorted by metric name) — the
//    document does not depend on registration order, worker count, or
//    pointer values. The same `--metrics PATH` document is byte-identical
//    across --jobs (CI diffs it).
//
// Zero cost when disabled: instrumented components hold raw metric
// pointers that stay null when no registry is attached; every hot-path
// site is a single null test (see MetricAdd/MetricObserve helpers).
//
// Registration goes through the ESCORT_METRIC_* macros so escort_lint
// EL015 can flag ad-hoc registration (or static counters) elsewhere.

#ifndef SRC_SIM_METRICS_H_
#define SRC_SIM_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/types.h"

namespace escort {

class Tracer;

// Sampling period of the metrics tick: counter/gauge series and the health
// monitor's rules.
inline constexpr Cycles kMetricsSampleInterval = CyclesFromMillis(5.0);
// Histogram bucket count: bucket 0 holds value 0, bucket k>0 holds
// [2^(k-1), 2^k). 40 buckets cover ~1.8 hours of cycle-valued samples.
inline constexpr uint32_t kHistogramBuckets = 40;

// Monotonic counter.
class MetricCounter {
 public:
  void Add(uint64_t delta) { value_ += delta; }
  void Increment() { ++value_; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

// Signed instantaneous value.
class MetricGauge {
 public:
  void Set(int64_t v) { value_ = v; }
  void Add(int64_t delta) { value_ += delta; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

// Log2-bucketed histogram of non-negative integer samples (cycles, us,
// bytes).
class MetricHistogram {
 public:
  explicit MetricHistogram(uint32_t buckets);

  // Bucket index for a value: 0 for 0, else 1 + floor(log2(v)), clamped
  // to the last bucket.
  static uint32_t BucketOf(uint64_t v, uint32_t buckets);
  // Inclusive upper bound of a bucket (0 for bucket 0, 2^k - 1 for k>0).
  static uint64_t BucketUpperBound(uint32_t bucket);

  void Observe(uint64_t v);
  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  const std::vector<uint64_t>& buckets() const { return buckets_; }
  // Upper bound of the bucket holding the p-quantile (p in [0,1]);
  // 0 when empty. Deterministic: pure function of the bucket vector.
  uint64_t Percentile(double p) const;

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
};

// Registry of named metrics for one experiment cell. Instance-based (no
// global state); the kernel and server modules hold a raw pointer that is
// null when metrics are disabled.
class MetricsRegistry {
 public:
  // Get-or-create by name. Returned pointers are stable for the registry's
  // lifetime. Call through the ESCORT_METRIC_* macros
  // (escort_lint EL015).
  MetricCounter* RegisterCounter(const std::string& name, const char* help);
  MetricGauge* RegisterGauge(const std::string& name, const char* help);
  MetricHistogram* RegisterHistogram(const std::string& name, const char* help);

  // Lookup without creating (null when absent).
  const MetricCounter* FindCounter(const std::string& name) const;
  const MetricGauge* FindGauge(const std::string& name) const;
  const MetricHistogram* FindHistogram(const std::string& name) const;

  // Appends one series point per counter/gauge (coalescing repeats of the
  // same value). Called from the stream-0 sampler at fixed sim times.
  void Sample(Cycles now);

  // Byte-stable JSON fragment for one sweep cell. A counter's or gauge's
  // `value` is its last sampled value, so changes after the last tick
  // (testbed teardown) never reach the document.
  std::string SerializeCell(const std::string& cell_id) const;

  // Appends every counter and gauge series point to `tracer` as a counter
  // event named after the metric, merged by timestamp (ties in
  // serialization order: counters, then gauges, each by name), so the
  // counter track never goes backwards. Call once, at the end of the run.
  void AppendCounterTracks(Tracer* tracer) const;

  // Wraps per-cell fragments (grid order) into the pinned document.
  static std::string WrapDocument(const std::vector<std::string>& fragments);

 private:
  struct SeriesPoint {
    Cycles ts = 0;
    int64_t value = 0;
  };
  struct CounterEntry {
    std::string help;
    MetricCounter metric;
    std::vector<SeriesPoint> series;
  };
  struct GaugeEntry {
    std::string help;
    MetricGauge metric;
    std::vector<SeriesPoint> series;
  };
  struct HistogramEntry {
    std::string help;
    MetricHistogram metric;
    explicit HistogramEntry(uint32_t buckets) : metric(buckets) {}
  };

  // std::map: sorted iteration makes serialization independent of
  // registration order (EL004-friendly, byte-stable).
  std::map<std::string, CounterEntry> counters_;
  std::map<std::string, GaugeEntry> gauges_;
  std::map<std::string, HistogramEntry> histograms_;
};

// Null-safe hot-path helpers: one pointer test when metrics are disabled.
inline void MetricAdd(MetricCounter* c, uint64_t delta = 1) {
  if (c != nullptr) c->Add(delta);
}
inline void MetricAdd(MetricGauge* g, int64_t delta) {
  if (g != nullptr) g->Add(delta);
}
inline void MetricSet(MetricGauge* g, int64_t v) {
  if (g != nullptr) g->Set(v);
}
inline void MetricObserve(MetricHistogram* h, uint64_t v) {
  if (h != nullptr) h->Observe(v);
}

// EL015: all metric registration goes through these macros so the linter
// can spot ad-hoc registration calls and static counters elsewhere.
#define ESCORT_METRIC_COUNTER(registry, name, help) \
  ((registry)->RegisterCounter((name), (help)))
#define ESCORT_METRIC_GAUGE(registry, name, help) \
  ((registry)->RegisterGauge((name), (help)))
#define ESCORT_METRIC_HISTOGRAM(registry, name, help) \
  ((registry)->RegisterHistogram((name), (help)))

}  // namespace escort

#endif  // SRC_SIM_METRICS_H_
