#include "src/sim/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "src/sim/trace.h"

namespace escort {

namespace {

// Signed JSON number for gauge values and series points; everything else
// is encoded with Tracer::Str/Tracer::Num.
std::string SNum(int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  return buf;
}

}  // namespace

MetricHistogram::MetricHistogram(uint32_t buckets)
    : buckets_(buckets > 1 ? buckets : 2, 0) {}

uint32_t MetricHistogram::BucketOf(uint64_t v, uint32_t buckets) {
  if (v == 0) return 0;
  uint32_t k = 1;
  while (v > 1 && k + 1 < buckets) {
    v >>= 1;
    ++k;
  }
  return k;
}

uint64_t MetricHistogram::BucketUpperBound(uint32_t bucket) {
  if (bucket == 0) return 0;
  if (bucket >= 64) return ~0ull;
  return (1ull << bucket) - 1;
}

void MetricHistogram::Observe(uint64_t v) {
  buckets_[BucketOf(v, static_cast<uint32_t>(buckets_.size()))] += 1;
  count_ += 1;
  sum_ += v;
}

uint64_t MetricHistogram::Percentile(double p) const {
  if (count_ == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  // Rank of the p-quantile sample, 1-based, rounded up.
  uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(count_));
  if (rank == 0) rank = 1;
  if (rank > count_) rank = count_;
  uint64_t seen = 0;
  for (uint32_t b = 0; b < buckets_.size(); ++b) {
    seen += buckets_[b];
    if (seen >= rank) return BucketUpperBound(b);
  }
  return BucketUpperBound(static_cast<uint32_t>(buckets_.size()) - 1);
}

MetricCounter* MetricsRegistry::RegisterCounter(const std::string& name,
                                                const char* help) {
  auto [it, inserted] = counters_.try_emplace(name);
  if (inserted) it->second.help = help;
  return &it->second.metric;
}

MetricGauge* MetricsRegistry::RegisterGauge(const std::string& name, const char* help) {
  auto [it, inserted] = gauges_.try_emplace(name);
  if (inserted) it->second.help = help;
  return &it->second.metric;
}

MetricHistogram* MetricsRegistry::RegisterHistogram(const std::string& name,
                                                    const char* help) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, HistogramEntry(kHistogramBuckets)).first;
    it->second.help = help;
  }
  return &it->second.metric;
}

const MetricCounter* MetricsRegistry::FindCounter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second.metric;
}

const MetricGauge* MetricsRegistry::FindGauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second.metric;
}

const MetricHistogram* MetricsRegistry::FindHistogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second.metric;
}

void MetricsRegistry::Sample(Cycles now) {
  for (auto& [name, e] : counters_) {
    const int64_t v = static_cast<int64_t>(e.metric.value());
    if (!e.series.empty() && e.series.back().value == v) continue;
    e.series.push_back(SeriesPoint{now, v});
  }
  for (auto& [name, e] : gauges_) {
    const int64_t v = e.metric.value();
    if (!e.series.empty() && e.series.back().value == v) continue;
    e.series.push_back(SeriesPoint{now, v});
  }
}

namespace {

// One "counters" or "gauges" section. `value` is the last sampled value
// (0 before the first tick), never the live one.
template <typename Entries>
void AppendSampledSection(std::string* out, const char* key, const Entries& entries) {
  *out += "\"";
  *out += key;
  *out += "\": [";
  bool first = true;
  for (const auto& [name, e] : entries) {
    if (!first) *out += ",";
    first = false;
    const int64_t last = e.series.empty() ? 0 : e.series.back().value;
    *out += "\n{\"name\": " + Tracer::Str(name) + ", \"help\": " + Tracer::Str(e.help) +
            ", \"value\": " + SNum(last) + ", \"series\": [";
    for (size_t i = 0; i < e.series.size(); ++i) {
      if (i != 0) *out += ",";
      *out += "[" + Tracer::Num(e.series[i].ts) + "," + SNum(e.series[i].value) + "]";
    }
    *out += "]}";
  }
  *out += "],\n";
}

}  // namespace

std::string MetricsRegistry::SerializeCell(const std::string& cell_id) const {
  std::string out = "{\"cell\": " + Tracer::Str(cell_id) +
                    ", \"sample_interval\": " + Tracer::Num(kMetricsSampleInterval) + ",\n";
  AppendSampledSection(&out, "counters", counters_);
  AppendSampledSection(&out, "gauges", gauges_);

  out += "\"histograms\": [";
  bool first = true;
  for (const auto& [name, e] : histograms_) {
    if (!first) out += ",";
    first = false;
    const MetricHistogram& h = e.metric;
    out += "\n{\"name\": " + Tracer::Str(name) + ", \"help\": " + Tracer::Str(e.help) +
           ", \"count\": " + Tracer::Num(h.count()) + ", \"sum\": " + Tracer::Num(h.sum()) +
           ", \"p50\": " + Tracer::Num(h.Percentile(0.50)) +
           ", \"p90\": " + Tracer::Num(h.Percentile(0.90)) +
           ", \"p99\": " + Tracer::Num(h.Percentile(0.99)) + ", \"buckets\": [";
    // Trailing empty buckets are elided to keep the document compact.
    size_t last = h.buckets().size();
    while (last > 0 && h.buckets()[last - 1] == 0) --last;
    for (size_t b = 0; b < last; ++b) {
      if (b != 0) out += ",";
      out += Tracer::Num(h.buckets()[b]);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

void MetricsRegistry::AppendCounterTracks(Tracer* tracer) const {
  struct Point {
    Cycles ts;
    const std::string* name;
    int64_t value;
  };
  std::vector<Point> points;
  auto collect = [&points](const auto& entries) {
    for (const auto& [name, e] : entries) {
      for (const SeriesPoint& p : e.series) points.push_back(Point{p.ts, &name, p.value});
    }
  };
  collect(counters_);
  collect(gauges_);
  std::stable_sort(points.begin(), points.end(),
                   [](const Point& a, const Point& b) { return a.ts < b.ts; });
  for (const Point& p : points) {
    tracer->Counter(p.ts, *p.name, {{"value", SNum(p.value)}});
  }
}

std::string MetricsRegistry::WrapDocument(const std::vector<std::string>& fragments) {
  std::string out = "{\n\"escort_metrics_schema\": 3,\n\"cpu_hz\": " + Tracer::Num(kCpuHz) +
                    ",\n\"cells\": [\n";
  bool first = true;
  for (const std::string& f : fragments) {
    if (f.empty()) continue;
    if (!first) out += ",\n";
    first = false;
    out += f;
  }
  out += "\n]\n}\n";
  return out;
}

}  // namespace escort
