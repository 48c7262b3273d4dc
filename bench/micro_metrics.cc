// Micro-benchmarks (google-benchmark) over the metrics plane's hot-path
// primitives: the per-site cost budget that lets instrumentation stay
// always-on in the fig benches.
//
//  * counter Add / gauge Set through the null-safe helpers — the cost a
//    site pays when metrics are ENABLED,
//  * the same helpers against a null pointer — the cost when DISABLED
//    (must stay a single predictable branch),
//  * histogram Observe — bucket index + three increments,
//  * Registry Sample over a realistic metric population — the 5 ms-tick
//    cost the sampler event pays,
//  * SerializeCell — the end-of-run document cost.
//
// Wall-clock numbers are host-dependent; CI runs this for sanity only.
// The simulator's end-to-end speed is measured by perfbench/.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "src/sim/metrics.h"

namespace escort {
namespace {

void BM_CounterAdd(benchmark::State& state) {
  MetricsRegistry reg;
  MetricCounter* c = ESCORT_METRIC_COUNTER(&reg, "bm.counter", "bench");
  for (auto _ : state) {
    MetricAdd(c);
  }
  benchmark::DoNotOptimize(c->value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterAdd);

void BM_CounterAddDisabled(benchmark::State& state) {
  // The null-registry idiom: instrumented sites hold a null pointer when
  // collection is off. This is the cost every site pays in a run with
  // metrics disabled.
  MetricCounter* c = nullptr;
  benchmark::DoNotOptimize(c);
  for (auto _ : state) {
    MetricAdd(c);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterAddDisabled);

void BM_GaugeSet(benchmark::State& state) {
  MetricsRegistry reg;
  MetricGauge* g = ESCORT_METRIC_GAUGE(&reg, "bm.gauge", "bench");
  int64_t v = 0;
  for (auto _ : state) {
    MetricSet(g, ++v);
  }
  benchmark::DoNotOptimize(g->value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GaugeSet);

void BM_HistogramObserve(benchmark::State& state) {
  MetricsRegistry reg;
  MetricHistogram* h = ESCORT_METRIC_HISTOGRAM(&reg, "bm.hist", "bench");
  // A deterministic spread of magnitudes exercises the log2 loop depth.
  uint64_t v = 1;
  for (auto _ : state) {
    MetricObserve(h, v);
    v = (v * 2862933555777941757ull + 3037000493ull) >> 32;  // cheap LCG walk
  }
  benchmark::DoNotOptimize(h->count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramObserve);

void BM_RegistrySample(benchmark::State& state) {
  // A realistic population (the instrumented run registers ~20 metrics);
  // the tick cost is what the 5 ms sampler event pays on stream 0.
  MetricsRegistry reg;
  const int metrics = static_cast<int>(state.range(0));
  for (int i = 0; i < metrics; ++i) {
    ESCORT_METRIC_COUNTER(&reg, "bm.counter." + std::to_string(i), "bench")
        ->Add(static_cast<uint64_t>(i));
    ESCORT_METRIC_GAUGE(&reg, "bm.gauge." + std::to_string(i), "bench")
        ->Set(i);
  }
  Cycles now = 0;
  for (auto _ : state) {
    reg.Sample(now += 1500000);
  }
  state.SetItemsProcessed(state.iterations() * metrics * 2);
}
BENCHMARK(BM_RegistrySample)->Arg(8)->Arg(32);

void BM_SerializeCell(benchmark::State& state) {
  MetricsRegistry reg;
  for (int i = 0; i < 16; ++i) {
    MetricCounter* c =
        ESCORT_METRIC_COUNTER(&reg, "bm.counter." + std::to_string(i), "bench");
    MetricHistogram* h =
        ESCORT_METRIC_HISTOGRAM(&reg, "bm.hist." + std::to_string(i), "bench");
    for (int k = 0; k < 256; ++k) {
      c->Add(1);
      h->Observe(static_cast<uint64_t>(k * k));
    }
  }
  for (Cycles t = 0; t < 100; ++t) reg.Sample(t * 1500000);
  for (auto _ : state) {
    std::string doc = reg.SerializeCell("bm");
    benchmark::DoNotOptimize(doc.data());
  }
}
BENCHMARK(BM_SerializeCell);

}  // namespace
}  // namespace escort

BENCHMARK_MAIN();
