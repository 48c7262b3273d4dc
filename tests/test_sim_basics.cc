#include <gtest/gtest.h>

#include "src/sim/cost_model.h"
#include "src/sim/rng.h"
#include "src/sim/stats.h"
#include "src/sim/types.h"

namespace escort {
namespace {

TEST(Cycles, Conversions) {
  EXPECT_EQ(CyclesFromSeconds(1.0), kCpuHz);
  EXPECT_EQ(CyclesFromMillis(1.0), kCpuHz / 1000);
  EXPECT_EQ(CyclesFromMicros(1.0), kCpuHz / 1'000'000);
  EXPECT_DOUBLE_EQ(SecondsFromCycles(kCpuHz), 1.0);
  EXPECT_DOUBLE_EQ(MillisFromCycles(kCpuHz / 2), 500.0);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBelow(bound), bound);
    }
  }
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    uint64_t v = rng.NextInRange(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(3.0);
  }
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(RateMeter, WindowedRate) {
  RateMeter meter;
  meter.Record();
  meter.OpenWindow(CyclesFromSeconds(1.0));
  for (int i = 0; i < 100; ++i) {
    meter.Record();
  }
  double rate = meter.CloseWindow(CyclesFromSeconds(3.0));
  EXPECT_NEAR(rate, 50.0, 1e-9);  // 100 events over 2 seconds
  EXPECT_EQ(meter.total(), 101u);
}

TEST(ThroughputMeter, BytesPerSecond) {
  ThroughputMeter meter;
  meter.OpenWindow(0);
  meter.Record(1000);
  meter.Record(3000);
  EXPECT_NEAR(meter.CloseWindowBytesPerSec(CyclesFromSeconds(2.0)), 2000.0, 1e-9);
}

TEST(Samples, Statistics) {
  Samples s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    s.Add(v);
  }
  EXPECT_DOUBLE_EQ(s.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 5.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 3.0);
  EXPECT_NEAR(s.StdDev(), 1.5811, 1e-3);
}

TEST(Samples, EmptyIsSafe) {
  Samples s;
  EXPECT_EQ(s.Mean(), 0.0);
  EXPECT_EQ(s.Percentile(99), 0.0);
  EXPECT_EQ(s.StdDev(), 0.0);
}

TEST(Samples, PercentileBoundaries) {
  Samples s;
  for (double v : {10.0, 20.0, 30.0, 40.0}) {
    s.Add(v);
  }
  EXPECT_DOUBLE_EQ(s.Percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(s.Percentile(25), 17.5);  // linear interpolation
}

// Regression: p outside [0,100] used to produce a negative rank, which
// cast to a huge size_t and read out of bounds. The domain is clamped.
TEST(Samples, PercentileOutOfRangeIsClamped) {
  Samples s;
  for (double v : {10.0, 20.0, 30.0}) {
    s.Add(v);
  }
  EXPECT_DOUBLE_EQ(s.Percentile(-5), 10.0);
  EXPECT_DOUBLE_EQ(s.Percentile(-1e9), 10.0);
  EXPECT_DOUBLE_EQ(s.Percentile(200), 30.0);
  EXPECT_DOUBLE_EQ(s.Percentile(1e9), 30.0);
}

TEST(Samples, PercentileSingleSample) {
  Samples s;
  s.Add(42.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 42.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 42.0);
  EXPECT_DOUBLE_EQ(s.Percentile(-3), 42.0);
  EXPECT_DOUBLE_EQ(s.Percentile(101), 42.0);
}

TEST(Stats, WithCommas) {
  EXPECT_EQ(WithCommas(0), "0");
  EXPECT_EQ(WithCommas(999), "999");
  EXPECT_EQ(WithCommas(1000), "1,000");
  EXPECT_EQ(WithCommas(1123195), "1,123,195");
  EXPECT_EQ(WithCommas(402031), "402,031");
}

TEST(CostModel, CalibratedSingleton) {
  const CostModel& a = CostModel::Calibrated();
  const CostModel& b = CostModel::Calibrated();
  EXPECT_EQ(&a, &b);
  EXPECT_GT(a.pd_crossing, a.accounting_op);
}

}  // namespace
}  // namespace escort
