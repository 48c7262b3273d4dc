// Measurement helpers: counters, rate meters and histograms.
//
// The paper reports ten-second averages measured after one minute of
// warm-up; `RateMeter` implements exactly that protocol.

#ifndef SRC_SIM_STATS_H_
#define SRC_SIM_STATS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/types.h"

namespace escort {

// Monotonic event counter with a windowed-rate reading. One RateMeter is
// shared by every client in a testbed.
class RateMeter {
 public:
  void Record(uint64_t count = 1) {
    total_ += count;
    if (window_open_) {
      window_count_ += count;
    }
  }

  // Opens the measurement window (call after warm-up).
  void OpenWindow(Cycles now) {
    window_start_ = now;
    window_count_ = 0;
    window_open_ = true;
  }

  // Closes the window and returns events/second over it.
  double CloseWindow(Cycles now) {
    window_open_ = false;
    double secs = SecondsFromCycles(now - window_start_);
    if (secs <= 0) {
      return 0.0;
    }
    return static_cast<double>(window_count_) / secs;
  }

  uint64_t total() const { return total_; }

 private:
  uint64_t total_ = 0;
  uint64_t window_count_ = 0;
  Cycles window_start_ = 0;
  bool window_open_ = false;
};

// Byte-throughput meter for QoS streams (bytes/second over a window).
class ThroughputMeter {
 public:
  void Record(uint64_t bytes) {
    if (window_open_) {
      window_bytes_ += bytes;
    }
  }

  void OpenWindow(Cycles now) {
    window_start_ = now;
    window_bytes_ = 0;
    window_open_ = true;
  }

  double CloseWindowBytesPerSec(Cycles now) {
    window_open_ = false;
    double secs = SecondsFromCycles(now - window_start_);
    if (secs <= 0) {
      return 0.0;
    }
    return static_cast<double>(window_bytes_) / secs;
  }

 private:
  uint64_t window_bytes_ = 0;
  Cycles window_start_ = 0;
  bool window_open_ = false;
};

// Simple sample accumulator (latency distributions, kill costs). The
// values are kept in insertion order, so Mean() depends on the order of
// Add() calls — deterministic because the event order is.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  double Mean() const;
  double Min() const;
  double Max() const;
  double Percentile(double p) const;  // p in [0,100]
  double StdDev() const;

 private:
  std::vector<double> values_;
};

// Formats a value with thousands separators ("1,123,195") as the paper does.
std::string WithCommas(uint64_t v);

}  // namespace escort

#endif  // SRC_SIM_STATS_H_
