// Per-layer drivers for the traced benchmark run.
//
// Each driver builds a small world from the simulator's public API, shaped
// like the workload being measured, and times batches of calls into one
// layer's public functions. Every batch is one span named "<layer>.op"
// whose `ops` field holds the number of calls timed; the span's parent is
// the layer span.
//
// The shape comes from the workload's own cells: the server configurations
// and documents of its specs, and populations and mixes that perfbench/run.py
// reads by key from the first pass's sweep JSON. A population whose key was
// missing is negative; the drivers that need it are then skipped, so their
// metrics show as missing instead of being guessed.

#ifndef PERFBENCH_LAYER_DRIVERS_H_
#define PERFBENCH_LAYER_DRIVERS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "span_log.h"
#include "src/server/web_server.h"

namespace perfbench {

struct LayerShape {
  std::vector<escort::ServerConfig> configs;  // configurations the workload runs
  std::vector<std::string> docs;              // documents its clients request
  // memory.timer_high_water of the largest cell: armed timers at the peak.
  int64_t timer_population = -1;
  // memory.pcb_high_water of the largest cell: server connections alive at
  // once, each holding one response buffer.
  int64_t buffers_in_flight = -1;
  // metrics.syns_sent / metrics.completions_total over the cells: attacker
  // SYNs the server sees per benign connection.
  double syn_per_conn = -1;
  uint64_t seed = 1;
};

// Counts the drivers observed (not times), e.g. IOBuffer cache hits.
using DriverCounters = std::vector<std::pair<std::string, uint64_t>>;

// Runs every layer driver the shape allows under `parent` and returns their
// counts.
DriverCounters RunLayerDrivers(const LayerShape& shape, SpanLog* log, int parent);

}  // namespace perfbench

#endif  // PERFBENCH_LAYER_DRIVERS_H_
