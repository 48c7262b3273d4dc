// Figure 8 (scale axis): how far the cell scales in *clients*, not load.
//
// The original figure stops at 64 parallel clients — enough to saturate
// the server. This bench instead grows the client population to a million
// concurrent machines against one server cell, which is only feasible
// because connections are slab-indexed flyweights (src/elib/slab.h) and
// timers live in a hierarchical wheel (src/sim/timer_wheel.h): the JSON
// `memory` block records the reserved bytes per client, whose budget
// tests/test_million_clients.cc enforces.

#include <cstdio>
#include <string>

#include "src/workload/sweep.h"

using namespace escort;

int main(int argc, char** argv) {
  SweepOptions opts = ParseSweepArgs(argc, argv);
  const std::vector<int> clients =
      opts.quick ? std::vector<int>{1000, 10000} : std::vector<int>{1000, 10000, 100000, 1000000};

  Sweep sweep("fig8_scale");
  for (int n : clients) {
    ExperimentSpec spec;
    spec.config = ServerConfig::kAccounting;
    spec.clients = n;
    spec.doc = "/doc1b";
    // Short protocol: at these populations the server saturates within
    // milliseconds, and the measured quantity is footprint, not rate.
    spec.warmup_s = 0.05;
    spec.window_s = 0.2;
    sweep.Add("c" + std::to_string(n), spec);
  }
  sweep.Run(opts);

  std::printf("=== Figure 8 (scale): one cell, up to a million concurrent clients ===\n\n");
  std::printf("%9s %10s %12s %10s %10s %11s %13s\n", "clients", "conns/s", "completions",
              "peer_hw", "pcb_hw", "timers_hw", "bytes/client");
  for (int n : clients) {
    const ExperimentResult& r = sweep.Result("c" + std::to_string(n));
    const MemoryProfile& m = r.memory;
    double bytes_per_client =
        static_cast<double>(m.pcb_bytes_reserved + m.peer_bytes_reserved +
                            m.timer_bytes_reserved) /
        static_cast<double>(n);
    std::printf("%9d %10.1f %12llu %10llu %10llu %11llu %13.1f\n", n, r.conns_per_sec,
                static_cast<unsigned long long>(r.completions_total),
                static_cast<unsigned long long>(m.peer_high_water),
                static_cast<unsigned long long>(m.pcb_high_water),
                static_cast<unsigned long long>(m.timer_high_water), bytes_per_client);
  }
  return sweep.failed_count() == 0 ? 0 : 1;
}
