// Experiment harness: builds the Figure 7 testbed, applies load, and
// measures using the paper's protocol (warm-up, then a fixed measurement
// window; the paper used 60 s + 10 s averages, scaled down here and
// overridable through ESCORT_WARMUP_S / ESCORT_WINDOW_S). Table 1 and
// Table 2 close their windows on a count instead (StopRule).

#ifndef SRC_WORKLOAD_EXPERIMENT_H_
#define SRC_WORKLOAD_EXPERIMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/server/detect.h"
#include "src/server/health.h"
#include "src/server/monolithic_server.h"
#include "src/server/web_server.h"
#include "src/sim/metrics.h"
#include "src/workload/http_client.h"

namespace escort {

// When a run stops measuring.
//  * kWindow: warm up for warmup_s, then measure for window_s.
//  * kSerialRequests: Table 1's protocol. The one client runs on the
//    micro-measurement host (250 us client processing), sends 5 warm-up
//    requests and idles 50 ms; the window then opens and closes when the
//    stop_count-th serial request completes.
//  * kKills: Table 2's. The window opens at t = 0 and closes when
//    stop_count paths have been killed.
// The count rules ignore warmup_s and window_s. They stop at stop_count + 2
// simulated seconds at the latest, and a run that gets there short of its
// count throws.
enum class StopRule { kWindow, kSerialRequests, kKills };

const char* StopRuleName(StopRule rule);

struct ExperimentSpec {
  bool linux_server = false;               // use the Apache/Linux comparator
  ServerConfig config = ServerConfig::kAccounting;
  int clients = 1;
  std::string doc = "/doc1b";
  bool qos_stream = false;
  double syn_attack_rate = 0.0;            // SYNs/s from the untrusted subnet
  int cgi_attackers = 0;                   // one attack per period each
  Cycles cgi_attack_period = CyclesFromSeconds(1.0);
  double warmup_s = 0.6;
  double window_s = 2.0;
  StopRule stop = StopRule::kWindow;
  uint64_t stop_count = 0;                 // requests or kills (count rules)
  // The §4.4.4 offender blacklist: the runaway handler records a strike,
  // and one strike sends the source's later SYNs to a penalty listener
  // with a one-connection budget.
  bool blacklist = false;
  // Online attack detection (src/server/detect.h). A detector feeds its
  // own blacklist, which runaway kills feed too only when `blacklist` is
  // set. kOff installs no hooks.
  DetectSpec detect;
  WebServerOptions server_options;         // config/scheduler filled in by Run

  // Deterministic tracing (src/sim/trace.h): null = off. The sweep runner
  // passes a per-cell sink and merges all cells into one trace document.
  Tracer* tracer = nullptr;                // not owned

  // Deterministic metrics plane (src/sim/metrics.h). Collection is on by
  // default — the registry feeds the HealthMonitor (default SLO rules), so
  // incidents land in the bench JSON even without --metrics, and its
  // series are the trace's counter tracks. RunExperiment writes no file:
  // for --metrics the sweep runner passes a per-cell `metrics_registry`
  // sink and merges the cells into one document itself.
  MetricsRegistry* metrics_registry = nullptr;  // not owned
  bool collect_metrics = true;
};

// Memory footprint of one cell: slab/wheel occupancy and reservations at
// the end of the measurement window. The counts are deterministic, but the
// block is exempt from cross-run JSON equality: it describes table layout,
// which a change may move while every workload metric stays bit-identical.
struct MemoryProfile {
  // Server-side TCP PCB slab (EscortWebServer only).
  uint64_t pcb_slot_bytes = 0;
  uint64_t pcb_live = 0;
  uint64_t pcb_high_water = 0;
  uint64_t pcb_bytes_reserved = 0;
  // Client-side TcpPeer slab.
  uint64_t peer_slot_bytes = 0;
  uint64_t peer_live = 0;
  uint64_t peer_high_water = 0;
  uint64_t peer_bytes_reserved = 0;
  // Timer wheel.
  uint64_t timers_armed = 0;
  uint64_t timer_high_water = 0;
  uint64_t timer_capacity = 0;
  uint64_t timer_bytes_reserved = 0;
};

// Detection outcomes over the whole run (warmup + window), classified
// against the testbed's ground truth (the attacker addresses are fixed by
// construction). Deterministic at any --jobs; the digest is the
// equality witness.
struct DetectionStats {
  uint64_t detections = 0;
  uint64_t true_positives = 0;   // detections naming a real attacker
  uint64_t false_positives = 0;  // detections naming an innocent client
  uint64_t paths_killed_by_detector = 0;
  uint64_t blacklist_size = 0;  // entries at the window end
  // First true-positive latency, measured from the named attacker's start
  // time (0 when nothing was detected).
  double first_detection_ms = 0.0;
  // FNV-1a over the ordered (when, addr, source) decision sequence.
  uint64_t decision_digest = 0;
};

struct ExperimentResult {
  double conns_per_sec = 0.0;
  double qos_bytes_per_sec = 0.0;
  uint64_t completions_total = 0;
  uint64_t client_failures = 0;
  uint64_t paths_killed = 0;
  uint64_t syns_dropped_at_demux = 0;
  uint64_t syns_sent = 0;
  uint64_t runaway_detections = 0;
  double kill_cost_mean = 0.0;
  CycleLedger ledger;       // cycles by account label over the window
  Cycles window_cycles = 0;  // elapsed cycles in the window
  uint64_t pd_crossings = 0;
  Cycles accounting_overhead = 0;
  // Events and timers the queue fired over the whole run (warmup +
  // window): feeds the bench JSON `perf.events_per_sec`.
  uint64_t events_fired = 0;
  // Slab and timer-wheel footprint at the end of the window: feeds the
  // bench JSON `memory` block (determinism-exempt, see MemoryProfile).
  MemoryProfile memory;
  // Detection decisions (bench JSON `detection` block). All-zero when
  // spec.detect.mode == kOff.
  DetectionStats detection;
  // HealthMonitor incident records (bench JSON schema-v6 `incidents`
  // block): onset → detection → containment → recovery with derived
  // TTD/TTR. Empty when collect_metrics is off or the run stayed healthy.
  std::vector<IncidentRecord> incidents;
  // Wall-clock spent inside the event-queue run (warmup + window), which
  // is what the bench JSON `perf` block rates: testbed construction and
  // teardown are setup cost, not scheduler throughput. Machine-dependent
  // by nature — excluded from cross-run equality.
  double sim_wall_ms = 0.0;
};

// Scale factors from the environment (ESCORT_WARMUP_S / ESCORT_WINDOW_S),
// for quick runs vs full fidelity.
double EnvSeconds(const char* name, double fallback);

// The full testbed: server + clients + optional attackers/QoS stream,
// measured under spec.stop. Throws when a count rule misses its deadline or
// the resource audit (src/kernel/audit.h) records a violation, so the sweep
// reports the cell as failed.
ExperimentResult RunExperiment(const ExperimentSpec& spec);

}  // namespace escort

#endif  // SRC_WORKLOAD_EXPERIMENT_H_
