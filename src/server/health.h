// SLO health monitor and incident forensics (observability layer).
//
// The paper's defense story is a timeline: an attack *onsets*, the kernel
// ledger / detectors *detect* it, the policy layer *contains* it (SYN
// drops, path kills, blacklist inserts), and service *recovers*. The
// HealthMonitor turns the metrics plane (src/sim/metrics.h) into exactly
// that timeline: declarative SLO rules evaluated at each sim-time sample
// tick, feeding a single incident state machine per run that records
// onset -> detection -> containment -> recovery spans with derived
// time-to-detect (TTD) and time-to-recover (TTR).
//
// Rule roles:
//  * kPressure    — service degradation symptoms (goodput collapse vs the
//                   warmup baseline, p99 connection latency, half-open
//                   backlog high-water, memory-page high-water). Pressure
//                   alone opens an incident only after `persistence`
//                   consecutive breached samples.
//  * kDetection   — the system *named* a culprit (detector decision,
//                   runaway-budget kill, per-subnet SYN-budget drop).
//                   Opens an incident immediately and stamps `detected`.
//  * kContainment — resources were reclaimed or denied (SYN drops, path
//                   kills, blacklist strikes). Stamps `contained`.
//
// Recovery is a service-health milestone, not attacker departure: after
// containment, `recovery_clean_samples` consecutive ticks with zero
// pressure breaches stamp `recovered`. Under a sustained attack that the
// defense absorbs (the paper's point), recovery is therefore finite even
// though the attacker never stops. One incident per run: signals after
// the incident opens accumulate into its counts instead of opening
// reopen-flood incidents for every subsequent SYN drop.
//
// Everything runs on stream 0 at fixed sim times, so incident records are
// deterministic and byte-identical across --jobs (they are part
// of the schema-v6 bench JSON determinism contract).

#ifndef SRC_SERVER_HEALTH_H_
#define SRC_SERVER_HEALTH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/metrics.h"
#include "src/sim/types.h"

namespace escort {

class Tracer;

enum class RuleRole : uint8_t { kPressure, kDetection, kContainment };

enum class RuleKind : uint8_t {
  // Counter grew since the previous sample (delta > threshold).
  kCounterDeltaAbove,
  // Gauge value > threshold.
  kGaugeAbove,
  // Histogram p99 > threshold (histogram unit, e.g. microseconds).
  kHistogramP99Above,
  // Trailing counter rate over `trailing_samples` ticks fell below
  // threshold (a fraction) times the warmup baseline rate. Disarmed until
  // OpenWindow() establishes a baseline.
  kRateBelowBaselineFrac,
};

struct HealthRule {
  std::string name;
  RuleRole role = RuleRole::kPressure;
  RuleKind kind = RuleKind::kGaugeAbove;
  std::string metric;  // registry metric name the rule watches
  double threshold = 0.0;
  // Consecutive breached samples before a pressure rule can open an
  // incident (detection/containment rules open on the first signal).
  uint32_t persistence = 1;
  // Window for kRateBelowBaselineFrac, in sample ticks.
  uint32_t trailing_samples = 20;
};

struct IncidentRecord {
  std::string trigger;  // rule that opened the incident
  Cycles onset = 0;
  Cycles detected = 0;    // 0 = no detection-class signal observed
  Cycles contained = 0;   // 0 = no containment-class signal observed
  Cycles recovered = 0;   // 0 = pressure never stayed clean post-containment
  uint64_t pressure_breaches = 0;
  uint64_t detection_signals = 0;
  uint64_t containment_actions = 0;

  bool has_ttd() const { return detected >= onset && detected != 0; }
  bool has_ttr() const { return recovered >= onset && recovered != 0; }
  // Milliseconds; -1 when the milestone was never reached.
  double ttd_ms() const { return has_ttd() ? MillisFromCycles(detected - onset) : -1.0; }
  double ttr_ms() const { return has_ttr() ? MillisFromCycles(recovered - onset) : -1.0; }
};

struct HealthConfig {
  // Goodput collapse: trailing completion rate < this fraction of the
  // warmup baseline rate.
  double goodput_collapse_frac = 0.35;
  uint32_t goodput_persistence = 4;
  uint32_t goodput_trailing_samples = 20;
  // Minimum warmup completion rate (conns/s) required to arm the goodput
  // rule; idle warmups give no meaningful baseline.
  double min_baseline_rate = 5.0;
  // p99 connection lifetime SLO, microseconds. Collapse-grade on purpose:
  // a loaded benign cell legitimately queues for ~100 ms of lifetime (64
  // clients over ~1000 conns/s is 64 ms by Little's law, and the log2
  // histogram rounds the p99 up to its bucket bound), so the default sits
  // an order of magnitude above that.
  uint64_t p99_latency_us = 1'000'000;
  uint32_t p99_persistence = 4;
  // Half-open backlog high-water. Deliberately far above the per-subnet
  // SYN budget (4) so a *defended* SYN flood never breaches it.
  int64_t half_open_high_water = 64;
  // Memory high-water as a fraction of total kernel pages (0 disables).
  double memory_page_frac = 0.5;
  uint64_t total_pages = 0;
  // Clean samples after containment before `recovered` is stamped.
  uint32_t recovery_clean_samples = 4;
};

class HealthMonitor {
 public:
  // Builds the default rule set over `registry`. The registry must
  // outlive the monitor.
  HealthMonitor(MetricsRegistry* registry, HealthConfig config);

  // Appends a custom rule (before the first Sample()).
  void AddRule(HealthRule rule);
  const std::vector<HealthRule>& rules() const { return rules_; }

  // Flight-recorder hookup: incident opening triggers a dump.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // Captures the goodput baseline from warmup totals. Call once at the
  // measurement-window boundary (a serial point), before window samples.
  void OpenWindow(Cycles now);

  // Evaluates every rule and advances the incident state machine.
  // Called from the stream-0 sampler at fixed sim times after
  // MetricsRegistry::Sample.
  void Sample(Cycles now);

  const std::vector<IncidentRecord>& incidents() const { return incidents_; }
  bool incident_open() const { return open_; }
  double baseline_rate() const { return baseline_rate_; }

 private:
  struct RuleState {
    uint64_t last_counter = 0;
    uint32_t streak = 0;
    // Ring of counter values for trailing-rate rules.
    std::vector<uint64_t> ring;
    uint32_t ring_next = 0;
    uint32_t ring_filled = 0;
  };

  // Returns true when the rule's raw predicate breaches at this tick;
  // counter-delta rules report the delta through `delta_out`.
  bool Evaluate(size_t i, Cycles now, uint64_t* delta_out);

  MetricsRegistry* const registry_;
  const HealthConfig config_;
  Tracer* tracer_ = nullptr;
  std::vector<HealthRule> rules_;
  std::vector<RuleState> states_;
  double baseline_rate_ = 0.0;  // conns/s from warmup; 0 = not armed
  Cycles window_open_ = 0;
  bool window_opened_ = false;
  bool open_ = false;
  uint32_t clean_streak_ = 0;
  std::vector<IncidentRecord> incidents_;
};

}  // namespace escort

#endif  // SRC_SERVER_HEALTH_H_
