// Statistical attack detection (the online-policy extension of §4.4).
//
// The static defenses are threshold heuristics: a SYN budget, a 2 ms
// runaway budget. This module adds the *detection* layer the paper's §4.4.4
// discussion implies — policies that accumulate evidence and decide, rather
// than trip on a single event:
//
//  * SprtDetector — Wald's sequential probability ratio test, per source
//    /24 subnet, over connection *outcomes* (completed vs. aborted /
//    half-open / budget-dropped). The test compares H0 "benign subnet, bad
//    outcome rate lambda0" against H1 "attacking subnet, bad outcome rate
//    lambda1" and decides as soon as the log-likelihood ratio crosses the
//    (alpha, beta)-derived thresholds — the same detector shape the RUNOS
//    SDN controller uses for its SYN-flood protection.
//
//  * BaselineDetector — the data-driven resource-accounting detector of
//    muDoS: learn per-request-class cycle/page/IOBuffer distributions from
//    the kernel ledger during warmup (clean teardowns only), freeze, then
//    periodically flag any live path whose consumption is a k-sigma
//    outlier for its class and pathKill it — typically long before the
//    static 2 ms budget would.
//
// Both detectors chain confirmed detections into
// BlacklistPolicy::RecordViolation, so the §4.4.4 penalty-path machinery
// does the containment.
//
// Determinism contract (DESIGN.md §6.9): accumulator state lives in
// ordered containers keyed by subnet/class; SPRT arithmetic is fixed-point
// (integer micro-nats) so no float accumulation order can leak in; the
// detection sequence — and its FNV digest — is bit-identical at any --jobs.

#ifndef SRC_SERVER_DETECT_H_
#define SRC_SERVER_DETECT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/elib/address.h"
#include "src/net/tcp.h"
#include "src/sim/types.h"

namespace escort {

class BlacklistPolicy;
class EscortWebServer;
class KernelEvent;
class Owner;
class Path;
class Thread;

enum class DetectMode { kOff, kSprt, kBaseline };

const char* DetectModeName(DetectMode m);

// Which detector a cell runs, carried in ExperimentSpec and recorded in the
// bench JSON spec block. The detectors' thresholds are constants in
// detect.cc.
struct DetectSpec {
  DetectMode mode = DetectMode::kOff;
};

// One confirmed detection. `subnet` is the /24 key (addr >> 8); `source`
// is a static string ("sprt" / "baseline").
struct DetectionEvent {
  Cycles when = 0;
  Ip4Addr addr{};
  uint32_t subnet = 0;
  const char* source = "";
};

// Base class: owns the detection log and the blacklist chaining. Concrete
// detectors install themselves on the server's hooks at construction.
class DetectionPolicy {
 public:
  DetectionPolicy(EscortWebServer* server, BlacklistPolicy* blacklist);
  virtual ~DetectionPolicy() = default;

  DetectionPolicy(const DetectionPolicy&) = delete;
  DetectionPolicy& operator=(const DetectionPolicy&) = delete;

  const std::vector<DetectionEvent>& detections() const { return detections_; }

  // FNV-1a over every (when, addr, source) in order — the determinism
  // witness recorded in the bench JSON.
  uint64_t DecisionDigest() const;

 protected:
  // Records the detection, chains it into the blacklist, and emits a
  // `policy` trace instant.
  void ReportDetection(Ip4Addr addr, const char* source);

  EscortWebServer* const server_;
  BlacklistPolicy* const blacklist_;  // may be null (detection-only mode)
  std::vector<DetectionEvent> detections_;
  MetricCounter* m_decisions_ = nullptr;
};

// Per-subnet SPRT over TCP connection outcomes.
class SprtDetector : public DetectionPolicy {
 public:
  SprtDetector(EscortWebServer* server, BlacklistPolicy* blacklist, const DetectSpec& spec);
  ~SprtDetector() override;

  // Folds one outcome into the source's subnet accumulator. Installed as
  // TcpModule::conn_outcome_hook; public so tests can drive it directly.
  void Observe(Ip4Addr remote, TcpConnOutcome outcome);

  // Fixed-point conversion: micro-nats, ln(x) * 2^20, rounded once at
  // configuration time. All per-observation arithmetic is integer.
  static int64_t MicroNats(double x);

  int64_t accept_attack_threshold() const { return accept_llr_; }
  int64_t accept_benign_threshold() const { return reject_llr_; }
  int64_t bad_increment() const { return inc_bad_; }
  int64_t good_increment() const { return inc_good_; }
  // Current accumulator value for the subnet of `addr` (0 if untracked).
  int64_t SubnetLlr(Ip4Addr addr) const;

 private:
  // Per-/24 sequential test state. Integer micro-nats only — the
  // determinism contract for detection state (lint rule EL014).
  // ESCORT_DETECT_ACCUMULATOR
  struct SprtState {
    int64_t llr = 0;            // micro-nats
    uint64_t observations = 0;  // outcomes folded since the last restart
    Cycles holdoff_until = 0;   // ignore outcomes until this deadline
    // LLR trajectory gauge ("detect.llr.<a>.<b>.<c>", micro-nats),
    // registered on the subnet's first observation; null = metrics off.
    MetricGauge* llr_gauge = nullptr;
  };

  int64_t inc_bad_ = 0;     // ln(lambda1/lambda0), micro-nats (> 0)
  int64_t inc_good_ = 0;    // ln((1-lambda1)/(1-lambda0)), micro-nats (< 0)
  int64_t accept_llr_ = 0;  // A = ln((1-beta)/alpha): decide attack
  int64_t reject_llr_ = 0;  // B = ln(beta/(1-alpha)): decide benign, restart
  std::map<uint32_t, SprtState> subnets_;
};

// Learned per-request-class ledger baselines.
class BaselineDetector : public DetectionPolicy {
 public:
  // Learns from clean path teardowns until the server clock reaches
  // `warmup` cycles from construction, then freezes and starts the
  // periodic outlier scan.
  BaselineDetector(EscortWebServer* server, BlacklistPolicy* blacklist, const DetectSpec& spec,
                   Cycles warmup);
  ~BaselineDetector() override;

  // Kernel ledger watch: consulted after every work item (the only point a
  // non-preemptive, non-yielding thread re-enters the kernel). Returns true
  // — having recorded the detection — when the owner is a path whose
  // consumption is an outlier for its class; the kernel then kills it
  // through the runaway machinery, typically long before the 2 ms budget.
  bool WatchThread(Owner* owner, Thread* t);

  // Scripted-ledger entry points (the scan and teardown hooks call these;
  // tests drive them directly).
  void LearnSample(const std::string& cls, uint64_t kilocycles, uint64_t pages,
                   uint64_t iobuffer_locks);
  void Freeze() { frozen_ = true; }
  bool frozen() const { return frozen_; }
  // True once the class is learned (n >= min_samples) and any dimension
  // exceeds mean + k*sigma.
  bool IsOutlier(const std::string& cls, uint64_t kilocycles, uint64_t pages,
                 uint64_t iobuffer_locks) const;
  uint64_t samples_learned(const std::string& cls) const;
  uint64_t paths_killed() const { return paths_killed_; }

 private:
  // Sum/sum-of-squares moments per consumption dimension. Cycle samples
  // are pre-scaled to kilocycles (cycles >> 10) so sum_sq stays far from
  // uint64 overflow across any warmup length. Integer state only (EL014);
  // mean/sigma are derived in double at compare time, a pure function of
  // identical integer inputs.
  // ESCORT_DETECT_ACCUMULATOR
  struct Moments {
    uint64_t sum = 0;
    uint64_t sum_sq = 0;
  };
  // ESCORT_DETECT_ACCUMULATOR
  struct ClassStats {
    uint64_t n = 0;
    Moments kilocycles;
    Moments pages;
    Moments iobuffer_locks;
  };

  void OnTeardown(Path* path, bool killed);
  void ScanLivePaths();
  bool DimensionExceeds(const Moments& m, uint64_t n, uint64_t value) const;

  const Cycles warmup_end_;
  bool frozen_ = false;
  uint64_t paths_killed_ = 0;
  std::map<std::string, ClassStats> classes_;
  KernelEvent* scan_event_ = nullptr;
};

// Builds the detector selected by spec.mode (nullptr for kOff).
std::unique_ptr<DetectionPolicy> MakeDetector(EscortWebServer* server, BlacklistPolicy* blacklist,
                                              const DetectSpec& spec, Cycles warmup);

}  // namespace escort

#endif  // SRC_SERVER_DETECT_H_
