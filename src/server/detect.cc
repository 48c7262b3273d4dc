#include "src/server/detect.h"

#include <cmath>

#include "src/kernel/kernel.h"
#include "src/path/path_manager.h"
#include "src/server/policy.h"
#include "src/server/web_server.h"
#include "src/sim/metrics.h"
#include "src/sim/trace.h"

namespace escort {

namespace {

// /24 aggregation: one accumulator per source subnet, so a flood that
// rotates addresses within its subnet still converges on one test.
uint32_t SubnetOf(Ip4Addr addr) { return addr.value >> 8; }

constexpr double kMicroNatScale = static_cast<double>(1 << 20);

// SPRT: decide H1 (attack) with false-positive probability <= alpha and
// miss probability <= beta, against bad-outcome rates lambda0 (benign)
// vs. lambda1 (attacking).
constexpr double kSprtAlpha = 0.01;
constexpr double kSprtBeta = 0.02;
constexpr double kSprtLambda0 = 0.33;
constexpr double kSprtLambda1 = 0.60;
// After a subnet is reported, ignore its outcomes this long before
// restarting the test (the penalty path needs time to bite; without a
// holdoff every dropped penalty SYN would re-report immediately).
constexpr Cycles kSprtHoldoff = CyclesFromMillis(500);

// Baseline: flag a path whose consumption exceeds mean + k*sigma of its
// class, once the class has at least kBaselineMinSamples warmup
// observations.
constexpr double kBaselineKSigma = 3.0;
constexpr uint64_t kBaselineMinSamples = 16;
// Lower bound on sigma as a fraction of the mean (plus one unit). The
// simulator is deterministic, so a class of identical requests has
// sigma == 0 exactly and mean + k*sigma becomes a knife edge that flags
// one-cycle jitter; the floor demands a real multiple of the norm.
constexpr double kBaselineSigmaFloorFrac = 0.25;
// The periodic scan backstops the per-item ledger watch: it catches
// outliers whose threads are blocked (a hoarder that stopped running
// never re-enters the kernel on its own).
constexpr Cycles kBaselineScanPeriod = CyclesFromMillis(5.0);

// Request class: the stable account label, i.e. the path name minus the
// per-path "#<counter>" suffix PathManager::Create appends.
std::string ClassOf(const Path& path) {
  const std::string& name = path.name();
  size_t hash = name.rfind('#');
  return hash == std::string::npos ? name : name.substr(0, hash);
}

}  // namespace

const char* DetectModeName(DetectMode m) {
  switch (m) {
    case DetectMode::kOff: return "off";
    case DetectMode::kSprt: return "sprt";
    case DetectMode::kBaseline: return "baseline";
  }
  return "?";
}

DetectionPolicy::DetectionPolicy(EscortWebServer* server, BlacklistPolicy* blacklist)
    : server_(server), blacklist_(blacklist) {
  if (MetricsRegistry* m = server_->kernel().metrics(); m != nullptr) {
    m_decisions_ =
        ESCORT_METRIC_COUNTER(m, "detect.decisions", "confirmed attack detections");
  }
}

uint64_t DetectionPolicy::DecisionDigest() const {
  // FNV-1a, 64-bit.
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const DetectionEvent& e : detections_) {
    mix(e.when, 8);
    mix(e.addr.value, 4);
    for (const char* p = e.source; *p != '\0'; ++p) {
      mix(static_cast<uint64_t>(static_cast<unsigned char>(*p)), 1);
    }
  }
  return h;
}

void DetectionPolicy::ReportDetection(Ip4Addr addr, const char* source) {
  Cycles now = server_->kernel().now();
  detections_.push_back(DetectionEvent{now, addr, SubnetOf(addr), source});
  MetricAdd(m_decisions_);
  if (blacklist_ != nullptr) {
    blacklist_->RecordViolation(addr, now);
  }
  Tracer* t = server_->kernel().tracer();
  if (t != nullptr) {
    t->Instant(now, "policy", std::string("detect-") + source, "policy",
               {{"addr", Tracer::Str(addr.ToString())}});
  }
}

// ---------------------------------------------------------------------------
// SprtDetector

int64_t SprtDetector::MicroNats(double x) {
  return static_cast<int64_t>(std::llround(std::log(x) * kMicroNatScale));
}

SprtDetector::SprtDetector(EscortWebServer* server, BlacklistPolicy* blacklist,
                           const DetectSpec& /*spec*/)
    : DetectionPolicy(server, blacklist) {
  // Wald's increments and boundaries, converted to micro-nats exactly once
  // — observation-time arithmetic is pure integer addition/comparison.
  inc_bad_ = MicroNats(kSprtLambda1 / kSprtLambda0);
  inc_good_ = MicroNats((1.0 - kSprtLambda1) / (1.0 - kSprtLambda0));
  accept_llr_ = MicroNats((1.0 - kSprtBeta) / kSprtAlpha);
  reject_llr_ = MicroNats(kSprtBeta / (1.0 - kSprtAlpha));
  server_->tcp()->conn_outcome_hook = [this](Ip4Addr remote, TcpConnOutcome outcome) {
    Observe(remote, outcome);
  };
}

SprtDetector::~SprtDetector() {
  // Server teardown reclaims every surviving path (firing kPathKilled
  // outcomes); the hook must not outlive the detector.
  server_->tcp()->conn_outcome_hook = nullptr;
}

int64_t SprtDetector::SubnetLlr(Ip4Addr addr) const {
  auto it = subnets_.find(SubnetOf(addr));
  return it == subnets_.end() ? 0 : it->second.llr;
}

void SprtDetector::Observe(Ip4Addr remote, TcpConnOutcome outcome) {
  Cycles now = server_->kernel().now();
  const uint32_t subnet = SubnetOf(remote);
  SprtState& st = subnets_[subnet];
  if (now < st.holdoff_until) {
    return;  // already reported; let the penalty path take effect
  }
  if (st.llr_gauge == nullptr) {
    if (MetricsRegistry* m = server_->kernel().metrics(); m != nullptr) {
      // Per-subnet LLR trajectory, sampled by the sim-time sampler into a
      // series. Integer micro-nats (EL014).
      const std::string name = "detect.llr." + std::to_string((subnet >> 16) & 0xff) +
                               "." + std::to_string((subnet >> 8) & 0xff) + "." +
                               std::to_string(subnet & 0xff);
      st.llr_gauge = ESCORT_METRIC_GAUGE(m, name, "SPRT log-likelihood ratio, micro-nats");
    }
  }
  st.llr += outcome == TcpConnOutcome::kCompleted ? inc_good_ : inc_bad_;
  st.observations += 1;
  MetricSet(st.llr_gauge, st.llr);
  if (st.llr >= accept_llr_) {
    // H1 accepted: the subnet's bad-outcome rate is lambda1-like.
    ReportDetection(remote, "sprt");
    st.llr = 0;
    st.observations = 0;
    st.holdoff_until = now + kSprtHoldoff;
    MetricSet(st.llr_gauge, st.llr);
  } else if (st.llr <= reject_llr_) {
    // H0 accepted: benign. Restart the test so the subnet stays watched.
    st.llr = 0;
    st.observations = 0;
    MetricSet(st.llr_gauge, st.llr);
  }
}

// ---------------------------------------------------------------------------
// BaselineDetector

BaselineDetector::BaselineDetector(EscortWebServer* server, BlacklistPolicy* blacklist,
                                   const DetectSpec& /*spec*/, Cycles warmup)
    : DetectionPolicy(server, blacklist), warmup_end_(server->kernel().now() + warmup) {
  server_->paths().set_teardown_hook(
      [this](Path* path, bool killed) { OnTeardown(path, killed); });
  server_->kernel().set_ledger_watch(
      [this](Owner* owner, Thread* t) { return WatchThread(owner, t); });
  // The scan is kernel work (the ledger readout the paper's accounting
  // makes cheap): a kernel-owned periodic event, like the softclock.
  // NOLINT-EA001(kernel-owned event: the kernel outlives the sweep cell; the detector cancels it in its destructor before the server dies)
  scan_event_ = server_->kernel().RegisterEvent(
      server_->kernel().kernel_owner(), "detect-scan", kBaselineScanPeriod,
      kBaselineScanPeriod, server_->kernel().costs().tcp_timeout_scan, kKernelDomain,
      [this] { ScanLivePaths(); });
}

BaselineDetector::~BaselineDetector() {
  server_->kernel().CancelEvent(scan_event_);
  server_->kernel().set_ledger_watch(nullptr);
  server_->paths().set_teardown_hook(nullptr);
}

bool BaselineDetector::WatchThread(Owner* owner, Thread* /*t*/) {
  if (owner->type() != OwnerType::kPath) {
    return false;
  }
  if (!frozen_) {
    if (server_->kernel().now() < warmup_end_) {
      return false;
    }
    Freeze();
  }
  auto* path = static_cast<Path*>(owner);
  auto raddr = path->attrs.GetInt("raddr");
  if (!raddr.has_value()) {
    return false;
  }
  if (!IsOutlier(ClassOf(*path), path->usage().cycles >> 10, path->usage().pages,
                 path->usage().iobuffer_locks)) {
    return false;
  }
  // Record before returning: the kernel kills the path (via the runaway
  // machinery) as soon as we say yes, and the teardown hook must see the
  // detection as already confirmed.
  ReportDetection(Ip4Addr{static_cast<uint32_t>(*raddr)}, "baseline");
  ++paths_killed_;
  return true;
}

uint64_t BaselineDetector::samples_learned(const std::string& cls) const {
  auto it = classes_.find(cls);
  return it == classes_.end() ? 0 : it->second.n;
}

void BaselineDetector::LearnSample(const std::string& cls, uint64_t kilocycles, uint64_t pages,
                                   uint64_t iobuffer_locks) {
  if (frozen_) {
    return;
  }
  ClassStats& st = classes_[cls];
  st.n += 1;
  st.kilocycles.sum += kilocycles;
  st.kilocycles.sum_sq += kilocycles * kilocycles;
  st.pages.sum += pages;
  st.pages.sum_sq += pages * pages;
  st.iobuffer_locks.sum += iobuffer_locks;
  st.iobuffer_locks.sum_sq += iobuffer_locks * iobuffer_locks;
}

bool BaselineDetector::DimensionExceeds(const Moments& m, uint64_t n, uint64_t value) const {
  // mean + k*sigma from integer moments. Computed fresh from the same
  // integers every time — no accumulated float state, so the comparison is
  // a pure function of the sample set.
  double dn = static_cast<double>(n);
  double mean = static_cast<double>(m.sum) / dn;
  double var = static_cast<double>(m.sum_sq) / dn - mean * mean;
  if (var < 0.0) {
    var = 0.0;
  }
  double sigma = std::sqrt(var);
  double sigma_floor = kBaselineSigmaFloorFrac * mean + 1.0;
  if (sigma < sigma_floor) {
    sigma = sigma_floor;
  }
  return static_cast<double>(value) > mean + kBaselineKSigma * sigma;
}

bool BaselineDetector::IsOutlier(const std::string& cls, uint64_t kilocycles, uint64_t pages,
                                 uint64_t iobuffer_locks) const {
  auto it = classes_.find(cls);
  if (it == classes_.end() || it->second.n < kBaselineMinSamples) {
    return false;  // unlearned class: never flag on ignorance
  }
  const ClassStats& st = it->second;
  return DimensionExceeds(st.kilocycles, st.n, kilocycles) ||
         DimensionExceeds(st.pages, st.n, pages) ||
         DimensionExceeds(st.iobuffer_locks, st.n, iobuffer_locks);
}

void BaselineDetector::OnTeardown(Path* path, bool killed) {
  if (frozen_ || killed) {
    return;  // killed paths are the anomaly; never let them set the norm
  }
  if (server_->kernel().now() >= warmup_end_) {
    Freeze();
    return;
  }
  // Only TCP active paths (they carry the remote address attribute) have a
  // request-class consumption profile worth learning.
  if (!path->attrs.GetInt("raddr").has_value()) {
    return;
  }
  LearnSample(ClassOf(*path), path->usage().cycles >> 10, path->usage().pages,
              path->usage().iobuffer_locks);
}

void BaselineDetector::ScanLivePaths() {
  Kernel& kernel = server_->kernel();
  if (!frozen_) {
    if (kernel.now() < warmup_end_) {
      return;  // still learning
    }
    Freeze();
  }
  // Ledger readout cost: proportional to the live-path population, like
  // the TCP master scan.
  kernel.Consume(kernel.costs().tcp_timeout_scan * server_->paths().live_paths().size());

  // Collect ids first: killing mutates the live list. Revalidate through
  // FindLive at kill time (the EA001 idiom).
  std::vector<uint64_t> outliers;
  std::vector<Ip4Addr> addrs;
  for (Path* path : server_->paths().live_paths()) {
    auto raddr = path->attrs.GetInt("raddr");
    if (!raddr.has_value()) {
      continue;
    }
    if (IsOutlier(ClassOf(*path), path->usage().cycles >> 10, path->usage().pages,
                  path->usage().iobuffer_locks)) {
      outliers.push_back(path->id());
      addrs.push_back(Ip4Addr{static_cast<uint32_t>(*raddr)});
    }
  }
  for (size_t i = 0; i < outliers.size(); ++i) {
    Path* path = server_->paths().FindLive(outliers[i]);
    if (path == nullptr) {
      continue;
    }
    // Report first (the kill's teardown hook must see the entry as an
    // already-confirmed detection), then reclaim. ReportDetection chains
    // the blacklist; KillPathForViolation deliberately skips the server's
    // violation hook so the strike is not double-counted.
    ReportDetection(addrs[i], "baseline");
    server_->KillPathForViolation(path);
    ++paths_killed_;
  }
}

// ---------------------------------------------------------------------------

std::unique_ptr<DetectionPolicy> MakeDetector(EscortWebServer* server, BlacklistPolicy* blacklist,
                                              const DetectSpec& spec, Cycles warmup) {
  switch (spec.mode) {
    case DetectMode::kOff:
      return nullptr;
    case DetectMode::kSprt:
      return std::make_unique<SprtDetector>(server, blacklist, spec);
    case DetectMode::kBaseline:
      return std::make_unique<BaselineDetector>(server, blacklist, spec, warmup);
  }
  return nullptr;
}

}  // namespace escort
