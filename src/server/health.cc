#include "src/server/health.h"

#include "src/sim/trace.h"

namespace escort {

namespace {

// Default SLO rule set. Detection/containment rules watch the counters
// the kernel, TCP and policy layers maintain; pressure rules watch
// service-health symptoms. Thresholds are collapse-grade on purpose: a
// *defended* attack cell must not sit in a breached state forever (that
// would block the recovery milestone), and a benign cell must never
// breach at all.
std::vector<HealthRule> DefaultRules(const HealthConfig& c) {
  std::vector<HealthRule> rules;

  HealthRule goodput;
  goodput.name = "goodput-collapse";
  goodput.role = RuleRole::kPressure;
  goodput.kind = RuleKind::kRateBelowBaselineFrac;
  goodput.metric = "tcp.conns_completed";
  goodput.threshold = c.goodput_collapse_frac;
  goodput.persistence = c.goodput_persistence;
  goodput.trailing_samples = c.goodput_trailing_samples;
  rules.push_back(goodput);

  HealthRule p99;
  p99.name = "p99-latency";
  p99.role = RuleRole::kPressure;
  p99.kind = RuleKind::kHistogramP99Above;
  p99.metric = "tcp.conn_lifetime_us";
  p99.threshold = static_cast<double>(c.p99_latency_us);
  p99.persistence = c.p99_persistence;
  rules.push_back(p99);

  HealthRule backlog;
  backlog.name = "half-open-backlog";
  backlog.role = RuleRole::kPressure;
  backlog.kind = RuleKind::kGaugeAbove;
  backlog.metric = "tcp.half_open";
  backlog.threshold = static_cast<double>(c.half_open_high_water);
  backlog.persistence = 3;
  rules.push_back(backlog);

  if (c.total_pages > 0 && c.memory_page_frac > 0.0) {
    HealthRule mem;
    mem.name = "memory-pages";
    mem.role = RuleRole::kPressure;
    mem.kind = RuleKind::kGaugeAbove;
    mem.metric = "kernel.pages_in_use";
    mem.threshold = c.memory_page_frac * static_cast<double>(c.total_pages);
    mem.persistence = 3;
    rules.push_back(mem);
  }

  HealthRule decision;
  decision.name = "detector-decision";
  decision.role = RuleRole::kDetection;
  decision.kind = RuleKind::kCounterDeltaAbove;
  decision.metric = "detect.decisions";
  rules.push_back(decision);

  HealthRule runaway;
  runaway.name = "runaway-kill";
  runaway.role = RuleRole::kDetection;
  runaway.kind = RuleKind::kCounterDeltaAbove;
  runaway.metric = "kernel.runaway_detections";
  rules.push_back(runaway);

  // A per-subnet SYN-budget drop is both detection (the kernel named an
  // over-budget subnet) and containment (the SYN was refused), so the
  // same counter appears under both roles.
  HealthRule syn_detect;
  syn_detect.name = "syn-budget";
  syn_detect.role = RuleRole::kDetection;
  syn_detect.kind = RuleKind::kCounterDeltaAbove;
  syn_detect.metric = "tcp.syns_dropped";
  rules.push_back(syn_detect);

  HealthRule syn_drop;
  syn_drop.name = "syn-drop";
  syn_drop.role = RuleRole::kContainment;
  syn_drop.kind = RuleKind::kCounterDeltaAbove;
  syn_drop.metric = "tcp.syns_dropped";
  rules.push_back(syn_drop);

  HealthRule pathkill;
  pathkill.name = "path-kill";
  pathkill.role = RuleRole::kContainment;
  pathkill.kind = RuleKind::kCounterDeltaAbove;
  pathkill.metric = "server.paths_killed";
  rules.push_back(pathkill);

  HealthRule strike;
  strike.name = "blacklist-strike";
  strike.role = RuleRole::kContainment;
  strike.kind = RuleKind::kCounterDeltaAbove;
  strike.metric = "policy.strikes";
  rules.push_back(strike);

  return rules;
}

}  // namespace

HealthMonitor::HealthMonitor(MetricsRegistry* registry, HealthConfig config)
    : registry_(registry), config_(config), rules_(DefaultRules(config)) {
  states_.resize(rules_.size());
}

void HealthMonitor::AddRule(HealthRule rule) {
  rules_.push_back(std::move(rule));
  states_.resize(rules_.size());
}

void HealthMonitor::OpenWindow(Cycles now) {
  window_open_ = now;
  window_opened_ = true;
  const MetricCounter* completed = registry_->FindCounter("tcp.conns_completed");
  if (completed != nullptr && now > 0) {
    const double rate =
        static_cast<double>(completed->value()) / SecondsFromCycles(now);
    baseline_rate_ = rate >= config_.min_baseline_rate ? rate : 0.0;
  }
}

bool HealthMonitor::Evaluate(size_t i, Cycles now, uint64_t* delta_out) {
  const HealthRule& rule = rules_[i];
  RuleState& st = states_[i];
  *delta_out = 0;
  switch (rule.kind) {
    case RuleKind::kCounterDeltaAbove: {
      const MetricCounter* c = registry_->FindCounter(rule.metric);
      if (c == nullptr) return false;
      const uint64_t v = c->value();
      const uint64_t delta = v >= st.last_counter ? v - st.last_counter : 0;
      st.last_counter = v;
      *delta_out = delta;
      return static_cast<double>(delta) > rule.threshold;
    }
    case RuleKind::kGaugeAbove: {
      const MetricGauge* g = registry_->FindGauge(rule.metric);
      if (g == nullptr) return false;
      return static_cast<double>(g->value()) > rule.threshold;
    }
    case RuleKind::kHistogramP99Above: {
      const MetricHistogram* h = registry_->FindHistogram(rule.metric);
      if (h == nullptr || h->count() == 0) return false;
      return static_cast<double>(h->Percentile(0.99)) > rule.threshold;
    }
    case RuleKind::kRateBelowBaselineFrac: {
      const MetricCounter* c = registry_->FindCounter(rule.metric);
      if (c == nullptr || baseline_rate_ <= 0.0 || !window_opened_ ||
          now <= window_open_) {
        return false;
      }
      const uint32_t cap = rule.trailing_samples > 0 ? rule.trailing_samples : 1;
      if (st.ring.size() != cap) st.ring.assign(cap, 0);
      const uint64_t v = c->value();
      bool breach = false;
      if (st.ring_filled >= cap) {
        const uint64_t oldest = st.ring[st.ring_next];
        const double window_s =
            SecondsFromCycles(kMetricsSampleInterval) * static_cast<double>(cap);
        const double rate = static_cast<double>(v - oldest) / window_s;
        breach = rate < rule.threshold * baseline_rate_;
      }
      st.ring[st.ring_next] = v;
      st.ring_next = (st.ring_next + 1) % cap;
      if (st.ring_filled < cap) ++st.ring_filled;
      return breach;
    }
  }
  return false;
}

void HealthMonitor::Sample(Cycles now) {
  bool any_pressure = false;
  uint64_t detect_delta = 0;
  uint64_t contain_delta = 0;
  const std::string* detect_trigger = nullptr;
  const std::string* contain_trigger = nullptr;
  const std::string* pressure_trigger = nullptr;

  for (size_t i = 0; i < rules_.size(); ++i) {
    uint64_t delta = 0;
    const bool breach = Evaluate(i, now, &delta);
    RuleState& st = states_[i];
    if (!breach) {
      st.streak = 0;
      continue;
    }
    ++st.streak;
    const HealthRule& rule = rules_[i];
    switch (rule.role) {
      case RuleRole::kPressure:
        any_pressure = true;
        if (st.streak >= rule.persistence && pressure_trigger == nullptr) {
          pressure_trigger = &rule.name;
        }
        break;
      case RuleRole::kDetection:
        detect_delta += delta > 0 ? delta : 1;
        if (detect_trigger == nullptr) detect_trigger = &rule.name;
        break;
      case RuleRole::kContainment:
        contain_delta += delta > 0 ? delta : 1;
        if (contain_trigger == nullptr) contain_trigger = &rule.name;
        break;
    }
  }

  if (!open_) {
    const std::string* trigger = detect_trigger != nullptr ? detect_trigger
                                 : contain_trigger != nullptr ? contain_trigger
                                                              : pressure_trigger;
    if (trigger != nullptr) {
      open_ = true;
      clean_streak_ = 0;
      IncidentRecord rec;
      rec.trigger = *trigger;
      rec.onset = now;
      incidents_.push_back(rec);
      if (tracer_ != nullptr) tracer_->DumpFlight("incident:" + *trigger, now);
    }
  }

  if (!open_) return;
  IncidentRecord& rec = incidents_.back();
  if (any_pressure) ++rec.pressure_breaches;
  if (detect_trigger != nullptr) {
    rec.detection_signals += detect_delta;
    if (rec.detected == 0) rec.detected = now;
  }
  if (contain_trigger != nullptr) {
    rec.containment_actions += contain_delta;
    if (rec.contained == 0) rec.contained = now;
  }
  if (rec.contained != 0 && rec.recovered == 0) {
    if (any_pressure) {
      clean_streak_ = 0;
    } else if (now > rec.contained) {
      if (++clean_streak_ >= config_.recovery_clean_samples) rec.recovered = now;
    }
  }
}

}  // namespace escort
