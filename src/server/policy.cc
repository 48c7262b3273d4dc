#include "src/server/policy.h"

#include "src/server/web_server.h"
#include "src/sim/metrics.h"

namespace escort {

BlacklistPolicy::BlacklistPolicy(EscortWebServer* server, Options options)
    : server_(server), options_(options) {
  // The penalty passive path: same port, whole Internet, but only reachable
  // through the demux override, with a tiny budget and tiny tickets.
  penalty_listener_ = server_->tcp()->Listen(80, Subnet{Ip4Addr{0}, 0});
  penalty_listener_->penalty = true;
  penalty_listener_->syn_limit = options_.penalty_syn_limit;
  penalty_listener_->active_label = "Penalty Path";
  penalty_listener_->active_tickets = options_.penalty_tickets;
  penalty_listener_->active_max_run = options_.penalty_max_run;

  server_->tcp()->listener_override = [this](Ip4Addr src) -> TcpListener* {
    if (IsBlacklisted(src, server_->kernel().now())) {
      return penalty_listener_;
    }
    return nullptr;
  };
  if (options_.chain_violation_hook) {
    server_->set_violation_hook(
        [this](Ip4Addr addr) { RecordViolation(addr, server_->kernel().now()); });
  }
  if (MetricsRegistry* m = server_->kernel().metrics(); m != nullptr) {
    m_strikes_ = ESCORT_METRIC_COUNTER(m, "policy.strikes",
                                       "resource-bound violations recorded");
    m_blacklist_size_ =
        ESCORT_METRIC_GAUGE(m, "policy.blacklist_size", "tracked offender addresses");
  }
}

void BlacklistPolicy::RecordViolation(Ip4Addr addr, Cycles now) {
  ++violations_;
  if (options_.expiry != 0) {
    // Expired entries are dead weight: under churning attacker subnets the
    // table would otherwise grow without bound (and size() misreport).
    // Violations are the only mutation point, so pruning here bounds the
    // table by the set of sources active within one expiry window.
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (now >= it->second.last_violation + options_.expiry) {
        it = entries_.erase(it);
      } else {
        ++it;
      }
    }
  }
  Entry& e = entries_[addr];
  e.strikes += 1;
  e.last_violation = now;
  MetricAdd(m_strikes_);
  MetricSet(m_blacklist_size_, static_cast<int64_t>(entries_.size()));
  Tracer* t = server_->kernel().tracer();
  if (t != nullptr) {
    t->Instant(now, "policy", e.strikes >= options_.strikes ? "blacklist-insert"
                                                            : "blacklist-strike",
               "policy",
               {{"addr", Tracer::Str(addr.ToString())},
                {"strikes", Tracer::Num(e.strikes)}});
  }
}

bool BlacklistPolicy::IsBlacklisted(Ip4Addr addr, Cycles now) const {
  auto it = entries_.find(addr);
  if (it == entries_.end() || it->second.strikes < options_.strikes) {
    return false;
  }
  // Deadline convention (see the PR3 master-scan fix): a deadline landing
  // exactly on `now` is due *now* — expiry at `now >= deadline`, not one
  // cycle later.
  if (options_.expiry != 0 && now >= it->second.last_violation + options_.expiry) {
    return false;
  }
  return true;
}

}  // namespace escort
