// DoS policy engine (paper §2.5, §4.4).
//
// The paper's measured policies live in the web server itself (per-subnet
// SYN budgets, the 2 ms runaway budget, QoS tickets). This module adds the
// *alternative* policy §4.4.4 sketches, offender blacklisting: "clients
// that have previously violated some resource bound can be identified and
// their future connection request packets demultiplexed to a different
// distinct passive path with a very small resource allocation."
// Implemented as a penalty listener with a tiny SYN budget + low
// proportional-share tickets, fed by a blacklist the runaway handler
// appends to.

#ifndef SRC_SERVER_POLICY_H_
#define SRC_SERVER_POLICY_H_

#include <cstdint>
#include <map>
#include <set>

#include "src/elib/address.h"
#include "src/net/tcp.h"
#include "src/sim/types.h"

namespace escort {

class EscortWebServer;

// Tracks resource-bound violators by source address and steers their
// future connection attempts onto a penalty passive path.
class BlacklistPolicy {
 public:
  struct Options {
    // Violations before an address is blacklisted.
    uint32_t strikes = 1;
    // Penalty listener budget: at most this many outstanding half-open
    // connections from blacklisted sources.
    uint32_t penalty_syn_limit = 1;
    // Proportional-share tickets for penalty-path connections.
    uint64_t penalty_tickets = 5;
    // Runaway budget for penalty-path connections: a known offender gets a
    // twentieth of the normal 2 ms before the kernel pulls the plug ("a
    // very small resource allocation").
    Cycles penalty_max_run = CyclesFromMillis(0.1);
    // Entries expire after this long (0 = never).
    Cycles expiry = 0;
    // Chain the server's violation hook so static-policy kills (runaway
    // budget) record strikes automatically. Detection experiments turn
    // this off: there the blacklist must be fed only by the detector's
    // confirmed decisions, or a warmup-time static kill blacklists every
    // attacker before the detector ever sees one.
    bool chain_violation_hook = true;
  };

  // Installs the policy on a running server: creates the penalty listener
  // and chains the runaway handler so violations are recorded.
  BlacklistPolicy(EscortWebServer* server, Options options);

  // Records a violation by `addr` (the runaway handler calls this).
  void RecordViolation(Ip4Addr addr, Cycles now);

  bool IsBlacklisted(Ip4Addr addr, Cycles now) const;
  size_t size() const { return entries_.size(); }
  uint64_t violations_recorded() const { return violations_; }
  TcpListener* penalty_listener() { return penalty_listener_; }

 private:
  struct Entry {
    uint32_t strikes = 0;
    Cycles last_violation = 0;
  };

  EscortWebServer* const server_;
  const Options options_;
  TcpListener* penalty_listener_ = nullptr;
  std::map<Ip4Addr, Entry> entries_;
  uint64_t violations_ = 0;
  MetricCounter* m_strikes_ = nullptr;
  MetricGauge* m_blacklist_size_ = nullptr;
};

}  // namespace escort

#endif  // SRC_SERVER_POLICY_H_
