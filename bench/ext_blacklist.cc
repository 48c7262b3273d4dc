// Extension experiment (paper §4.4.4): the offender-blacklist policy.
//
// "Clients that have previously violated some resource bound — e.g. the
// CGI attackers in our example — can be identified and their future
// connection request packets demultiplexed to a different distinct passive
// path with a very small resource allocation."
//
// This bench extends Figure 11: the same CGI attack, with and without the
// blacklist. Without it, every attack burns its full 2 ms budget before
// detection; with it, an offender gets one free shot — subsequent attempts
// are squeezed through the penalty listener's one-connection budget, so
// best-effort throughput recovers.

#include <cstdio>
#include <string>
#include <vector>

#include "src/workload/sweep.h"

using namespace escort;

namespace {

std::string CellId(int attackers, bool blacklist) {
  return std::string(blacklist ? "on" : "off") + "/a" + std::to_string(attackers);
}

}  // namespace

int main(int argc, char** argv) {
  SweepOptions opts = ParseSweepArgs(argc, argv);
  const std::vector<int> attacker_counts =
      opts.quick ? std::vector<int>{0, 5} : std::vector<int>{0, 2, 5, 10};

  // 32 best-effort clients against aggressive attackers (one attack every
  // 100 ms each), with and without the blacklist policy.
  Sweep sweep("ext_blacklist");
  for (int attackers : attacker_counts) {
    for (bool blacklist : {false, true}) {
      ExperimentSpec spec;
      spec.config = ServerConfig::kAccounting;
      spec.clients = 32;
      spec.cgi_attackers = attackers;
      spec.cgi_attack_period = CyclesFromMillis(100);
      spec.blacklist = blacklist;
      sweep.Add(CellId(attackers, blacklist), spec);
    }
  }
  sweep.Run(opts);

  std::printf("=== Extension (paper §4.4.4): blacklisting repeat CGI offenders ===\n");
  std::printf("32 best-effort clients; attackers fire one runaway CGI request per 100 ms.\n\n");
  std::printf("%10s | %14s %8s | %14s %8s %14s\n", "attackers", "no-blacklist", "kills",
              "blacklist", "kills", "penalty-drops");
  for (int attackers : attacker_counts) {
    const ExperimentResult& off = sweep.Result(CellId(attackers, false));
    const ExperimentResult& on = sweep.Result(CellId(attackers, true));
    // The trusted listener drops no SYNs here, so the demux drops are the
    // penalty listener's.
    std::printf("%10d | %14.1f %8llu | %14.1f %8llu %14llu\n", attackers, off.conns_per_sec,
                static_cast<unsigned long long>(off.paths_killed), on.conns_per_sec,
                static_cast<unsigned long long>(on.paths_killed),
                static_cast<unsigned long long>(on.syns_dropped_at_demux));
  }
  std::printf("\nWith the blacklist, each offender burns its 2 ms budget once; afterwards its\n"
              "SYNs demux to the penalty passive path and are mostly dropped there, so the\n"
              "kill rate collapses and best-effort throughput recovers.\n");
  return sweep.failed_count() == 0 ? 0 : 1;
}
