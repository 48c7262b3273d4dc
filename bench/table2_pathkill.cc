// Table 2: cycles needed to destroy a non-cooperating path, measured from
// the moment the runaway thread is detected until all resources associated
// with the path — in every protection domain it crosses — are reclaimed.
//
// Paper: Accounting 17,951; Accounting_PD 111,568; Linux (kill+waitpid,
// not directly comparable) 11,003.

#include <cstdio>
#include <string>

#include "src/workload/sweep.h"

using namespace escort;

namespace {

constexpr uint64_t kKills = 10;
constexpr uint64_t kRequests = 20;

}  // namespace

int main(int argc, char** argv) {
  SweepOptions opts = ParseSweepArgs(argc, argv);

  Sweep sweep("table2_pathkill");
  for (ServerConfig config : {ServerConfig::kAccounting, ServerConfig::kAccountingPd}) {
    ExperimentSpec spec;
    spec.config = config;
    spec.clients = 0;
    spec.cgi_attackers = 1;
    spec.stop = StopRule::kKills;
    spec.stop_count = kKills;
    sweep.Add(std::string("kill/") + ServerConfigName(config), spec).tags = {
        {"measurement", "kill_cost"}};
  }
  {
    // Context the paper gives: the full-PD kill is ~10% of the cycles used
    // to satisfy a single 1-byte request.
    ExperimentSpec spec;
    spec.config = ServerConfig::kAccountingPd;
    spec.stop = StopRule::kSerialRequests;
    spec.stop_count = kRequests;
    sweep.Add("request_cost/pd", spec).tags = {{"measurement", "serial_accuracy"}};
  }
  sweep.Run(opts);

  std::printf("=== Table 2: cycles to destroy a non-cooperative path ===\n\n");

  const ExperimentResult& acct = sweep.Result("kill/Accounting");
  const ExperimentResult& pd = sweep.Result("kill/Accounting_PD");
  Cycles linux_cost = CostModel::Calibrated().linux_kill_process;

  std::printf("%-16s %12s %12s %8s\n", "configuration", "cycles", "paper", "kills");
  PrintHeaderRule();
  std::printf("%-16s %12s %12s %8llu\n", "Accounting",
              WithCommas(static_cast<uint64_t>(acct.kill_cost_mean)).c_str(), "17,951",
              static_cast<unsigned long long>(acct.paths_killed));
  std::printf("%-16s %12s %12s %8llu\n", "Accounting_PD",
              WithCommas(static_cast<uint64_t>(pd.kill_cost_mean)).c_str(), "111,568",
              static_cast<unsigned long long>(pd.paths_killed));
  std::printf("%-16s %12s %12s %8s\n", "Linux (model)", WithCommas(linux_cost).c_str(), "11,003",
              "-");
  std::printf("\n(The Linux row is the paper's kill-to-waitpid reference; the paper itself\n"
              " cautions it is not directly comparable — a process kill does NOT reclaim\n"
              " kernel-held resources such as device buffers or connection state.)\n");

  const ExperimentResult& pd_req = sweep.Result("request_cost/pd");
  double req_cycles = static_cast<double>(pd_req.ledger.Total()) / static_cast<double>(kRequests);
  std::printf("\nAccounting_PD kill cost vs one 1-byte request: %.1f%%  (paper: ~10%%)\n",
              100.0 * pd.kill_cost_mean / req_cycles);
  return sweep.failed_count() == 0 ? 0 : 1;
}
