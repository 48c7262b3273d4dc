// Table 1: accounting accuracy — the average number of cycles spent serving
// 100 serial requests for a one-byte document, broken down by owner.
//
// Paper (Accounting / Accounting_PD):
//   Total Measured     402,033 / 1,123,195
//   Idle               201,493 (50%) / 9,825 (1%)
//   Passive SYN Path    11,223 (3%)  / 78,882 (7%)
//   Main Active Path   188,685 (47%) / 1,033,772 (92%)
//   TCP Master Event        38 (0%)  / 514 (0%)
//   Softclock               92 (0%)  / 200 (0%)
//   Total Accounted    402,031 (100%) / 1,123,193 (100%)
//
// The headline property: Escort accounts for virtually every cycle (Total
// Accounted == Total Measured) and >92% of non-idle cycles land on the
// active path serving the request.

#include <cstdio>
#include <string>
#include <vector>

#include "src/workload/sweep.h"

using namespace escort;

namespace {

struct Row {
  const char* label;
  Cycles acct;
  Cycles acct_pd;
};

constexpr uint64_t kRequests = 100;

Cycles PerRequest(Cycles total, uint64_t requests) { return total / requests; }

}  // namespace

int main(int argc, char** argv) {
  SweepOptions opts = ParseSweepArgs(argc, argv);

  // Each cell's window covers exactly the serial requests, so its ledger
  // splits the window's cycles ("Total Measured") by owner.
  Sweep sweep("table1_accuracy");
  for (ServerConfig config : {ServerConfig::kAccounting, ServerConfig::kAccountingPd}) {
    ExperimentSpec spec;
    spec.config = config;
    spec.stop = StopRule::kSerialRequests;
    spec.stop_count = kRequests;
    sweep.Add(ServerConfigName(config), spec).tags = {{"measurement", "serial_accuracy"}};
  }
  sweep.Run(opts);

  std::printf("=== Table 1: cycles per one-byte request, by owner (100 serial requests) ===\n\n");

  const ExperimentResult& acct_run = sweep.Result(ServerConfigName(ServerConfig::kAccounting));
  const ExperimentResult& pd_run = sweep.Result(ServerConfigName(ServerConfig::kAccountingPd));
  const CycleLedger& acct = acct_run.ledger;
  const CycleLedger& pd = pd_run.ledger;
  const uint64_t n = kRequests;
  const Cycles measured_acct_total = acct_run.window_cycles;
  const Cycles measured_pd_total = pd_run.window_cycles;

  // "Softclock" covers the kernel pseudo-owner: softclock ticks, interrupt
  // handling for dropped frames, reclamation (see DESIGN.md).
  auto kernel_row = [](const CycleLedger& l) { return l.Get("Kernel") + l.Get("ARP Path"); };
  // The TCP master event is charged to the protection domain containing
  // TCP: "PD:tcp" in the PD configuration, the privileged domain otherwise.
  auto master_row = [](const CycleLedger& l) {
    return l.Get("PD:tcp") + l.Get("PD:privileged");
  };

  std::vector<Row> rows = {
      {"Idle", PerRequest(acct.Get("Idle"), n), PerRequest(pd.Get("Idle"), n)},
      {"Passive SYN Path", PerRequest(acct.Get("Passive SYN Path"), n),
       PerRequest(pd.Get("Passive SYN Path"), n)},
      {"Main Active Path", PerRequest(acct.Get("Main Active Path"), n),
       PerRequest(pd.Get("Main Active Path"), n)},
      {"TCP Master Event", PerRequest(master_row(acct), n), PerRequest(master_row(pd), n)},
      {"Softclock (kernel)", PerRequest(kernel_row(acct), n), PerRequest(kernel_row(pd), n)},
  };

  Cycles total_acct = PerRequest(acct.Total(), n);
  Cycles total_pd = PerRequest(pd.Total(), n);
  Cycles measured_acct = PerRequest(measured_acct_total, n);
  Cycles measured_pd = PerRequest(measured_pd_total, n);

  std::printf("%-22s %18s %18s\n", "Owner", "Accounting", "Accounting_PD");
  PrintHeaderRule();
  std::printf("%-22s %18s %18s\n", "Total Measured", WithCommas(measured_acct).c_str(),
              WithCommas(measured_pd).c_str());
  for (const Row& row : rows) {
    double pct_a = total_acct ? 100.0 * static_cast<double>(row.acct) / total_acct : 0;
    double pct_p = total_pd ? 100.0 * static_cast<double>(row.acct_pd) / total_pd : 0;
    std::printf("%-22s %12s (%2.0f%%) %12s (%2.0f%%)\n", row.label,
                WithCommas(row.acct).c_str(), pct_a, WithCommas(row.acct_pd).c_str(), pct_p);
  }
  PrintHeaderRule();
  std::printf("%-22s %18s %18s\n", "Total Accounted", WithCommas(total_acct).c_str(),
              WithCommas(total_pd).c_str());

  double cover_a =
      100.0 * static_cast<double>(acct.Total()) / static_cast<double>(measured_acct_total);
  double cover_p =
      100.0 * static_cast<double>(pd.Total()) / static_cast<double>(measured_pd_total);
  std::printf("\nAccounted/Measured: %.2f%% / %.2f%%   (paper: ~100%% both)\n", cover_a, cover_p);

  Cycles nonidle_a = total_acct - PerRequest(acct.Get("Idle"), n);
  Cycles nonidle_p = total_pd - PerRequest(pd.Get("Idle"), n);
  double active_share_a =
      nonidle_a ? 100.0 * static_cast<double>(PerRequest(acct.Get("Main Active Path"), n)) /
                      static_cast<double>(nonidle_a)
                : 0;
  double active_share_p =
      nonidle_p ? 100.0 * static_cast<double>(PerRequest(pd.Get("Main Active Path"), n)) /
                      static_cast<double>(nonidle_p)
                : 0;
  std::printf("Active path share of non-idle cycles: %.1f%% / %.1f%%  (paper: >92%%)\n",
              active_share_a, active_share_p);
  return sweep.failed_count() == 0 ? 0 : 1;
}
