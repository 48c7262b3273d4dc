// The headline determinism regression test for the parallel sweep runner:
// the same ExperimentSpec grid, run serially and with --jobs 2/4/8, must
// produce bit-identical ExperimentResults for every cell — throughput,
// the full cycle ledger, kills, and drops. Cells share nothing mutable
// (only the immutable calibrated cost/network models), so parallelism may
// change wall-clock time, never results. This test runs under TSan in CI.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/workload/sweep.h"

namespace escort {
namespace {

// The grid covers every testbed feature: all three server configurations,
// the Linux comparator, the SYN attack, the QoS stream, and CGI attackers
// (which exercise pathKill and reclamation). Windows are kept short; the
// point is equivalence, not fidelity.
std::vector<SweepCell> BuildGrid() {
  Sweep proto("equivalence_grid");
  auto add = [&proto](const std::string& id, ServerConfig config, int clients,
                      const std::string& doc) -> ExperimentSpec& {
    ExperimentSpec spec;
    spec.config = config;
    spec.clients = clients;
    spec.doc = doc;
    spec.warmup_s = 0.05;
    spec.window_s = 0.25;
    return proto.Add(id, spec).spec;
  };
  add("scout/c4/1b", ServerConfig::kScout, 4, "/doc1b");
  add("acct/c8/1k", ServerConfig::kAccounting, 8, "/doc1k");
  add("pd/c4/1b", ServerConfig::kAccountingPd, 4, "/doc1b");
  add("acct/syn/c4", ServerConfig::kAccounting, 4, "/doc1b").syn_attack_rate = 800.0;
  add("acct/qos/c2", ServerConfig::kAccounting, 2, "/doc10k").qos_stream = true;
  add("acct/cgi/c4", ServerConfig::kAccounting, 4, "/doc1b").cgi_attackers = 2;
  add("linux/c4/1b", ServerConfig::kScout, 4, "/doc1b").linux_server = true;
  return proto.cells();
}

void ExpectIdentical(const ExperimentResult& a, const ExperimentResult& b,
                     const std::string& cell, int jobs) {
  std::string ctx = cell + " (jobs=" + std::to_string(jobs) + ")";
  // Doubles compared with ==: same binary, same inputs, same event order
  // must give the same bits, not merely close values.
  EXPECT_EQ(a.conns_per_sec, b.conns_per_sec) << ctx;
  EXPECT_EQ(a.qos_bytes_per_sec, b.qos_bytes_per_sec) << ctx;
  EXPECT_EQ(a.completions_total, b.completions_total) << ctx;
  EXPECT_EQ(a.client_failures, b.client_failures) << ctx;
  EXPECT_EQ(a.paths_killed, b.paths_killed) << ctx;
  EXPECT_EQ(a.syns_dropped_at_demux, b.syns_dropped_at_demux) << ctx;
  EXPECT_EQ(a.syns_sent, b.syns_sent) << ctx;
  EXPECT_EQ(a.runaway_detections, b.runaway_detections) << ctx;
  EXPECT_EQ(a.kill_cost_mean, b.kill_cost_mean) << ctx;
  EXPECT_EQ(a.window_cycles, b.window_cycles) << ctx;
  EXPECT_EQ(a.pd_crossings, b.pd_crossings) << ctx;
  EXPECT_EQ(a.accounting_overhead, b.accounting_overhead) << ctx;
  // The full per-owner ledger, label by label.
  EXPECT_EQ(a.ledger.totals(), b.ledger.totals()) << ctx;
}

TEST(ParallelEquivalence, JobsTwoFourEightMatchSerial) {
  std::vector<SweepCell> grid = BuildGrid();

  Sweep serial("equivalence_serial");
  for (const SweepCell& cell : grid) {
    serial.Add(cell.id, cell.spec);
  }
  SweepOptions serial_opts;
  serial_opts.jobs = 1;
  serial.Run(serial_opts);
  ASSERT_EQ(serial.failed_count(), 0);

  for (int jobs : {2, 4, 8}) {
    Sweep parallel("equivalence_jobs" + std::to_string(jobs));
    for (const SweepCell& cell : grid) {
      parallel.Add(cell.id, cell.spec);
    }
    SweepOptions opts;
    opts.jobs = jobs;
    parallel.Run(opts);
    ASSERT_EQ(parallel.failed_count(), 0) << "jobs=" << jobs;
    for (const SweepCell& cell : grid) {
      ExpectIdentical(serial.Result(cell.id), parallel.Result(cell.id), cell.id, jobs);
    }
  }
}

// Repeated serial runs are themselves bit-identical (the baseline the
// parallel comparison rests on).
TEST(ParallelEquivalence, SerialRunsAreReproducible) {
  std::vector<SweepCell> grid = BuildGrid();
  SweepOptions opts;
  opts.jobs = 1;

  Sweep first("repro_a");
  Sweep second("repro_b");
  // Exercise a couple of representative cells, not the whole grid twice.
  for (size_t i = 0; i < grid.size(); i += 3) {
    first.Add(grid[i].id, grid[i].spec);
    second.Add(grid[i].id, grid[i].spec);
  }
  first.Run(opts);
  second.Run(opts);
  ASSERT_EQ(first.failed_count(), 0);
  ASSERT_EQ(second.failed_count(), 0);
  for (const SweepCell& cell : first.cells()) {
    ExpectIdentical(first.Result(cell.id), second.Result(cell.id), cell.id, 1);
  }
}

// A non-experiment (custom) cell and the grid-order guarantee: results
// come back in declaration order even when a later cell finishes first.
TEST(ParallelEquivalence, CustomCellsKeepGridOrder) {
  Sweep sweep("custom_order");
  for (int i = 0; i < 6; ++i) {
    ExperimentSpec spec;
    spec.clients = i;
    sweep.AddCustom("cell" + std::to_string(i), spec, [](const ExperimentSpec& s) {
      CellMetrics m;
      m.experiment.completions_total = static_cast<uint64_t>(s.clients) * 100;
      m.extra = {{"index", static_cast<double>(s.clients)}};
      return m;
    });
  }
  SweepOptions opts;
  opts.jobs = 4;
  sweep.Run(opts);
  ASSERT_EQ(sweep.failed_count(), 0);
  for (int i = 0; i < 6; ++i) {
    const std::string id = "cell" + std::to_string(i);
    EXPECT_EQ(sweep.Result(id).completions_total, static_cast<uint64_t>(i) * 100);
    const std::vector<std::pair<std::string, double>>& extra = sweep.Cell(id).metrics.extra;
    ASSERT_EQ(extra.size(), 1u);
    EXPECT_EQ(extra[0].first, "index");
    EXPECT_EQ(extra[0].second, static_cast<double>(i));
    EXPECT_EQ(sweep.cells()[static_cast<size_t>(i)].id, id);
  }
}

}  // namespace
}  // namespace escort
