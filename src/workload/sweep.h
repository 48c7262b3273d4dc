// Declarative sweep harness for the figure/table bench binaries.
//
// The paper's evaluation (§4) is a grid of independent simulation cells —
// configuration × client count × document size. A bench declares its grid
// as SweepCells up front, hands it to Sweep::Run, and reads the collected
// results back by cell id to print its tables. Cells execute on a thread
// pool (src/sim/parallel.h), one fully isolated simulation world per cell;
// results always come back in grid order, bit-identical to a serial run
// (tests/test_parallel_equivalence.cc is the regression test).
//
// Isolation contract (see DESIGN.md): a cell's run function may touch only
// state it creates itself plus the immutable CostModel::Calibrated() /
// NetworkModel::Calibrated() singletons. No cell may write to globals,
// static locals, or another cell's state — escort_lint EL009 enforces
// this statically, the TSan CI job dynamically.
//
// Every bench built on this harness accepts:
//   --jobs N     worker threads (default: hardware concurrency)
//   --json PATH  machine-readable BENCH_*.json output for the perf
//                trajectory, alongside the human-readable tables
//   --trace PATH deterministic Chrome trace-event JSON of every cell
//                (one process per cell, merged in grid order; byte-
//                identical across --jobs). Flight-recorder
//                dumps land next to it as PATH.<cell>.flight.json.
//   --metrics PATH
//                deterministic metrics JSON of every cell (src/sim/
//                metrics.h: counters, gauges, log2 histograms, sim-time
//                series; merged in grid order, byte-identical across
//                --jobs — the same contract as --trace).
//   --quick      the bench's reduced grid

#ifndef SRC_WORKLOAD_SWEEP_H_
#define SRC_WORKLOAD_SWEEP_H_

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/workload/experiment.h"

namespace escort {

// What one cell measured: the common ExperimentResult block plus named
// extras that only a custom cell fills (the JSON `extra` block).
struct CellMetrics {
  ExperimentResult experiment;
  std::vector<std::pair<std::string, double>> extra;
};

// A cell's body. It receives the (env-resolved) spec and must be
// thread-pure per the isolation contract above.
using CellFn = std::function<CellMetrics(const ExperimentSpec&)>;

struct SweepCell {
  std::string id;                            // unique within the sweep
  std::map<std::string, std::string> tags;   // free-form labels for JSON
  ExperimentSpec spec;
  CellFn run;                                // empty: RunExperiment(spec)
};

struct CellResult {
  bool ok = false;
  std::string error;   // exception text when !ok
  CellMetrics metrics;
  // Host wall-clock spent running this cell (the JSON `perf` block).
  // Machine-dependent by nature — never part of determinism comparisons.
  double wall_ms = 0.0;
};

struct SweepOptions {
  int jobs = 0;            // <= 0: hardware concurrency
  std::string json_path;    // empty: no JSON emitted
  std::string trace_path;   // empty: no trace emitted
  std::string metrics_path; // empty: no standalone metrics document
  bool quick = false;
};

// Parses the common bench flags (--jobs N, --json PATH, --trace PATH,
// --metrics PATH, --quick).
// Prints usage and exits with status 2 on an unknown argument.
SweepOptions ParseSweepArgs(int argc, char** argv);

class Sweep {
 public:
  explicit Sweep(std::string bench_name);

  // Adds a cell measured by RunExperiment(spec).
  SweepCell& Add(std::string id, const ExperimentSpec& spec);
  // Adds a cell with a custom body; perfbench uses one to wrap
  // RunExperiment in a span. The spec still carries the grid coordinates
  // so the JSON record stays self-describing.
  SweepCell& AddCustom(std::string id, const ExperimentSpec& spec, CellFn run);

  size_t size() const { return cells_.size(); }
  const std::string& name() const { return name_; }

  // Runs every cell (ESCORT_WARMUP_S / ESCORT_WINDOW_S are resolved into
  // each spec first, so the JSON records the values actually used), then
  // writes opts.json_path if set. Results are stored in grid order. Spec
  // fields that the JSON `spec` block has no key for (stop rule, blacklist,
  // CGI attack period) are recorded as tags when they differ from the
  // default.
  void Run(const SweepOptions& opts);

  // Lookup by id; both die with a message on an unknown id, Result()
  // additionally dies if the cell failed (benches want hard errors, not
  // silently zeroed tables).
  const CellResult& Cell(const std::string& id) const;
  const ExperimentResult& Result(const std::string& id) const;

  const std::vector<SweepCell>& cells() const { return cells_; }
  const std::vector<CellResult>& results() const { return results_; }
  int failed_count() const;

  // JSON serialization of the whole sweep (schema_version 7; the schema
  // is pinned by tests/test_bench_json.cc and tools/check_bench_json.py).
  std::string ToJson() const;
  bool WriteJson(const std::string& path) const;

 private:
  std::string name_;
  int jobs_used_ = 1;
  std::vector<SweepCell> cells_;
  std::vector<CellResult> results_;
  std::map<std::string, size_t> index_;
};

// Canonical grids from the paper's figures, shared by the benches.
const std::vector<int>& ClientSweep();

struct DocSpec {
  const char* label;
  const char* path;
};
const std::vector<DocSpec>& DocSweep();

void PrintHeaderRule();

}  // namespace escort

#endif  // SRC_WORKLOAD_SWEEP_H_
