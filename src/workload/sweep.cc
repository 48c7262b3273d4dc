#include "src/workload/sweep.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "src/sim/parallel.h"
#include "src/sim/trace.h"

namespace escort {

const std::vector<int>& ClientSweep() {
  static const std::vector<int> kClients = {1, 2, 4, 8, 16, 32, 48, 64};
  return kClients;
}

const std::vector<DocSpec>& DocSweep() {
  static const std::vector<DocSpec> kDocs = {
      {"1-byte", "/doc1b"}, {"1K-byte", "/doc1k"}, {"10K-byte", "/doc10k"}};
  return kDocs;
}

void PrintHeaderRule() {
  std::printf("--------------------------------------------------------------------------\n");
}

namespace {

[[noreturn]] void UsageAndExit(const char* argv0, const char* bad) {
  if (bad != nullptr) {
    std::fprintf(stderr, "unknown argument: %s\n", bad);
  }
  std::fprintf(stderr,
               "usage: %s [--quick] [--jobs N]\n"
               "       [--json PATH] [--trace PATH] [--metrics PATH]\n"
               "  --quick      run the bench's reduced grid\n"
               "  --jobs N     worker threads (default: hardware concurrency)\n"
               "  --json PATH  also write machine-readable results to PATH\n"
               "  --trace PATH write a deterministic Chrome trace (Perfetto /\n"
               "               chrome://tracing) covering every cell\n"
               "  --metrics PATH\n"
               "               write a deterministic metrics JSON (counters,\n"
               "               gauges, histograms, sim-time series) covering\n"
               "               every cell; byte-identical across --jobs\n",
               argv0);
  std::exit(2);
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "sweep: %s\n", msg.c_str());
  std::exit(1);
}

// `--jobs fast` must be an error, not a silent fall-through to the
// hardware-concurrency default (atoi("fast") == 0 would do exactly that).
int ParseJobs(const char* argv0, const char* value) {
  char* end = nullptr;
  long n = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || n < 1 || n > 4096) {
    std::fprintf(stderr, "--jobs expects an integer in [1, 4096], got '%s'\n", value);
    UsageAndExit(argv0, nullptr);
  }
  return static_cast<int>(n);
}

void AppendDouble(std::string* out, double v) {
  if (!std::isfinite(v)) {
    v = 0.0;  // metrics are finite by construction; never emit invalid JSON
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  *out += buf;
}

void AppendKey(std::string* out, const char* key) {
  *out += Tracer::Str(key);
  *out += ": ";
}

// Cell ids become part of flight-dump filenames; keep them path-safe.
std::string PathSafe(const std::string& id) {
  std::string out = id;
  for (char& c : out) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
              c == '-' || c == '.' || c == '_';
    if (!ok) {
      c = '-';
    }
  }
  return out;
}

// Schema 7's `spec` block has a fixed key set (a new key would make every
// document differ under --expect-equal), so the spec fields it lacks ride
// along as tags, and only where a cell moves them off the default.
void TagUnkeyedSpecFields(SweepCell* cell) {
  const ExperimentSpec& spec = cell->spec;
  if (spec.stop != StopRule::kWindow) {
    cell->tags.emplace("stop", StopRuleName(spec.stop));
    cell->tags.emplace("stop_count", std::to_string(spec.stop_count));
  }
  if (spec.blacklist) {
    cell->tags.emplace("blacklist", "on");
  }
  if (spec.cgi_attack_period != ExperimentSpec().cgi_attack_period) {
    char ms[32];
    std::snprintf(ms, sizeof ms, "%g", MillisFromCycles(spec.cgi_attack_period));
    cell->tags.emplace("cgi_attack_period_ms", ms);
  }
}

}  // namespace

SweepOptions ParseSweepArgs(int argc, char** argv) {
  SweepOptions opts;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--quick") == 0) {
      opts.quick = true;
    } else if (std::strcmp(a, "--jobs") == 0 && i + 1 < argc) {
      opts.jobs = ParseJobs(argv[0], argv[++i]);
    } else if (std::strncmp(a, "--jobs=", 7) == 0) {
      opts.jobs = ParseJobs(argv[0], a + 7);
    } else if (std::strcmp(a, "--json") == 0 && i + 1 < argc) {
      opts.json_path = argv[++i];
    } else if (std::strncmp(a, "--json=", 7) == 0) {
      opts.json_path = a + 7;
    } else if (std::strcmp(a, "--trace") == 0 && i + 1 < argc) {
      opts.trace_path = argv[++i];
    } else if (std::strncmp(a, "--trace=", 8) == 0) {
      opts.trace_path = a + 8;
    } else if (std::strcmp(a, "--metrics") == 0 && i + 1 < argc) {
      opts.metrics_path = argv[++i];
    } else if (std::strncmp(a, "--metrics=", 10) == 0) {
      opts.metrics_path = a + 10;
    } else {
      UsageAndExit(argv[0], a);
    }
  }
  return opts;
}

Sweep::Sweep(std::string bench_name) : name_(std::move(bench_name)) {}

SweepCell& Sweep::Add(std::string id, const ExperimentSpec& spec) {
  return AddCustom(std::move(id), spec, CellFn());
}

SweepCell& Sweep::AddCustom(std::string id, const ExperimentSpec& spec, CellFn run) {
  if (index_.count(id) != 0) {
    Die("duplicate cell id '" + id + "' in sweep " + name_);
  }
  index_[id] = cells_.size();
  SweepCell cell;
  cell.id = std::move(id);
  cell.spec = spec;
  cell.run = std::move(run);
  cells_.push_back(std::move(cell));
  return cells_.back();
}

void Sweep::Run(const SweepOptions& opts) {
  jobs_used_ = opts.jobs <= 0 ? HardwareConcurrency() : opts.jobs;
  // Resolve the env overrides once, up front, so every cell runs — and is
  // recorded in the JSON — with the warmup/window actually used.
  for (SweepCell& cell : cells_) {
    cell.spec.warmup_s = EnvSeconds("ESCORT_WARMUP_S", cell.spec.warmup_s);
    cell.spec.window_s = EnvSeconds("ESCORT_WINDOW_S", cell.spec.window_s);
    TagUnkeyedSpecFields(&cell);
  }
  // Tracing: each cell gets its own sink (cells run concurrently), and the
  // per-cell buffers are merged in grid order afterwards — one trace
  // "process" per cell — so the document is byte-identical at any --jobs.
  std::vector<std::unique_ptr<Tracer>> tracers;
  if (!opts.trace_path.empty()) {
    tracers.resize(cells_.size());
    for (size_t i = 0; i < cells_.size(); ++i) {
      TraceConfig tc;
      tc.path = opts.trace_path;
      tc.flight_path = opts.trace_path + "." + PathSafe(cells_[i].id) + ".flight.json";
      tracers[i] = std::make_unique<Tracer>(tc);
      cells_[i].spec.tracer = tracers[i].get();
    }
  }
  // Metrics: same shape as tracing — each cell gets its own registry
  // (cells run concurrently), and the per-cell fragments are merged in
  // grid order afterwards, so the document is byte-identical at any
  // --jobs.
  std::vector<std::unique_ptr<MetricsRegistry>> registries;
  if (!opts.metrics_path.empty()) {
    registries.resize(cells_.size());
    for (size_t i = 0; i < cells_.size(); ++i) {
      registries[i] = std::make_unique<MetricsRegistry>();
      cells_[i].spec.metrics_registry = registries[i].get();
    }
  }
  results_.assign(cells_.size(), CellResult());
  std::vector<JobOutcome> outcomes =
      ParallelFor(jobs_used_, cells_.size(), [this](size_t i) {
        const SweepCell& cell = cells_[i];
        // Wall-clock per cell for the JSON `perf` block. Parallel cells
        // share cores, so per-cell wall time is only comparable between
        // runs at the same --jobs; the perf gate pins jobs for that reason.
        double start_ms = MonotonicMillis();
        if (cell.run) {
          results_[i].metrics = cell.run(cell.spec);
        } else {
          results_[i].metrics.experiment = RunExperiment(cell.spec);
        }
        results_[i].wall_ms = MonotonicMillis() - start_ms;
        // Prefer the experiment's own run-phase timing when it reports
        // one: the perf block rates the scheduler, and the outer span
        // includes testbed construction and teardown.
        if (results_[i].metrics.experiment.sim_wall_ms > 0.0) {
          results_[i].wall_ms = results_[i].metrics.experiment.sim_wall_ms;
        }
      });
  for (size_t i = 0; i < outcomes.size(); ++i) {
    results_[i].ok = outcomes[i].ok;
    results_[i].error = outcomes[i].error;
  }
  if (!opts.trace_path.empty()) {
    std::vector<std::string> fragments;
    fragments.reserve(tracers.size());
    for (size_t i = 0; i < tracers.size(); ++i) {
      fragments.push_back(tracers[i]->SerializeEvents(static_cast<uint32_t>(i), cells_[i].id));
    }
    if (!Tracer::WriteFile(opts.trace_path, Tracer::WrapDocument(fragments))) {
      Die("cannot write trace output to " + opts.trace_path);
    }
  }
  if (!opts.metrics_path.empty()) {
    std::vector<std::string> fragments;
    fragments.reserve(registries.size());
    for (size_t i = 0; i < registries.size(); ++i) {
      fragments.push_back(registries[i]->SerializeCell(cells_[i].id));
    }
    if (!Tracer::WriteFile(opts.metrics_path, MetricsRegistry::WrapDocument(fragments))) {
      Die("cannot write metrics output to " + opts.metrics_path);
    }
  }
  if (!opts.json_path.empty() && !WriteJson(opts.json_path)) {
    Die("cannot write JSON output to " + opts.json_path);
  }
}

const CellResult& Sweep::Cell(const std::string& id) const {
  auto it = index_.find(id);
  if (it == index_.end()) {
    Die("unknown cell id '" + id + "' in sweep " + name_);
  }
  if (results_.size() != cells_.size()) {
    Die("sweep " + name_ + " queried before Run()");
  }
  return results_[it->second];
}

const ExperimentResult& Sweep::Result(const std::string& id) const {
  const CellResult& r = Cell(id);
  if (!r.ok) {
    Die("cell '" + id + "' failed: " + r.error);
  }
  return r.metrics.experiment;
}

int Sweep::failed_count() const {
  int n = 0;
  for (const CellResult& r : results_) {
    n += r.ok ? 0 : 1;
  }
  return n;
}

std::string Sweep::ToJson() const {
  std::string out;
  out.reserve(4096 + 1024 * cells_.size());
  out += "{\n  ";
  AppendKey(&out, "schema_version");
  out += "7,\n  ";
  AppendKey(&out, "bench");
  out += Tracer::Str(name_);
  out += ",\n  ";
  AppendKey(&out, "jobs");
  out += Tracer::Num(static_cast<uint64_t>(jobs_used_));
  out += ",\n  ";
  AppendKey(&out, "cells");
  out += "[";
  for (size_t i = 0; i < cells_.size(); ++i) {
    const SweepCell& cell = cells_[i];
    const CellResult& r = results_[i];
    const ExperimentResult& e = r.metrics.experiment;
    out += i == 0 ? "\n" : ",\n";
    out += "    {";
    AppendKey(&out, "id");
    out += Tracer::Str(cell.id);
    out += ", ";
    AppendKey(&out, "ok");
    out += r.ok ? "true" : "false";
    out += ", ";
    AppendKey(&out, "error");
    out += Tracer::Str(r.error);
    out += ",\n     ";
    AppendKey(&out, "tags");
    out += "{";
    bool first = true;
    for (const auto& [k, v] : cell.tags) {
      if (!first) {
        out += ", ";
      }
      first = false;
      AppendKey(&out, k.c_str());
      out += Tracer::Str(v);
    }
    out += "},\n     ";
    AppendKey(&out, "spec");
    out += "{";
    AppendKey(&out, "linux_server");
    out += cell.spec.linux_server ? "true" : "false";
    out += ", ";
    AppendKey(&out, "config");
    out += Tracer::Str(ServerConfigName(cell.spec.config));
    out += ", ";
    AppendKey(&out, "clients");
    out += Tracer::Num(static_cast<uint64_t>(cell.spec.clients));
    out += ", ";
    AppendKey(&out, "doc");
    out += Tracer::Str(cell.spec.doc);
    out += ", ";
    AppendKey(&out, "qos_stream");
    out += cell.spec.qos_stream ? "true" : "false";
    out += ", ";
    AppendKey(&out, "syn_attack_rate");
    AppendDouble(&out, cell.spec.syn_attack_rate);
    out += ", ";
    AppendKey(&out, "cgi_attackers");
    out += Tracer::Num(static_cast<uint64_t>(cell.spec.cgi_attackers));
    out += ", ";
    AppendKey(&out, "warmup_s");
    AppendDouble(&out, cell.spec.warmup_s);
    out += ", ";
    AppendKey(&out, "window_s");
    AppendDouble(&out, cell.spec.window_s);
    out += ", ";
    AppendKey(&out, "detect");
    out += Tracer::Str(DetectModeName(cell.spec.detect.mode));
    out += "},\n     ";
    AppendKey(&out, "metrics");
    out += "{";
    AppendKey(&out, "conns_per_sec");
    AppendDouble(&out, e.conns_per_sec);
    out += ", ";
    AppendKey(&out, "qos_bytes_per_sec");
    AppendDouble(&out, e.qos_bytes_per_sec);
    out += ", ";
    AppendKey(&out, "completions_total");
    out += Tracer::Num(e.completions_total);
    out += ", ";
    AppendKey(&out, "client_failures");
    out += Tracer::Num(e.client_failures);
    out += ", ";
    AppendKey(&out, "paths_killed");
    out += Tracer::Num(e.paths_killed);
    out += ", ";
    AppendKey(&out, "syns_dropped_at_demux");
    out += Tracer::Num(e.syns_dropped_at_demux);
    out += ", ";
    AppendKey(&out, "syns_sent");
    out += Tracer::Num(e.syns_sent);
    out += ", ";
    AppendKey(&out, "runaway_detections");
    out += Tracer::Num(e.runaway_detections);
    out += ", ";
    AppendKey(&out, "kill_cost_mean");
    AppendDouble(&out, e.kill_cost_mean);
    out += ", ";
    AppendKey(&out, "window_cycles");
    out += Tracer::Num(e.window_cycles);
    out += ", ";
    AppendKey(&out, "pd_crossings");
    out += Tracer::Num(e.pd_crossings);
    out += ", ";
    AppendKey(&out, "accounting_overhead");
    out += Tracer::Num(e.accounting_overhead);
    out += ", ";
    AppendKey(&out, "ledger_total");
    out += Tracer::Num(e.ledger.Total());
    out += "},\n     ";
    AppendKey(&out, "ledger");
    out += "{";
    first = true;
    for (const auto& [label, cycles] : e.ledger.totals()) {
      if (!first) {
        out += ", ";
      }
      first = false;
      out += Tracer::Str(label);
      out += ": ";
      out += Tracer::Num(cycles);
    }
    out += "},\n     ";
    // Host wall-clock performance of the cell. Machine- and load-dependent
    // by nature: determinism-exempt (check_bench_json.py --expect-equal
    // strips it).
    AppendKey(&out, "perf");
    out += "{";
    AppendKey(&out, "wall_ms");
    AppendDouble(&out, r.wall_ms);
    out += ", ";
    AppendKey(&out, "events_per_sec");
    AppendDouble(&out, r.wall_ms > 0.0 ? static_cast<double>(e.events_fired) * 1000.0 / r.wall_ms
                                       : 0.0);
    out += "},\n     ";
    // Slab/timer-wheel footprint of the cell (schema v4). Deterministic
    // counts, but exempt from --expect-equal comparisons: it describes
    // table layout, which a change may move while every workload metric
    // stays bit-identical.
    const MemoryProfile& mem = e.memory;
    AppendKey(&out, "memory");
    out += "{";
    AppendKey(&out, "pcb_slot_bytes");
    out += Tracer::Num(mem.pcb_slot_bytes);
    out += ", ";
    AppendKey(&out, "pcb_live");
    out += Tracer::Num(mem.pcb_live);
    out += ", ";
    AppendKey(&out, "pcb_high_water");
    out += Tracer::Num(mem.pcb_high_water);
    out += ", ";
    AppendKey(&out, "pcb_bytes_reserved");
    out += Tracer::Num(mem.pcb_bytes_reserved);
    out += ", ";
    AppendKey(&out, "peer_slot_bytes");
    out += Tracer::Num(mem.peer_slot_bytes);
    out += ", ";
    AppendKey(&out, "peer_live");
    out += Tracer::Num(mem.peer_live);
    out += ", ";
    AppendKey(&out, "peer_high_water");
    out += Tracer::Num(mem.peer_high_water);
    out += ", ";
    AppendKey(&out, "peer_bytes_reserved");
    out += Tracer::Num(mem.peer_bytes_reserved);
    out += ", ";
    AppendKey(&out, "timers_armed");
    out += Tracer::Num(mem.timers_armed);
    out += ", ";
    AppendKey(&out, "timer_high_water");
    out += Tracer::Num(mem.timer_high_water);
    out += ", ";
    AppendKey(&out, "timer_capacity");
    out += Tracer::Num(mem.timer_capacity);
    out += ", ";
    AppendKey(&out, "timer_bytes_reserved");
    out += Tracer::Num(mem.timer_bytes_reserved);
    out += ", ";
    // The headline scale number: total reserved connection+timer bytes per
    // regular client (0 when the cell has none).
    AppendKey(&out, "bytes_per_client");
    AppendDouble(&out, cell.spec.clients > 0
                           ? static_cast<double>(mem.pcb_bytes_reserved +
                                                 mem.peer_bytes_reserved +
                                                 mem.timer_bytes_reserved) /
                                 static_cast<double>(cell.spec.clients)
                           : 0.0);
    out += "},\n     ";
    // Detection decisions (schema v5). Deterministic at any --jobs — the
    // decision_digest is the equality witness the CI
    // detection-determinism step byte-diffs — but the block is stripped by
    // --expect-equal alongside memory/perf so detection-on runs stay
    // comparable against detection-off baselines of the same grid.
    const DetectionStats& det = e.detection;
    AppendKey(&out, "detection");
    out += "{";
    AppendKey(&out, "detections");
    out += Tracer::Num(det.detections);
    out += ", ";
    AppendKey(&out, "true_positives");
    out += Tracer::Num(det.true_positives);
    out += ", ";
    AppendKey(&out, "false_positives");
    out += Tracer::Num(det.false_positives);
    out += ", ";
    AppendKey(&out, "paths_killed_by_detector");
    out += Tracer::Num(det.paths_killed_by_detector);
    out += ", ";
    AppendKey(&out, "blacklist_size");
    out += Tracer::Num(det.blacklist_size);
    out += ", ";
    AppendKey(&out, "first_detection_ms");
    AppendDouble(&out, det.first_detection_ms);
    out += ", ";
    AppendKey(&out, "decision_digest");
    out += Tracer::Num(det.decision_digest);
    out += "},\n     ";
    // HealthMonitor incident forensics (schema v6): the onset →
    // detection → containment → recovery timeline with derived TTD/TTR.
    // Fully deterministic (stream-0 sampling at fixed sim times) and NOT
    // exempt from --expect-equal: incident records must be byte-identical
    // at any --jobs.
    AppendKey(&out, "incidents");
    out += "{";
    AppendKey(&out, "count");
    out += Tracer::Num(static_cast<uint64_t>(e.incidents.size()));
    out += ", ";
    AppendKey(&out, "records");
    out += "[";
    for (size_t n = 0; n < e.incidents.size(); ++n) {
      const IncidentRecord& inc = e.incidents[n];
      if (n != 0) {
        out += ", ";
      }
      out += "{";
      AppendKey(&out, "trigger");
      out += Tracer::Str(inc.trigger);
      out += ", ";
      AppendKey(&out, "onset_ms");
      AppendDouble(&out, MillisFromCycles(inc.onset));
      out += ", ";
      AppendKey(&out, "detected_ms");
      AppendDouble(&out, inc.detected != 0 ? MillisFromCycles(inc.detected) : -1.0);
      out += ", ";
      AppendKey(&out, "contained_ms");
      AppendDouble(&out, inc.contained != 0 ? MillisFromCycles(inc.contained) : -1.0);
      out += ", ";
      AppendKey(&out, "recovered_ms");
      AppendDouble(&out, inc.recovered != 0 ? MillisFromCycles(inc.recovered) : -1.0);
      out += ", ";
      AppendKey(&out, "ttd_ms");
      AppendDouble(&out, inc.ttd_ms());
      out += ", ";
      AppendKey(&out, "ttr_ms");
      AppendDouble(&out, inc.ttr_ms());
      out += ", ";
      AppendKey(&out, "pressure_breaches");
      out += Tracer::Num(inc.pressure_breaches);
      out += ", ";
      AppendKey(&out, "detection_signals");
      out += Tracer::Num(inc.detection_signals);
      out += ", ";
      AppendKey(&out, "containment_actions");
      out += Tracer::Num(inc.containment_actions);
      out += "}";
    }
    out += "]},\n     ";
    AppendKey(&out, "extra");
    out += "{";
    first = true;
    for (const auto& [k, v] : r.metrics.extra) {
      if (!first) {
        out += ", ";
      }
      first = false;
      AppendKey(&out, k.c_str());
      AppendDouble(&out, v);
    }
    out += "}}";
  }
  out += "\n  ]\n}\n";
  return out;
}

bool Sweep::WriteJson(const std::string& path) const {
  return Tracer::WriteFile(path, ToJson());
}

}  // namespace escort
