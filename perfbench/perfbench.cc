// Benchmark driver: runs one named workload of Escort simulation cells
// through the public Sweep / RunExperiment entry points at --jobs 1, and
// writes the sweep JSON of every pass (plus, when traced, the span log and
// the layer drivers' counts) to --out. perfbench/run.py builds this
// program, generates the spec inputs below from a workload seed, checks
// the results and does all of the arithmetic.
//
//   perfbench --workload NAME --mode untraced|traced|layers --seconds S
//             --seed N --clients N --syn-rate R --cgi-attackers N
//             --scale-clients N --out PATH
//             [--timer-population N] [--buffers-in-flight N]
//             [--syn-per-conn R]
//
// untraced: repeats whole-workload passes until S seconds have passed (at
//           least three, so set-up time has a median and repeats can be
//           compared).
// traced:   repeats rounds of (plain pass, traced pass, pass with metrics
//           collection off) until S seconds have passed (at least one).
//           Every pass is a span; the traced pass also wraps each cell in a
//           span and writes the metrics registry document to
//           PATH.metrics.json.
// layers:   runs the layer drivers (layer_drivers.h) on the workload's
//           configurations and documents, with the populations and mixes
//           run.py read from a traced run's first pass. A driver whose
//           input was not given is skipped.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "layer_drivers.h"
#include "span_log.h"
#include "src/workload/sweep.h"

namespace perfbench {
namespace {

using escort::ExperimentSpec;
using escort::ServerConfig;

struct Args {
  std::string workload;
  std::string mode;
  double seconds = 0;
  uint64_t seed = 0;
  int clients = 0;
  double syn_rate = 0;
  int cgi_attackers = 0;
  int scale_clients = 0;
  std::string out;
  int64_t timer_population = -1;
  int64_t buffers_in_flight = -1;
  double syn_per_conn = -1;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload http_saturated|attack_mix|client_scale\n"
               "                 --mode untraced|traced|layers --seconds S --seed N\n"
               "                 --clients N --syn-rate R --cgi-attackers N\n"
               "                 --scale-clients N --out PATH [--timer-population N]\n"
               "                 [--buffers-in-flight N] [--syn-per-conn R]\n",
               msg);
  std::exit(2);
}

double ParseNumber(const char* flag, const char* v, double lo, double hi) {
  char* end = nullptr;
  double x = std::strtod(v, &end);
  if (end == v || *end != '\0' || !(x >= lo && x <= hi)) {
    Usage((std::string(flag) + " out of range: " + v).c_str());
  }
  return x;
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--mode") {
      a.mode = v;
    } else if (flag == "--seconds") {
      a.seconds = ParseNumber("--seconds", v, 0.001, 3600);
    } else if (flag == "--seed") {
      a.seed = static_cast<uint64_t>(ParseNumber("--seed", v, 0, 9007199254740992.0));
    } else if (flag == "--clients") {
      a.clients = static_cast<int>(ParseNumber("--clients", v, 1, 4096));
    } else if (flag == "--syn-rate") {
      a.syn_rate = ParseNumber("--syn-rate", v, 1, 100000);
    } else if (flag == "--cgi-attackers") {
      a.cgi_attackers = static_cast<int>(ParseNumber("--cgi-attackers", v, 1, 50));
    } else if (flag == "--scale-clients") {
      a.scale_clients = static_cast<int>(ParseNumber("--scale-clients", v, 1, 16000000));
    } else if (flag == "--out") {
      a.out = v;
    } else if (flag == "--timer-population") {
      a.timer_population = static_cast<int64_t>(ParseNumber(flag.c_str(), v, 0, 1e9));
    } else if (flag == "--buffers-in-flight") {
      a.buffers_in_flight = static_cast<int64_t>(ParseNumber(flag.c_str(), v, 0, 1e9));
    } else if (flag == "--syn-per-conn") {
      a.syn_per_conn = ParseNumber(flag.c_str(), v, 0, 1e6);
    } else {
      Usage(("unknown argument " + flag).c_str());
    }
  }
  if (a.mode != "untraced" && a.mode != "traced" && a.mode != "layers") {
    Usage("--mode must be untraced, traced or layers");
  }
  if (a.seconds <= 0 || a.out.empty() || a.clients == 0 || a.syn_rate == 0 ||
      a.cgi_attackers == 0 || a.scale_clients == 0) {
    Usage("every argument is required");
  }
  return a;
}

struct CellDef {
  std::string id;
  std::map<std::string, std::string> tags;
  ExperimentSpec spec;
};

// Keeps ExperimentSpec's own warm-up and window (0.6 s + 2 s simulated).
ExperimentSpec BaseSpec(ServerConfig config, int clients, const char* doc) {
  ExperimentSpec spec;
  spec.config = config;
  spec.clients = clients;
  spec.doc = doc;
  return spec;
}

// The three workloads. Clients are a closed loop (each waits for its reply
// before sending again); attackers are an open loop at fixed rates.
std::vector<CellDef> WorkloadCells(const Args& a) {
  std::vector<CellDef> cells;
  if (a.workload == "http_saturated") {
    // Benign load that saturates the server CPU: dispatch, PD crossings,
    // IOBuffers and the TCP data path (10 KB documents take several
    // segments). Few timers, no kills, no demux drops.
    for (ServerConfig config : {ServerConfig::kAccounting, ServerConfig::kAccountingPd}) {
      for (const char* doc : {"/doc1b", "/doc10k"}) {
        std::string id = std::string(escort::ServerConfigName(config)) + doc;
        cells.push_back({id, {}, BaseSpec(config, a.clients, doc)});
      }
    }
    ExperimentSpec qos = BaseSpec(ServerConfig::kAccounting, a.clients, "/doc1b");
    qos.qos_stream = true;
    cells.push_back({"Accounting/doc1b+qos", {}, qos});
  } else if (a.workload == "attack_mix") {
    // Each attack cell next to its twin without the attack: the same
    // kernel and net layers now drop at demux, hold half-open timers and
    // kill paths instead of serving. Detectors and incidents run here.
    auto add_pair = [&](const std::string& pair, ExperimentSpec attack, ExperimentSpec twin) {
      cells.push_back({pair + "/attack", {{"pair", pair}, {"role", "attack"}}, attack});
      cells.push_back({pair + "/twin", {{"pair", pair}, {"role", "twin"}}, twin});
    };
    for (ServerConfig config : {ServerConfig::kAccounting, ServerConfig::kAccountingPd}) {
      ExperimentSpec twin = BaseSpec(config, a.clients, "/doc1b");
      twin.detect.mode = escort::DetectMode::kSprt;
      ExperimentSpec attack = twin;
      attack.syn_attack_rate = a.syn_rate;
      add_pair(std::string("syn-") + escort::ServerConfigName(config), attack, twin);
    }
    ExperimentSpec twin = BaseSpec(ServerConfig::kAccounting, a.clients, "/doc1b");
    twin.qos_stream = true;
    twin.detect.mode = escort::DetectMode::kBaseline;
    ExperimentSpec attack = twin;
    attack.cgi_attackers = a.cgi_attackers;
    add_pair("cgi-Accounting", attack, twin);
  } else if (a.workload == "client_scale") {
    // Testbed construction and the slab / timer-wheel working set dominate;
    // the server does little per event. Today every client starts at once
    // and the cell completes no connections; it is measured as it is.
    // A short simulated window: at this population the server saturates
    // within milliseconds.
    ExperimentSpec spec = BaseSpec(ServerConfig::kAccounting, a.scale_clients, "/doc1b");
    spec.warmup_s = 0.05;
    spec.window_s = 0.1;
    cells.push_back({"Accounting/doc1b/scale", {}, spec});
  } else {
    Usage(("unknown workload " + a.workload).c_str());
  }
  return cells;
}

// The configurations and documents of the workload's cells, with the
// populations and mixes given on the command line.
LayerShape ShapeOf(const std::vector<CellDef>& cells, const Args& a) {
  LayerShape shape;
  shape.seed = a.seed;
  shape.timer_population = a.timer_population;
  shape.buffers_in_flight = a.buffers_in_flight;
  shape.syn_per_conn = a.syn_per_conn;
  for (const CellDef& c : cells) {
    const ExperimentSpec& s = c.spec;
    if (std::find(shape.configs.begin(), shape.configs.end(), s.config) == shape.configs.end()) {
      shape.configs.push_back(s.config);
    }
    if (std::find(shape.docs.begin(), shape.docs.end(), s.doc) == shape.docs.end()) {
      shape.docs.push_back(s.doc);
    }
  }
  return shape;
}

struct PassRecord {
  std::string kind;
  double wall_s = 0;
  std::string sweep_json;
};

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// One pass over every cell. With a span log, the pass runs inside a
// "workload.pass.<kind>" span and, if `trace_cells`, each cell inside a
// "workload.cell" span under it.
PassRecord RunPass(const Args& a, const std::vector<CellDef>& cells, const char* kind,
                   bool collect_metrics, SpanLog* log, int parent, bool trace_cells,
                   const std::string& metrics_path) {
  escort::Sweep sweep("perfbench." + a.workload);
  ScopedSpan pass(log, ("workload.pass." + std::string(kind)).c_str(), parent);
  for (const CellDef& c : cells) {
    ExperimentSpec spec = c.spec;
    spec.collect_metrics = collect_metrics;
    escort::SweepCell* cell = nullptr;
    if (log != nullptr && trace_cells) {
      int pass_id = pass.id();
      cell = &sweep.AddCustom(c.id, spec, [log, pass_id](const ExperimentSpec& s) {
        ScopedSpan span(log, "workload.cell", pass_id);
        escort::CellMetrics m;
        m.experiment = escort::RunExperiment(s);
        return m;
      });
    } else {
      cell = &sweep.Add(c.id, spec);
    }
    cell->tags = c.tags;
  }
  escort::SweepOptions opts;
  opts.jobs = 1;
  opts.metrics_path = metrics_path;
  auto t0 = std::chrono::steady_clock::now();
  sweep.Run(opts);
  return {kind, SecondsSince(t0), sweep.ToJson()};
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  Args a = ParseArgs(argc, argv);
  std::vector<CellDef> cells = WorkloadCells(a);
  std::vector<PassRecord> passes;
  SpanLog log;
  DriverCounters counters;
  std::string metrics_path;
  auto t0 = std::chrono::steady_clock::now();
  if (a.mode == "untraced") {
    constexpr size_t kMinPasses = 3;
    while (passes.size() < kMinPasses || SecondsSince(t0) < a.seconds) {
      passes.push_back(RunPass(a, cells, "untraced", true, nullptr, -1, false, ""));
    }
  } else if (a.mode == "traced") {
    metrics_path = a.out + ".metrics.json";
    int root = log.Open("workload", -1);
    do {
      passes.push_back(RunPass(a, cells, "untraced", true, &log, root, false, ""));
      passes.push_back(RunPass(a, cells, "traced", true, &log, root, true, metrics_path));
      passes.push_back(RunPass(a, cells, "no_metrics", false, &log, root, false, ""));
    } while (SecondsSince(t0) < a.seconds);
    log.Close(root);
  } else {
    int layers = log.Open("layers", -1);
    counters = RunLayerDrivers(ShapeOf(cells, a), &log, layers);
    log.Close(layers);
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  std::string out = "{\"workload\": \"" + a.workload + "\", \"mode\": \"" + a.mode + "\",\n";
  out += "\"peak_rss_kb\": " + std::to_string(usage.ru_maxrss) + ",\n";
  out += "\"metrics_doc\": \"" + metrics_path + "\",\n";
  out += "\"counters\": {";
  for (size_t i = 0; i < counters.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + counters[i].first + "\": " +
           std::to_string(counters[i].second);
  }
  out += "},\n\"passes\": [";
  for (size_t i = 0; i < passes.size(); ++i) {
    out += (i == 0 ? "\n" : ",\n") + std::string("{\"kind\": \"") + passes[i].kind +
           "\", \"wall_s\": " + Num(passes[i].wall_s) + ", \"sweep\": " + passes[i].sweep_json +
           "}";
  }
  out += "],\n\"spans\": " + log.ToJson() + "\n}\n";

  std::FILE* f = std::fopen(a.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", a.out.c_str());
    return 1;
  }
  bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  ok = std::fclose(f) == 0 && ok;
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
