// Deterministic trace subsystem: Chrome trace-event JSON timelines.
//
// The tracer turns Escort's resource accounting into inspectable
// timelines: the metrics registry's series (per-label ledger balances
// among them) become counter tracks, path lifecycles become duration
// spans, and policy actions (runaway detection, blacklist inserts,
// pathKill) become instant events. The output loads directly into
// Perfetto / chrome://tracing.
//
// Determinism contract
// --------------------
// Timestamps are sim-cycles, never wall clock, and events are appended to
// the cell's buffer in the queue's deterministic execution order — so a
// trace is a pure function of the spec, byte-identical across `--jobs`.
//
// Zero overhead when disabled: components hold a `Tracer*` that stays
// nullptr unless `--trace` is given; every instrumentation site is a
// single pointer test, with no allocation behind it.
//
// The flight recorder dumps the most recent events (the tail of the
// event log) to `<trace>.flight.json` when something goes wrong (audit
// violation, pathKill), giving post-mortem context.

#ifndef SRC_SIM_TRACE_H_
#define SRC_SIM_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/types.h"

namespace escort {

// Output locations. Tracing is on wherever a component holds a Tracer; the
// owner of the tracers writes the trace document (the sweep runner merges
// every cell into one file). The counter tracks are the metrics registry's
// series, appended once at the end of the run
// (MetricsRegistry::AppendCounterTracks).
struct TraceConfig {
  std::string path;  // the trace document; names the default flight dump

  // Flight recorder: events per dump and dump location (empty = derive
  // `path + ".flight.json"`; empty with an empty `path` = keep the dump
  // in memory only).
  size_t flight_capacity = 256;
  std::string flight_path;

  std::string ResolvedFlightPath() const {
    if (flight_path.empty() && !path.empty()) {
      return path + ".flight.json";
    }
    return flight_path;
  }
};

// Track name for an owner (paths, protection domains): the owner id is
// the stable identity, the name makes the Perfetto track readable.
std::string OwnerTrack(uint64_t owner_id, const std::string& owner_name);

class Tracer {
 public:
  // Argument list for an event: (key, pre-encoded JSON value). Encode
  // values with Str()/Num() so serialization stays byte-stable.
  using Args = std::vector<std::pair<std::string, std::string>>;

  explicit Tracer(TraceConfig config);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  const TraceConfig& config() const { return config_; }

  // JSON value encoders for Args.
  static std::string Str(const std::string& s);
  static std::string Num(uint64_t v);

  // Duration span on `track` (ph "B"). Spans on one track must nest.
  void BeginSpan(Cycles ts, const std::string& track, const std::string& name,
                 const char* category, Args args = {});
  // Closes the innermost open span on `track` (ph "E"). Ignored if the
  // track has no open span (e.g. the span began before tracing attached).
  void EndSpan(Cycles ts, const std::string& track);
  // Instant event (ph "I").
  void Instant(Cycles ts, const std::string& track, const std::string& name,
               const char* category, Args args = {});
  // Counter sample (ph "C"): `series` maps series name -> value. Written
  // only by MetricsRegistry::AppendCounterTracks, after Finalize.
  void Counter(Cycles ts, const std::string& name, Args series);

  // Closes every still-open span at `ts` so the output always balances.
  void Finalize(Cycles ts);

  // --- Flight recorder -------------------------------------------------
  // Serializes the last `flight_capacity` events (oldest first) plus
  // `reason` and writes them to ResolvedFlightPath(), unless that is
  // empty. Keeps the dump in memory for tests. Best effort on I/O failure.
  void DumpFlight(const std::string& reason, Cycles ts);
  uint64_t flight_dumps() const { return flight_dumps_; }
  const std::string& last_flight_dump() const { return last_flight_dump_; }

  // --- Serialization ---------------------------------------------------
  size_t event_count() const { return events_.size(); }
  // Comma-joined trace-event objects for one process (pid) of a merged
  // trace, preceded by process/thread metadata. No enclosing brackets.
  std::string SerializeEvents(uint32_t pid, const std::string& process_name) const;
  // Complete single-process trace document.
  std::string SerializeStandalone() const;

  // Wraps pre-serialized per-process fragments into one trace document
  // (the sweep runner merges per-cell tracers in grid order with this).
  static std::string WrapDocument(const std::vector<std::string>& fragments);
  static bool WriteFile(const std::string& path, const std::string& content);

  // All stderr diagnostics in src/ funnel through here (lint rule EL011):
  // keeping one choke point means a future consumer can redirect or
  // timestamp diagnostics without touching emission sites. Writes `text`
  // verbatim.
  static void Diag(const std::string& text);

 private:
  struct TraceEvent {
    char ph;
    Cycles ts;
    uint32_t tid;
    const char* category;
    std::string name;
    Args args;
  };

  // tid 0 is the process-wide pseudo-track (counters); named tracks get
  // ids from 1 in first-use order (deterministic — allocation follows
  // event order).
  uint32_t TrackId(const std::string& track);
  void Push(TraceEvent ev);
  static void AppendEvent(std::string* out, const TraceEvent& ev, uint32_t pid);

  TraceConfig config_;
  std::vector<TraceEvent> events_;
  std::vector<std::string> track_names_;          // index = tid - 1
  std::map<std::string, uint32_t> track_ids_;
  std::map<uint32_t, uint32_t> open_spans_;       // tid -> open-depth
  uint64_t flight_dumps_ = 0;
  std::string last_flight_dump_;
};

}  // namespace escort

#endif  // SRC_SIM_TRACE_H_
