#include "src/sim/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace escort {

namespace {

// The header block shared by full traces and flight dumps. ts values are
// sim-cycles; Perfetto displays them as microseconds, which at 300 MHz
// reads as "cycles / 1e6" on the ruler — close enough for navigation,
// and exact values are in the event itself.
void AppendDocumentHead(std::string* out) {
  *out += "{\n";
  *out += "\"displayTimeUnit\": \"ms\",\n";
  *out += "\"otherData\": {\"clock\": \"sim-cycles\", \"cpu_hz\": ";
  *out += Tracer::Num(kCpuHz);
  *out += "},\n";
}

void AppendArgs(std::string* out, const Tracer::Args& args) {
  *out += "\"args\":{";
  bool first = true;
  for (const auto& [key, value] : args) {
    if (!first) {
      *out += ",";
    }
    first = false;
    *out += Tracer::Str(key);
    *out += ":";
    *out += value;
  }
  *out += "}";
}

void AppendMetadata(std::string* out, uint32_t pid, uint32_t tid, const char* what,
                    const std::string& name) {
  *out += "{\"name\":\"";
  *out += what;
  *out += "\",\"ph\":\"M\",\"ts\":0,\"pid\":";
  *out += Tracer::Num(pid);
  *out += ",\"tid\":";
  *out += Tracer::Num(tid);
  *out += ",";
  AppendArgs(out, {{"name", Tracer::Str(name)}});
  *out += "}";
}

}  // namespace

std::string OwnerTrack(uint64_t owner_id, const std::string& owner_name) {
  return "owner " + std::to_string(owner_id) + " (" + owner_name + ")";
}

Tracer::Tracer(TraceConfig config) : config_(std::move(config)) {}

std::string Tracer::Str(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string Tracer::Num(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return buf;
}

uint32_t Tracer::TrackId(const std::string& track) {
  auto it = track_ids_.find(track);
  if (it != track_ids_.end()) {
    return it->second;
  }
  track_names_.push_back(track);
  uint32_t tid = static_cast<uint32_t>(track_names_.size());  // tids from 1
  track_ids_.emplace(track, tid);
  return tid;
}

void Tracer::Push(TraceEvent ev) { events_.push_back(std::move(ev)); }

void Tracer::BeginSpan(Cycles ts, const std::string& track, const std::string& name,
                       const char* category, Args args) {
  uint32_t tid = TrackId(track);
  open_spans_[tid] += 1;
  Push(TraceEvent{'B', ts, tid, category, name, std::move(args)});
}

void Tracer::EndSpan(Cycles ts, const std::string& track) {
  uint32_t tid = TrackId(track);
  auto it = open_spans_.find(tid);
  if (it == open_spans_.end() || it->second == 0) {
    return;  // span began before tracing attached; keep the output balanced
  }
  it->second -= 1;
  Push(TraceEvent{'E', ts, tid, "", "", {}});
}

void Tracer::Instant(Cycles ts, const std::string& track, const std::string& name,
                     const char* category, Args args) {
  Push(TraceEvent{'I', ts, TrackId(track), category, name, std::move(args)});
}

void Tracer::Counter(Cycles ts, const std::string& name, Args series) {
  Push(TraceEvent{'C', ts, 0, "counter", name, std::move(series)});
}

void Tracer::Finalize(Cycles ts) {
  // Close inner spans before outer ones? Depth per track suffices: emit
  // one E per open level, per track in tid order (deterministic).
  for (auto& [tid, depth] : open_spans_) {
    while (depth > 0) {
      depth -= 1;
      Push(TraceEvent{'E', ts, tid, "", "", {}});
    }
  }
}

void Tracer::AppendEvent(std::string* out, const TraceEvent& ev, uint32_t pid) {
  *out += "{\"ph\":\"";
  *out += ev.ph;
  *out += "\",\"ts\":";
  *out += Num(ev.ts);
  *out += ",\"pid\":";
  *out += Num(pid);
  *out += ",\"tid\":";
  *out += Num(ev.tid);
  if (ev.ph != 'E') {
    *out += ",\"cat\":";
    *out += Str(ev.category);
    *out += ",\"name\":";
    *out += Str(ev.name);
    *out += ",";
    AppendArgs(out, ev.args);
  }
  *out += "}";
}

std::string Tracer::SerializeEvents(uint32_t pid, const std::string& process_name) const {
  std::string out;
  AppendMetadata(&out, pid, 0, "process_name", process_name);
  for (size_t i = 0; i < track_names_.size(); ++i) {
    out += ",\n";
    AppendMetadata(&out, pid, static_cast<uint32_t>(i + 1), "thread_name", track_names_[i]);
  }
  for (const TraceEvent& ev : events_) {
    out += ",\n";
    AppendEvent(&out, ev, pid);
  }
  return out;
}

std::string Tracer::WrapDocument(const std::vector<std::string>& fragments) {
  std::string out;
  AppendDocumentHead(&out);
  out += "\"traceEvents\": [\n";
  bool first = true;
  for (const std::string& frag : fragments) {
    if (frag.empty()) {
      continue;
    }
    if (!first) {
      out += ",\n";
    }
    first = false;
    out += frag;
  }
  out += "\n]}\n";
  return out;
}

std::string Tracer::SerializeStandalone() const {
  return WrapDocument({SerializeEvents(0, "escort")});
}

bool Tracer::WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  size_t written = std::fwrite(content.data(), 1, content.size(), f);
  int rc = std::fclose(f);
  return written == content.size() && rc == 0;
}

void Tracer::DumpFlight(const std::string& reason, Cycles ts) {
  // The flight window is the tail of the event log.
  const size_t depth = std::min(events_.size(), config_.flight_capacity);
  std::string out;
  AppendDocumentHead(&out);
  out += "\"flight\": {\"reason\": ";
  out += Str(reason);
  out += ", \"ts\": ";
  out += Num(ts);
  out += ", \"depth\": ";
  out += Num(depth);
  out += "},\n";
  out += "\"traceEvents\": [\n";
  AppendMetadata(&out, 0, 0, "process_name", "escort flight recorder");
  for (size_t i = 0; i < track_names_.size(); ++i) {
    out += ",\n";
    AppendMetadata(&out, 0, static_cast<uint32_t>(i + 1), "thread_name", track_names_[i]);
  }
  for (size_t i = events_.size() - depth; i < events_.size(); ++i) {
    out += ",\n";
    AppendEvent(&out, events_[i], 0);
  }
  // The window may cut a span's B while keeping its E, so mark the
  // document as a partial window.
  out += "\n],\n\"partial\": true}\n";

  ++flight_dumps_;
  last_flight_dump_ = std::move(out);
  const std::string path = config_.ResolvedFlightPath();
  if (!path.empty()) {
    WriteFile(path, last_flight_dump_);
  }
}

void Tracer::Diag(const std::string& text) {
  std::fwrite(text.data(), 1, text.size(), stderr);
  std::fflush(stderr);
}

}  // namespace escort
