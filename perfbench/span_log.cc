#include "span_log.h"

#include <cinttypes>
#include <cstdio>

namespace perfbench {

int SpanLog::Open(const char* name, int parent) {
  Span s;
  s.name = name;
  s.parent = parent;
  spans_.push_back(std::move(s));
  spans_.back().start_ns = NowNs();
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::Close(int id, uint64_t ops) {
  int64_t end = NowNs();
  Span& s = spans_[static_cast<size_t>(id)];
  s.end_ns = end;
  s.ops = ops;
}

std::string SpanLog::ToJson() const {
  std::string out = "[";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Span names are fixed identifiers from this program: no escaping.
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\": \"%s\", \"start_ns\": %" PRId64 ", \"end_ns\": %" PRId64
                  ", \"parent\": %d, \"ops\": %" PRIu64 "}",
                  i == 0 ? "" : ",", s.name.c_str(), s.start_ns, s.end_ns, s.parent, s.ops);
    out += buf;
  }
  out += "]";
  return out;
}

}  // namespace perfbench
