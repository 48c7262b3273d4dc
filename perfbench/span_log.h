// In-memory span log for the traced benchmark run.
//
// A span is (name, start, end, parent, ops): the host-time interval of one
// call, or batch of `ops` calls, from the benchmark into a layer's public
// functions. Spans are only appended while the run executes and are
// serialized once it ends, so recording costs two clock reads and one
// vector append per span.

#ifndef PERFBENCH_SPAN_LOG_H_
#define PERFBENCH_SPAN_LOG_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = -1;  // -1 while open
  int parent = -1;      // index into SpanLog::spans(), -1 for a root
  uint64_t ops = 0;     // calls timed inside the span (0: not a batch)
};

class SpanLog {
 public:
  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  // Opens a span and returns its index. The start time is read last, so
  // the append is not inside the interval.
  int Open(const char* name, int parent);
  // Closes span `id`; the end time is read first.
  void Close(int id, uint64_t ops = 0);

  const std::vector<Span>& spans() const { return spans_; }
  // JSON array of every span, in open order.
  std::string ToJson() const;

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

// RAII span; a null log records nothing (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int parent)
      : log_(log), id_(log != nullptr ? log->Open(name, parent) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->Close(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_LOG_H_
