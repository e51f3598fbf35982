#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace perfbench {

/// One timed call into a library layer. The layer is the part of `name`
/// before the first '.' ("dataset.parse" belongs to "dataset"); root spans
/// ("request", "check", "replay") belong to the benchmark itself.
struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the tracer was made
  double end = 0.0;
  int64_t parent = -1;  ///< index of the enclosing span, -1 for a root
  uint64_t request = 0;
};

/// In-memory span log of the traced run. Spans are only appended, so an
/// index stays valid; the log is written once, at exit. Thread-safe.
class Tracer {
 public:
  int64_t Begin(const char* name, int64_t parent, uint64_t request)
      OTCLEAN_EXCLUDES(mu_);
  void End(int64_t id) OTCLEAN_EXCLUDES(mu_);
  std::vector<Span> Spans() const OTCLEAN_EXCLUDES(mu_);

 private:
  double Now() const;

  const std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  mutable otclean::Mutex mu_;
  std::vector<Span> spans_ OTCLEAN_GUARDED_BY(mu_);
};

/// Times one call when `tracer` is non-null; costs one branch otherwise.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t parent,
             uint64_t request)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, parent, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// What a span log says about the layers.
struct TraceSummary {
  /// Self time (duration minus the children's durations) per layer within
  /// the "request" spans, in seconds, divided by their number.
  std::map<std::string, double> self_seconds_per_request;
  /// Durations of the spans with each name, in log order.
  std::map<std::string, std::vector<double>> durations;
  /// Smallest share of a "request" span that its direct children cover.
  double min_request_coverage = 0.0;
  size_t requests = 0;
};

TraceSummary Summarize(const std::vector<Span>& spans);

/// Writes the spans as one JSON object with `stamp_json` (an object) under
/// "stamp". Returns false when the file cannot be written.
bool WriteTrace(const std::string& path, const std::string& stamp_json,
                const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
