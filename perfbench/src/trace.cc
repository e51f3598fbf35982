#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

double Tracer::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int64_t Tracer::Begin(const char* name, int64_t parent, uint64_t request) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.start = Now();
  otclean::MutexLock lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t id) {
  const double now = Now();
  otclean::MutexLock lock(mu_);
  spans_[static_cast<size_t>(id)].end = now;
}

std::vector<Span> Tracer::Spans() const {
  otclean::MutexLock lock(mu_);
  return spans_;
}

namespace {

/// The layer of a span name: the text before the first '.'.
std::string LayerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

TraceSummary Summarize(const std::vector<Span>& spans) {
  TraceSummary summary;
  std::vector<double> child_seconds(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_seconds[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
  }
  // A parent is always logged before its children.
  std::vector<size_t> root(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    root[i] = spans[i].parent < 0 ? i : root[static_cast<size_t>(spans[i].parent)];
  }
  std::map<std::string, double> self_total;
  summary.min_request_coverage = 1.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double duration = s.end - s.start;
    if (spans[root[i]].name == "request") {
      self_total[LayerOf(s.name)] += duration - child_seconds[i];
    }
    summary.durations[s.name].push_back(duration);
    if (s.name == "request") {
      ++summary.requests;
      const double coverage = duration > 0.0 ? child_seconds[i] / duration : 1.0;
      summary.min_request_coverage =
          std::min(summary.min_request_coverage, coverage);
    }
  }
  if (summary.requests == 0) summary.min_request_coverage = 0.0;
  for (const auto& [layer, seconds] : self_total) {
    summary.self_seconds_per_request[layer] =
        summary.requests > 0 ? seconds / static_cast<double>(summary.requests)
                             : 0.0;
  }
  return summary;
}

bool WriteTrace(const std::string& path, const std::string& stamp_json,
                const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"stamp\": %s,\n \"spans\": [\n", stamp_json.c_str());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                 "\"end\": %.9f, \"parent\": %lld, \"request\": %llu}%s\n",
                 i, s.name.c_str(), s.start, s.end,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, " ]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
