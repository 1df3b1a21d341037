#include "trace.h"

#include <time.h>

#include <chrono>
#include <map>

#include "stats.h"

namespace perfbench {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ThreadCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int Tracer::Begin(const char* name, int64_t request, int parent) {
  spans_.push_back(Span{name, NowNanos(), 0, request, parent});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int id) { spans_[id].end_ns = NowNanos(); }

void Tracer::Add(const char* name, int64_t start_ns, int64_t end_ns,
                 int64_t request, int parent) {
  spans_.push_back(Span{name, start_ns, end_ns, request, parent});
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) out.push_back(span.seconds());
  }
  return out;
}

std::vector<LayerBudget> Budget(const Tracer& tracer, double wall_seconds) {
  const std::vector<Span>& spans = tracer.spans();
  std::map<std::string, std::vector<double>> by_name;
  std::vector<double> root_self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0) root_self[i] += spans[i].seconds();
  }
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    by_name[span.name].push_back(span.seconds());
    if (spans[span.parent].parent < 0) {
      root_self[span.parent] -= span.seconds();
    }
  }
  std::vector<double> glue;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0) glue.push_back(root_self[i]);
  }
  by_name["(glue)"] = glue;
  std::vector<LayerBudget> rows;
  for (const auto& [name, durations] : by_name) {
    LayerBudget row;
    row.name = name;
    row.p50_us = Percentile(durations, 50.0) * 1e6;
    row.p95_us = Percentile(durations, 95.0) * 1e6;
    row.count = static_cast<int64_t>(durations.size());
    for (const double d : durations) row.total_seconds += d;
    row.share = wall_seconds > 0 ? row.total_seconds / wall_seconds : 0.0;
    rows.push_back(row);
  }
  return rows;
}

double Coverage(const Tracer& tracer) {
  const std::vector<Span>& spans = tracer.spans();
  double roots = 0;
  double covered = 0;
  for (const Span& span : spans) {
    if (span.parent < 0) {
      roots += span.seconds();
    } else if (spans[span.parent].parent < 0) {
      covered += span.seconds();
    }
  }
  return roots > 0 ? covered / roots : 0.0;
}

}  // namespace perfbench
