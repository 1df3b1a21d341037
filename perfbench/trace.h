// In-memory spans recorded around calls into the program's public API (the
// benchmark never traces inside src/). A span has a name, start and end, the
// request it belongs to, and the span that caused it. Spans stay in memory
// and are summarised when the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
int64_t NowNanos();
/// CPU time of the calling thread, nanoseconds.
int64_t ThreadCpuNanos();

struct Span {
  const char* name = "";  // Static string.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t request = 0;
  int parent = -1;  // Index of the causing span; -1 for a root.

  double seconds() const { return (end_ns - start_ns) * 1e-9; }
};

/// Single-threaded span log.
class Tracer {
 public:
  int Begin(const char* name, int64_t request, int parent = -1);
  void End(int id);
  /// Records an already finished span (known times; used by the tests).
  void Add(const char* name, int64_t start_ns, int64_t end_ns,
           int64_t request, int parent = -1);

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations in seconds of every span named `name`.
  std::vector<double> Durations(const std::string& name) const;

 private:
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t request,
             int parent = -1)
      : tracer_(tracer), id_(tracer->Begin(name, request, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// One row of the per-layer budget: a span name, its duration p50/p95 per
/// span, how many spans, their summed time, and that sum's share of `wall`.
struct LayerBudget {
  std::string name;
  double p50_us = 0;
  double p95_us = 0;
  int64_t count = 0;
  double total_seconds = 0;
  double share = 0;
};

/// Budget rows for every non-root span name, plus a "(glue)" row holding
/// the roots' self time — root duration not covered by its children.
std::vector<LayerBudget> Budget(const Tracer& tracer, double wall_seconds);

/// Share of the roots' summed duration that their child spans cover.
double Coverage(const Tracer& tracer);

}  // namespace perfbench
