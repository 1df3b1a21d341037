#include "stats.h"

#include <algorithm>
#include <cmath>

#include "util/stats.h"

namespace perfbench {

double Percentile(const std::vector<double>& values, double p) {
  pcr::SampleSet set;
  for (const double v : values) set.Add(v);
  return set.Percentile(p);
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 50.0);
}

double Mean(const std::vector<double>& values) {
  pcr::SampleSet set;
  for (const double v : values) set.Add(v);
  return set.Mean();
}

int64_t SamplesBeyond(int64_t n, double p) {
  if (n <= 0) return 0;
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  return n - 1 - static_cast<int64_t>(std::floor(rank));
}

double HighestAffordablePercentile(int64_t n, const std::vector<double>& ladder,
                                   int64_t min_beyond) {
  for (const double p : ladder) {
    if (SamplesBeyond(n, p) >= min_beyond) return p;
  }
  return 0.0;
}

LatencySummary SummarizeLatencies(const std::vector<double>& values) {
  LatencySummary out;
  out.samples = static_cast<int64_t>(values.size());
  out.p50 = Percentile(values, 50.0);
  out.p95 = Percentile(values, 95.0);
  return out;
}

std::vector<Window> CompletionWindows(std::vector<Completion> completions,
                                      int target) {
  std::sort(completions.begin(), completions.end(),
            [](const Completion& a, const Completion& b) { return a.at < b.at; });
  std::vector<Window> windows;
  const size_t n = completions.size();
  const size_t per_window = std::max<size_t>(2, n / std::max(1, target));
  for (size_t first = 0; first + per_window < n; first += per_window) {
    Window w;
    w.start = completions[first].at;
    w.end = completions[first + per_window].at;
    for (size_t i = first + 1; i <= first + per_window; ++i) {
      w.images += completions[i].images;
    }
    windows.push_back(w);
  }
  return windows;
}

}  // namespace perfbench
