// Summary statistics the benchmark reports: medians, interpolated
// percentiles, and the rule for which tail percentile a run can afford.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Linear-interpolated percentile (p in [0, 100]) of `values`; 0 when empty
/// (pcr::SampleSet's interpolation).
double Percentile(const std::vector<double>& values, double p);

/// Percentile(values, 50).
double Median(const std::vector<double>& values);

/// Arithmetic mean; 0 when empty.
double Mean(const std::vector<double>& values);

/// Samples strictly above the interpolated p-th percentile of n samples:
/// the percentile sits at rank p/100 * (n - 1), so every sample ranked past
/// floor(rank) lies beyond it.
int64_t SamplesBeyond(int64_t n, double p);

/// The highest percentile in `ladder` (tried in the given order, highest
/// first) that has at least `min_beyond` samples beyond it among n samples;
/// 0 when none qualifies. A tail percentile with fewer samples beyond it is
/// one or two outliers, not a tail.
double HighestAffordablePercentile(int64_t n, const std::vector<double>& ladder,
                                   int64_t min_beyond = 10);

/// Median, the reported tail percentile, and how many samples they rest on.
struct LatencySummary {
  double p50 = 0;
  double p95 = 0;
  int64_t samples = 0;
};
LatencySummary SummarizeLatencies(const std::vector<double>& values);

/// One delivered batch: when (seconds) and how many images.
struct Completion {
  double at = 0;
  double images = 0;
};

/// A stretch between two completions and the images delivered in it.
struct Window {
  double start = 0;
  double end = 0;
  double images = 0;
};

/// Cuts the completions (any order) into about `target` consecutive windows
/// of an equal number of completions; a window runs from one completion to
/// the one `per_window` later and holds the images of the later ones. Rates
/// over completion-bounded windows have no counting granularity, and their
/// median shrugs off a stall or a noisy neighbour in one window. Empty when
/// there are fewer than two completions per window.
std::vector<Window> CompletionWindows(std::vector<Completion> completions,
                                      int target);

}  // namespace perfbench
