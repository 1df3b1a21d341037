// Named metrics that each layer declares once. A layer registers its
// counters and histograms in a MetricSet when it is built, writes them with
// relaxed atomics on its hot paths, and reads them back as a list of
// (name, kind, value) entries. Anything that moves metrics — the serving
// daemon's Stats reply, a bench printer — handles that list generically, so
// a new metric needs only its registration line.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace pcr {

enum class MetricKind : uint8_t {
  kCounter = 1,    // Monotonic total.
  kGauge = 2,      // Point-in-time level, set by whoever takes the snapshot.
  kHistogram = 3,  // A statistic (count, mean, p50, p99) of a Histogram.
};

struct MetricEntry {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0;

  bool operator==(const MetricEntry& other) const {
    return name == other.name && kind == other.kind && value == other.value;
  }
};

/// The entry called `name`, or null.
const MetricEntry* FindMetric(const std::vector<MetricEntry>& entries,
                              const std::string& name);

/// Relaxed-atomic monotonic counter.
class Counter {
 public:
  void Add(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Lock-free histogram of non-negative integers over fixed log-linear
/// buckets: values below 16 get a bucket each, and every power-of-two range
/// above is split into 16 equal buckets, up to 2^44 (values beyond land in
/// the top bucket). A percentile reports its bucket's midpoint, which lies
/// within 1/32 (3.1%) of every value in the bucket. Recording is two
/// relaxed fetch_adds; a percentile walks the buckets. Percentiles are
/// cumulative over the histogram's life.
class Histogram {
 public:
  static constexpr int kSubBits = 4;
  static constexpr int kMaxBits = 44;
  static constexpr int kBuckets = (kMaxBits - kSubBits + 1) << kSubBits;

  /// Negative values count as 0.
  void Record(int64_t value);
  /// Adds every sample `other` has recorded.
  void MergeFrom(const Histogram& other);

  int64_t count() const;
  /// Mean of the recorded values; 0 when empty.
  double Mean() const;
  /// Midpoint of the bucket holding the sample of rank
  /// floor(p/100 * (count-1)), p in [0, 100]; 0 when empty.
  double Percentile(double p) const;

 private:
  std::atomic<int64_t> buckets_[kBuckets] = {};
  std::atomic<int64_t> sum_{0};
};

/// A layer's registry. Registration happens while the owner is built, before
/// any other thread records; afterwards recording and Snapshot() are safe
/// from any thread. Metrics live as long as the set.
class MetricSet {
 public:
  /// `scale` converts recorded units to reported ones (1e-9 records
  /// nanoseconds and reports seconds).
  Counter& AddCounter(std::string name, double scale = 1.0);
  /// Reports as "<name>.count", "<name>.mean", "<name>.p50" and
  /// "<name>.p99"; `scale` applies to all but the count.
  Histogram& AddHistogram(std::string name, double scale = 1.0);

  /// Every metric in registration order, each name prefixed by `prefix`.
  std::vector<MetricEntry> Snapshot(const std::string& prefix = "") const;

 private:
  struct Metric {
    std::string name;
    double scale = 1.0;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Histogram> histogram;
  };
  std::vector<Metric> metrics_;
};

/// One row of a read-side view's name table: the entry `name` fills the
/// view's `field`, converted to the field's type.
template <typename View>
struct ViewField {
  template <typename T>
  ViewField(const char* n, T View::*field)
      : name(n), set([field](View* v, double x) { v->*field = T(x); }) {}

  const char* name;
  std::function<void(View*, double)> set;
};

/// Copies the entries a view names into its fields; fields without an entry
/// keep their values.
template <typename View>
void FillView(const std::vector<MetricEntry>& entries,
              const std::vector<ViewField<View>>& table, View* view) {
  for (const ViewField<View>& field : table) {
    const MetricEntry* entry = FindMetric(entries, field.name);
    if (entry != nullptr) field.set(view, entry->value);
  }
}

}  // namespace pcr
