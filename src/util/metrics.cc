#include "util/metrics.h"

#include <algorithm>
#include <cmath>

namespace pcr {

namespace {

constexpr int kSub = Histogram::kSubBits;
constexpr uint64_t kSubMask = (uint64_t{1} << kSub) - 1;

int BucketOf(uint64_t v) {
  if (v <= kSubMask) return static_cast<int>(v);
  const int msb = 63 - __builtin_clzll(v);
  if (msb >= Histogram::kMaxBits) return Histogram::kBuckets - 1;
  const int shift = msb - kSub;
  return ((shift + 1) << kSub) + static_cast<int>((v >> shift) & kSubMask);
}

/// Midpoint of the integers bucket `b` holds.
double BucketMid(int b) {
  if (b <= static_cast<int>(kSubMask)) return b;
  const int shift = (b >> kSub) - 1;
  const uint64_t lo = ((kSubMask + 1) + (static_cast<uint64_t>(b) & kSubMask))
                      << shift;
  return static_cast<double>(lo) +
         static_cast<double>((uint64_t{1} << shift) - 1) / 2.0;
}

}  // namespace

const MetricEntry* FindMetric(const std::vector<MetricEntry>& entries,
                              const std::string& name) {
  for (const MetricEntry& entry : entries) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

void Histogram::Record(int64_t value) {
  const uint64_t v = value > 0 ? static_cast<uint64_t>(value) : 0;
  buckets_[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(static_cast<int64_t>(v), std::memory_order_relaxed);
}

void Histogram::MergeFrom(const Histogram& other) {
  for (int b = 0; b < kBuckets; ++b) {
    const int64_t n = other.buckets_[b].load(std::memory_order_relaxed);
    if (n != 0) buckets_[b].fetch_add(n, std::memory_order_relaxed);
  }
  sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
}

int64_t Histogram::count() const {
  int64_t total = 0;
  for (const auto& bucket : buckets_) {
    total += bucket.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Mean() const {
  const int64_t n = count();
  return n > 0 ? static_cast<double>(sum_.load(std::memory_order_relaxed)) /
                     static_cast<double>(n)
               : 0.0;
}

double Histogram::Percentile(double p) const {
  const int64_t total = count();
  if (total == 0) return 0;
  const int64_t rank = static_cast<int64_t>(std::floor(
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(total - 1)));
  int64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[b].load(std::memory_order_relaxed);
    if (seen > rank) return BucketMid(b);
  }
  return BucketMid(kBuckets - 1);  // Samples recorded after the count.
}

Counter& MetricSet::AddCounter(std::string name, double scale) {
  metrics_.push_back({std::move(name), scale, std::make_unique<Counter>(),
                      nullptr});
  return *metrics_.back().counter;
}

Histogram& MetricSet::AddHistogram(std::string name, double scale) {
  metrics_.push_back({std::move(name), scale, nullptr,
                      std::make_unique<Histogram>()});
  return *metrics_.back().histogram;
}

std::vector<MetricEntry> MetricSet::Snapshot(const std::string& prefix) const {
  std::vector<MetricEntry> out;
  for (const Metric& m : metrics_) {
    const std::string name = prefix + m.name;
    if (m.counter != nullptr) {
      out.push_back({name, MetricKind::kCounter,
                     static_cast<double>(m.counter->value()) * m.scale});
      continue;
    }
    const Histogram& h = *m.histogram;
    const MetricKind kind = MetricKind::kHistogram;
    out.push_back({name + ".count", kind, static_cast<double>(h.count())});
    out.push_back({name + ".mean", kind, h.Mean() * m.scale});
    out.push_back({name + ".p50", kind, h.Percentile(50) * m.scale});
    out.push_back({name + ".p99", kind, h.Percentile(99) * m.scale});
  }
  return out;
}

}  // namespace pcr
