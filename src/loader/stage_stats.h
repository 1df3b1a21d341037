// Per-stage counters for the staged loader pipeline, declared once each in
// a util/metrics.h registry. Workers of a stage record busy time (doing the
// stage's work), idle time (blocked on the upstream or downstream queue),
// items and bytes processed, and the I/O stage's storage, cache and fault
// counters, all with relaxed atomics so hot paths never serialize on stats.
// StageStatsSnapshot is the read-side view of one snapshot, filled by name.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "storage/env.h"
#include "util/metrics.h"

namespace pcr {

/// Read-side view of one stage, time in seconds.
struct StageStatsSnapshot {
  std::string name;
  int threads = 0;
  size_t queue_capacity = 0;  // The stage's output queue.
  double busy_seconds = 0;    // Summed across the stage's workers.
  double idle_seconds = 0;    // Blocked pushing/popping stage queues.
  int64_t items = 0;          // Records completed by the stage.
  uint64_t bytes = 0;         // Payload bytes through the stage.
  /// Decoded-record cache traffic (zero when the pipeline runs cacheless)
  /// and the cache's byte occupancy when the snapshot was taken.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  uint64_t cache_bytes = 0;

  /// Mean fetches a worker held in flight, and the per-worker window.
  double mean_in_flight = 0;
  int submission_window = 0;

  /// Totals over every IoScheduler the stage's workers opened; `io_backend`
  /// names the one actually serving reads ("uring", "threads", "sync", ...).
  std::string io_backend;
  int64_t io_requests = 0;  // Scatter-gather requests (one per fetch plan).
  int64_t io_segments = 0;  // Byte ranges across those requests.
  int64_t io_ops = 0;       // Kernel-visible ops (SQEs / preads).
  int64_t io_submits = 0;   // Submission boundaries (enters that submitted).
  int64_t io_syscalls = 0;  // Syscalls issued by the schedulers.
  /// Raw prefix-cache traffic: hits make quality upgrades delta reads.
  int64_t prefix_hits = 0;
  int64_t prefix_misses = 0;

  /// Degraded-mode signature: backend retries, replica failovers, hedged
  /// duplicates of slow fetches, and the hedges that finished first.
  int64_t io_retries = 0;
  int64_t failovers = 0;
  int64_t hedges = 0;
  int64_t hedge_wins = 0;

  /// Storage-fetch latency over the pipeline's life (0: nothing fetched).
  double fetch_p50_sec = 0;
  double fetch_p99_sec = 0;
  int64_t fetch_latency_samples = 0;

  /// Mean kernel-visible ops per submission boundary: ~1.0 means no
  /// batching (pread per op); >1 means the backend coalesced ops per call.
  double mean_submit_batch() const {
    return io_submits > 0 ? static_cast<double>(io_ops) /
                                static_cast<double>(io_submits)
                          : 0.0;
  }

  /// Scheduler syscalls per record fetched — the figure-of-merit the uring
  /// backend drives down versus the pread-per-segment thread backend.
  double syscalls_per_record() const {
    return items > 0 ? static_cast<double>(io_syscalls) /
                           static_cast<double>(items)
                     : 0.0;
  }

  /// busy / (busy + idle): 1.0 means the stage is the bottleneck.
  double utilization() const {
    const double total = busy_seconds + idle_seconds;
    return total > 0 ? busy_seconds / total : 0.0;
  }

  /// mean_in_flight / submission_window. Near 1.0 the window is the
  /// limiter; well under 1.0, tickets or queue space ran out first.
  double submission_occupancy() const {
    return submission_window > 0 ? mean_in_flight / submission_window : 0.0;
  }
};

/// One stage's metrics. The I/O stage uses all of them; the decode stage's
/// storage, cache and fault counters stay zero.
struct StageStats {
  MetricSet set;
  Counter& busy = set.AddCounter("busy_seconds", 1e-9);  // Nanoseconds.
  Counter& idle = set.AddCounter("idle_seconds", 1e-9);
  Counter& items = set.AddCounter("items");
  Counter& bytes = set.AddCounter("bytes");
  Counter& cache_hits = set.AddCounter("cache_hits");
  Counter& cache_misses = set.AddCounter("cache_misses");
  /// Decode-cache hits handed out by reference, and the bytes not copied.
  Counter& zero_copy_hits = set.AddCounter("zero_copy_hits");
  Counter& zero_copy_bytes = set.AddCounter("zero_copy_bytes");
  Counter& prefix_hits = set.AddCounter("prefix_hits");
  Counter& prefix_misses = set.AddCounter("prefix_misses");
  Counter& failovers = set.AddCounter("failovers");
  Counter& hedges = set.AddCounter("hedges");
  Counter& hedge_wins = set.AddCounter("hedge_wins");
  // Backend scheduler totals, folded in once per scheduler at worker exit.
  Counter& io_requests = set.AddCounter("io_requests");
  Counter& io_segments = set.AddCounter("io_segments");
  Counter& io_ops = set.AddCounter("io_ops");
  Counter& io_submits = set.AddCounter("io_submits");
  Counter& io_syscalls = set.AddCounter("io_syscalls");
  Counter& io_retries = set.AddCounter("io_retries");
  /// Fetches a worker held in flight, sampled at each submit and completion.
  Histogram& in_flight = set.AddHistogram("in_flight");
  /// Storage fetch submit -> completion, in nanoseconds.
  Histogram& fetch = set.AddHistogram("fetch_sec", 1e-9);

  void AddSchedulerStats(const IoSchedulerStats& io) {
    io_requests.Add(io.requests);
    io_segments.Add(io.segments);
    io_ops.Add(io.ops);
    io_submits.Add(io.submits);
    io_syscalls.Add(io.syscalls);
    io_retries.Add(io.retries);
  }

  /// The view, filled through its name table, plus the stage's shape.
  StageStatsSnapshot Snapshot(std::string name, int threads,
                              size_t queue_capacity) const {
    using S = StageStatsSnapshot;
    static const std::vector<ViewField<S>> kFields = {
        {"busy_seconds", &S::busy_seconds},
        {"idle_seconds", &S::idle_seconds},
        {"items", &S::items},
        {"bytes", &S::bytes},
        {"cache_hits", &S::cache_hits},
        {"cache_misses", &S::cache_misses},
        {"prefix_hits", &S::prefix_hits},
        {"prefix_misses", &S::prefix_misses},
        {"failovers", &S::failovers},
        {"hedges", &S::hedges},
        {"hedge_wins", &S::hedge_wins},
        {"io_requests", &S::io_requests},
        {"io_segments", &S::io_segments},
        {"io_ops", &S::io_ops},
        {"io_submits", &S::io_submits},
        {"io_syscalls", &S::io_syscalls},
        {"io_retries", &S::io_retries},
        {"in_flight.mean", &S::mean_in_flight},
        {"fetch_sec.p50", &S::fetch_p50_sec},
        {"fetch_sec.p99", &S::fetch_p99_sec},
        {"fetch_sec.count", &S::fetch_latency_samples},
    };
    StageStatsSnapshot view;
    FillView(set.Snapshot(), kFields, &view);
    view.name = std::move(name);
    view.threads = threads;
    view.queue_capacity = queue_capacity;
    return view;
  }
};

}  // namespace pcr
