// Serial replay of the loader's per-record path, one public call per span:
//
//   DecodeCache::Lookup -> PrefixCache::Lookup -> RecordSource::PlanFetch ->
//   IoScheduler::SubmitRead + WaitCompletion -> CompleteFetch ->
//   PrefixCache::Insert -> AssembleRecord -> jpeg::Decode (per image) ->
//   DecodeCache::Insert
//
// The pipeline's and the daemon's worker threads are not reachable from
// outside src/, so the traced run replays the same records, scan groups,
// Env and cache configuration on one thread. That gives each layer's self
// time per record; the untraced run's io_stats()/decode_stats() give the
// same layers' busy time under concurrency.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/record_source.h"
#include "loader/decode_cache.h"
#include "loader/prefix_cache.h"
#include "trace.h"
#include "util/result.h"

namespace perfbench {

struct ReplayRequest {
  int record = 0;
  int scan_group = 0;
  bool decode = true;
};

struct ReplayConfig {
  pcr::RecordSource* source = nullptr;
  pcr::Env* env = nullptr;  // Opens the scheduler the reads go through.
  /// Caches as the workload configures them; null when it runs without.
  std::shared_ptr<pcr::DecodeCache> decode_cache;
  uint64_t decode_cache_id = 0;
  std::shared_ptr<pcr::PrefixCache> prefix_cache;
  uint64_t prefix_cache_id = 0;
};

struct ReplayResult {
  Tracer tracer;
  double wall_seconds = 0;
  int64_t records = 0;
  int64_t decode_lookups = 0;
  int64_t decode_hits = 0;
  int64_t prefix_lookups = 0;
  int64_t prefix_hits = 0;
  int64_t fetches = 0;
  uint64_t bytes_fetched = 0;
};

/// Span names.
inline constexpr const char* kSpanRecord = "replay.record";
inline constexpr const char* kSpanCacheLookup = "loader.cache_lookup";
inline constexpr const char* kSpanCacheInsert = "loader.cache_insert";
inline constexpr const char* kSpanPlan = "core.plan";
inline constexpr const char* kSpanRead = "storage.read";
inline constexpr const char* kSpanComplete = "core.complete";
inline constexpr const char* kSpanAssemble = "core.assemble";
/// Decode spans carry the scan group: "jpeg.decode.g<k>".
const char* DecodeSpanName(int scan_group);

pcr::Result<ReplayResult> Replay(const ReplayConfig& config,
                                 const std::vector<ReplayRequest>& requests);

}  // namespace perfbench
