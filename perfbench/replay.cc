#include "replay.h"

#include <map>
#include <optional>
#include <string>

#include "jpeg/codec.h"
#include "loader/data_loader.h"
#include "util/string_util.h"

namespace perfbench {

const char* DecodeSpanName(int scan_group) {
  // Span names are static strings; intern one per group.
  static std::map<int, std::string>* names = new std::map<int, std::string>();
  auto it = names->find(scan_group);
  if (it == names->end()) {
    it = names->emplace(scan_group, pcr::StrFormat("jpeg.decode.g%d",
                                                   scan_group))
             .first;
  }
  return it->second.c_str();
}

pcr::Result<ReplayResult> Replay(const ReplayConfig& config,
                                 const std::vector<ReplayRequest>& requests) {
  ReplayResult out;
  Tracer& tracer = out.tracer;
  std::unique_ptr<pcr::IoScheduler> scheduler =
      config.env->NewIoScheduler(pcr::IoSchedulerOptions{});
  pcr::jpeg::DecodeScratch scratch;
  const int64_t start = NowNanos();
  int64_t request_id = 0;
  for (const ReplayRequest& request : requests) {
    ++request_id;
    ++out.records;
    ScopedSpan root(&tracer, kSpanRecord, request_id);
    const pcr::DecodeCacheKey key{config.decode_cache_id, request.record,
                                  request.scan_group};
    const bool use_decode_cache =
        request.decode && config.decode_cache != nullptr;
    if (use_decode_cache) {
      ScopedSpan lookup(&tracer, kSpanCacheLookup, request_id, root.id());
      ++out.decode_lookups;
      if (config.decode_cache->Lookup(key) != nullptr) {
        ++out.decode_hits;
        continue;
      }
    }
    std::optional<pcr::FetchResident> resident;
    if (config.prefix_cache != nullptr) {
      ScopedSpan lookup(&tracer, kSpanCacheLookup, request_id, root.id());
      ++out.prefix_lookups;
      resident = config.prefix_cache->Lookup(config.prefix_cache_id,
                                             request.record);
      if (resident.has_value()) ++out.prefix_hits;
    }
    int span = tracer.Begin(kSpanPlan, request_id, root.id());
    pcr::Result<pcr::FetchPlan> plan = config.source->PlanFetch(
        request.record, request.scan_group,
        resident.has_value() ? &*resident : nullptr);
    tracer.End(span);
    if (!plan.ok()) return plan.status();
    std::string bytes;
    {
      ScopedSpan read(&tracer, kSpanRead, request_id, root.id());
      PCR_RETURN_IF_ERROR(scheduler->SubmitRead(plan->ToReadRequest()));
      PCR_ASSIGN_OR_RETURN(pcr::ReadCompletion done,
                           scheduler->WaitCompletion());
      PCR_RETURN_IF_ERROR(done.status);
      bytes = std::move(done.bytes);
    }
    if (!bytes.empty()) {
      ++out.fetches;
      out.bytes_fetched += bytes.size();
    }
    span = tracer.Begin(kSpanComplete, request_id, root.id());
    pcr::Result<pcr::RawRecord> raw =
        config.source->CompleteFetch(*plan, std::move(bytes));
    tracer.End(span);
    if (!raw.ok()) return raw.status();
    if (config.prefix_cache != nullptr && !raw->payload.empty() &&
        config.prefix_cache->Admits(raw->payload.size())) {
      ScopedSpan insert(&tracer, kSpanCacheInsert, request_id, root.id());
      config.prefix_cache->Insert(
          config.prefix_cache_id, request.record, raw->scan_group,
          std::make_shared<const std::string>(raw->payload));
    }
    const int group = raw->scan_group;
    span = tracer.Begin(kSpanAssemble, request_id, root.id());
    pcr::Result<pcr::RecordBatch> batch =
        config.source->AssembleRecord(std::move(raw).MoveValue());
    tracer.End(span);
    if (!batch.ok()) return batch.status();
    if (!request.decode) continue;
    pcr::LoadedBatch loaded;
    loaded.record_index = request.record;
    loaded.scan_group = group;
    loaded.bytes_read = batch->bytes_read;
    loaded.labels = batch->labels;
    loaded.images.reserve(batch->spans.size());
    const char* decode_span = DecodeSpanName(group);
    for (int i = 0; i < batch->size(); ++i) {
      ScopedSpan decode(&tracer, decode_span, request_id, root.id());
      PCR_ASSIGN_OR_RETURN(pcr::Image img,
                           pcr::jpeg::Decode(batch->jpeg(i), &scratch));
      loaded.images.push_back(std::move(img));
    }
    if (use_decode_cache) {
      // The pipeline populates the cache with a copy (the consumer keeps
      // the delivered batch), so the replay pays for one too.
      ScopedSpan insert(&tracer, kSpanCacheInsert, request_id, root.id());
      const pcr::DecodeCacheKey stored{config.decode_cache_id, request.record,
                                       group};
      if (config.decode_cache->Admits(
              stored, pcr::DecodeCache::BatchBytes(loaded))) {
        pcr::LoadedBatch copy = loaded;
        config.decode_cache->Insert(stored, std::move(copy));
      }
    }
  }
  out.wall_seconds = (NowNanos() - start) * 1e-9;
  return out;
}

}  // namespace perfbench
