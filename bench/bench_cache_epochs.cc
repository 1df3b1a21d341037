// Decoded-record cache over multi-epoch training: a cold pass populates the
// DecodeCache through the staged LoaderPipeline (every record fetched and
// decoded once), warm passes are served from the cache — no storage fetch,
// no JPEG decode, just a batch copy per record. On a cache-resident working
// set warm throughput is expected to be >= 5x cold (decode is the paper's
// CPU bottleneck; a copy is memcpy-speed).
//
// Wall-clock benches are noisy, so the cold/warm cycle repeats REPS times
// (fresh cache per repetition) and the gated metrics are medians with the
// coefficient of variation reported alongside — the CV is what sizes the
// regression-gate threshold for this bench.
//
// A second section sweeps the storage backends (PCR_FORCE_IO tiers that
// this kernel supports) over partial-quality reads and reports each tier's
// syscalls-per-record: the pread-per-segment threads backend sets the
// baseline the batched-vectored uring backend must beat by >= 4x.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "loader/decode_cache.h"
#include "loader/pipeline.h"
#include "storage/io_backend.h"
#include "util/stats.h"

using namespace pcr;
using namespace pcr::bench;

namespace {
double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Cv(const SampleSet& s) {
  return s.Mean() > 0 ? s.Stddev() / s.Mean() : 0.0;
}

struct PassResult {
  double rate = 0;
  StageStatsSnapshot io;
  StageStatsSnapshot decode;
};

PassResult RunPass(PcrDataset* disk, const LoaderPipelineOptions& options) {
  LoaderPipeline pipeline(disk, options);
  int images = 0;
  const double t0 = NowSec();
  for (;;) {
    auto batch = pipeline.Next();
    if (!batch.ok()) {
      PCR_CHECK(batch.status().code() == StatusCode::kOutOfRange)
          << batch.status();
      break;
    }
    images += batch->size();
  }
  PassResult result;
  result.rate = images / (NowSec() - t0);
  result.io = pipeline.io_stats();
  result.decode = pipeline.decode_stats();
  return result;
}
}  // namespace

int main(int argc, char** argv) {
  pcr::bench::InitBench(argc, argv);
  printf("Decoded-record cache: multi-epoch throughput on a cache-resident "
         "working set\n\n");
  const DatasetSpec spec = DatasetSpec::CelebAHqLike();
  DatasetHandle handle = GetDataset(spec);
  auto disk =
      PcrDataset::Open(Env::Default(), handle.built.pcr_dir).MoveValue();
  const int scan_group = disk->num_scan_groups();

  // Cold/warm cycles, >= 5 repetitions for a variance characterization.
  const int reps = 5;
  SampleSet cold_rates, warm_rates, speedups;
  StageStatsSnapshot last_cold_io, last_warm_io;
  int64_t last_warm_hits = 0, last_warm_decoded = 0;
  for (int rep = 0; rep < reps; ++rep) {
    DecodeCacheOptions cache_options;
    cache_options.capacity_bytes = 2ull << 30;  // Working set stays resident.
    cache_options.shards = 8;
    auto cache = std::make_shared<DecodeCache>(cache_options);
    const uint64_t dataset_id = cache->RegisterDataset();

    LoaderPipelineOptions options;
    options.io_threads = 2;
    options.decode_threads = 4;
    options.max_epochs = 1;
    options.scan_policy = std::make_shared<FixedScanPolicy>(scan_group);
    options.decode_cache = cache;
    options.cache_dataset_id = dataset_id;

    // One pipeline per pass; the shared cache is what survives — the same
    // shape as a training loop that rebuilds its loader every epoch.
    const PassResult cold = RunPass(disk.get(), options);
    const PassResult warm = RunPass(disk.get(), options);
    cold_rates.Add(cold.rate);
    warm_rates.Add(warm.rate);
    speedups.Add(warm.rate / cold.rate);
    last_cold_io = cold.io;
    last_warm_io = warm.io;
    last_warm_hits = warm.io.cache_hits;
    last_warm_decoded = warm.decode.items;
  }

  TablePrinter table({"pass", "img/s (median)", "cv", "io backend",
                      "syscalls/record", "fetched MB", "fetch p50 (ms)",
                      "fetch p99 (ms)"});
  table.AddRow({"cold", StrFormat("%.0f", cold_rates.Median()),
                StrFormat("%.3f", Cv(cold_rates)), last_cold_io.io_backend,
                StrFormat("%.2f", last_cold_io.syscalls_per_record()),
                StrFormat("%.2f", last_cold_io.bytes / 1e6),
                StrFormat("%.3f", last_cold_io.fetch_p50_sec * 1e3),
                StrFormat("%.3f", last_cold_io.fetch_p99_sec * 1e3)});
  table.AddRow({"warm", StrFormat("%.0f", warm_rates.Median()),
                StrFormat("%.3f", Cv(warm_rates)), last_warm_io.io_backend,
                StrFormat("%.2f", last_warm_io.syscalls_per_record()),
                StrFormat("%.2f", last_warm_io.bytes / 1e6),
                StrFormat("%.3f", last_warm_io.fetch_p50_sec * 1e3),
                StrFormat("%.3f", last_warm_io.fetch_p99_sec * 1e3)});
  table.Print();
  printf("warm pass: %lld cache hits, %lld records decoded\n",
         static_cast<long long>(last_warm_hits),
         static_cast<long long>(last_warm_decoded));

  ReportMetric("epoch_1/images_per_sec", reps, 0, last_cold_io.bytes,
               cold_rates.Median(), "items/s",
               last_cold_io.syscalls_per_record());
  ReportMetric("epoch_2/images_per_sec", reps, 0, last_warm_io.bytes,
               warm_rates.Median(), "items/s",
               last_warm_io.syscalls_per_record());
  ReportMetric("epoch_1/images_per_sec_cv", reps, 0, 0, Cv(cold_rates),
               "ratio");
  ReportMetric("epoch_2/images_per_sec_cv", reps, 0, 0, Cv(warm_rates),
               "ratio");
  // Storage-fetch service tail of the cold (fetching) pass; the warm pass is
  // cache-served, so its percentiles are zero by construction.
  ReportMetric("epoch_1/fetch_p50_sec", reps, 0, 0,
               last_cold_io.fetch_p50_sec, "s");
  ReportMetric("epoch_1/fetch_p99_sec", reps, 0, 0,
               last_cold_io.fetch_p99_sec, "s");
  const double speedup = speedups.Median();
  ReportMetric("epoch2_vs_epoch1_speedup", reps, 0, 0, speedup, "x");
  ReportMetric("epoch2_vs_epoch1_speedup_cv", reps, 0, 0, Cv(speedups),
               "ratio");
  printf("\nwarm vs cold speedup: median %.1fx over %d reps (cv %.3f; "
         "expected >= 5x: warm passes skip both the storage fetch and the "
         "JPEG decode)\n",
         speedup, reps, Cv(speedups));
  if (speedup < 5.0) {
    printf("WARNING: speedup below the 5x bar for a cache-resident working "
           "set\n");
  }

  // Backend sweep: partial-quality reads (the scatter-gather regime: header
  // + group-range segments per record) through each storage backend this
  // kernel supports. The threads backend deliberately spends one pread per
  // segment; uring coalesces adjacent segments into vectored SQEs and
  // batches submission, so its syscalls-per-record must be >= 4x lower.
  printf("\nstorage backend sweep: partial reads (scan group 2), "
         "8-deep windows, submit batch 8\n");
  std::vector<IoBackend> backends = {IoBackend::kSync, IoBackend::kThreads};
  if (UringIoSupported()) backends.push_back(IoBackend::kUring);
  TablePrinter backend_table({"backend", "img/s (median)", "cv",
                              "syscalls/record", "mean submit batch"});
  for (const IoBackend backend : backends) {
    LoaderPipelineOptions options;
    options.io_threads = 2;
    options.io_inflight = 8;
    options.io_submit_batch = 8;
    options.decode = false;  // I/O-side comparison; decode only adds noise.
    // Enough tickets per worker that batched submission can amortize even
    // on the shrunk smoke dataset (2 records would flush every batch at
    // end-of-stream otherwise).
    options.max_epochs = SmokeMode() ? 32 : 1;
    options.scan_policy = std::make_shared<FixedScanPolicy>(2);
    options.io_backend = backend;
    SampleSet backend_rates;
    StageStatsSnapshot io;
    for (int rep = 0; rep < reps; ++rep) {
      const PassResult pass = RunPass(disk.get(), options);
      backend_rates.Add(pass.rate);
      io = pass.io;
    }
    const std::string name = IoBackendName(backend);
    backend_table.AddRow({io.io_backend,
                          StrFormat("%.0f", backend_rates.Median()),
                          StrFormat("%.3f", Cv(backend_rates)),
                          StrFormat("%.2f", io.syscalls_per_record()),
                          StrFormat("%.2f", io.mean_submit_batch())});
    ReportMetric("backend_" + name + "/images_per_sec", reps, 0, io.bytes,
                 backend_rates.Median(), "items/s", io.syscalls_per_record());
    ReportMetric("backend_" + name + "/syscalls_per_record", reps, 0, 0,
                 io.syscalls_per_record(), "syscalls/record");
  }
  backend_table.Print();
  if (!UringIoSupported()) {
    printf("uring tier skipped: kernel does not support io_uring\n");
  }
  return 0;
}
