// Figure 18 + §A.5: reader microbenchmark. A PCR loader reading CelebAHQ
// images from a simulated 400 MB/s SSD:
//  (a) mean throughput per scan (bandwidth-bound: fewer bytes -> more img/s)
//  (b) predicted throughput from mean scan-size ratios (Theorem A.5)
//  (c) per-record batch times (latency spikes grow with scans)
// plus the §A.5 decode-overhead measurement using our real codec (paper:
// progressive decode costs ~40-50% over baseline).
#include <chrono>
#include <cstdio>

#include "bench_common.h"
#include "core/record_dataset.h"
#include "jpeg/codec.h"
#include "loader/decode_cache.h"
#include "loader/pipeline.h"
#include "storage/sim_env.h"
#include "util/stats.h"

using namespace pcr;
using namespace pcr::bench;

namespace {
double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

int main(int argc, char** argv) {
  pcr::bench::InitBench(argc, argv);
  printf("Figure 18 / §A.5: PCR reader microbenchmark on a simulated SATA "
         "SSD\n\n");
  const DatasetSpec spec = DatasetSpec::CelebAHqLike();
  DatasetHandle handle = GetDataset(spec, /*with_record_format=*/true);

  // Stage the datasets into a virtual-clock SSD.
  VirtualClock clock;
  SimEnv ssd(DeviceProfile::SataSsd(), &clock);
  PCR_CHECK(ssd.ImportTree(Env::Default(), handle.built.pcr_dir, "ssd/pcr").ok());
  PCR_CHECK(
      ssd.ImportTree(Env::Default(), handle.built.record_dir, "ssd/rec").ok());
  auto pcr = PcrDataset::Open(&ssd, "ssd/pcr").MoveValue();
  auto rec = RecordDataset::Open(&ssd, "ssd/rec").MoveValue();

  // (a)+(b): throughput per scan, measured on the simulated device vs
  // predicted by scaling the scan-10 rate with mean size ratios.
  TablePrinter table({"scan", "throughput (img/s)", "predicted (img/s)",
                      "mean batch time (ms)", "p95 batch time (ms)"});
  double scan10_rate = 0;
  std::vector<double> rates(11, 0.0);
  std::vector<SampleSet> batch_times(11);
  for (int g = 1; g <= 10; ++g) {
    int images = 0;
    const double t0 = clock.NowSeconds();
    for (int r = 0; r < pcr->num_records(); ++r) {
      const double b0 = clock.NowSeconds();
      auto batch = pcr->ReadRecord(r, g).MoveValue();
      batch_times[g].Add((clock.NowSeconds() - b0) * 1e3);
      images += batch.size();
    }
    rates[g] = images / (clock.NowSeconds() - t0);
  }
  scan10_rate = rates[10];
  const double mean10 = pcr->MeanImageBytes(10);
  for (int g = 1; g <= 10; ++g) {
    ReportMetric("group_" + std::to_string(g) + "/sim_images_per_sec",
                 pcr->num_images(), 0, pcr->MeanImageBytes(g), rates[g]);
  }
  for (int g = 1; g <= 10; ++g) {
    const double predicted = scan10_rate * mean10 / pcr->MeanImageBytes(g);
    table.AddRow({StrFormat("%d", g), StrFormat("%.0f", rates[g]),
                  StrFormat("%.0f", predicted),
                  StrFormat("%.2f", batch_times[g].Mean()),
                  StrFormat("%.2f", batch_times[g].Percentile(95))});
  }
  table.Print();

  // Baseline JPEG records for comparison (paper: within 4% of scan 10).
  {
    int images = 0;
    const double t0 = clock.NowSeconds();
    for (int r = 0; r < rec->num_records(); ++r) {
      images += rec->ReadRecord(r, 1).MoveValue().size();
    }
    const double rate = images / (clock.NowSeconds() - t0);
    printf("\nbaseline-JPEG records: %.0f img/s (%.1f%% of scan-10 rate; "
           "paper: within ~4%% — ours differ a bit more because per-scan "
           "optimized Huffman tables make our progressive files ~8-10%% "
           "smaller than baseline)\n",
           rate, 100.0 * rate / scan10_rate);
  }

  // §A.5 decode overhead: real wall-clock decode speed of our codec.
  {
    auto full = pcr->ReadRecord(0, 10).MoveValue();
    auto rec_batch = rec->ReadRecord(0, 1).MoveValue();
    const int n = full.size();
    double t0 = NowSec();
    for (int i = 0; i < rec_batch.size(); ++i) {
      jpeg::Decode(rec_batch.jpeg(i)).MoveValue();
    }
    const double baseline_rate = n / (NowSec() - t0);
    t0 = NowSec();
    for (int i = 0; i < full.size(); ++i) {
      jpeg::Decode(full.jpeg(i)).MoveValue();
    }
    const double progressive_rate = n / (NowSec() - t0);
    ReportMetric("decode/baseline_images_per_sec", n, n / baseline_rate, 0,
                 baseline_rate);
    ReportMetric("decode/progressive_images_per_sec", n,
                 n / progressive_rate, 0, progressive_rate);
    printf("\n§A.5 decode overhead (our codec, 1 core): baseline %.0f img/s, "
           "progressive(10 scans) %.0f img/s -> %.0f%% overhead.\n"
           "note: the paper measures 40-50%% with PIL/OpenCV (libjpeg's "
           "multi-pass progressive bookkeeping); our decoder accumulates "
           "coefficients in one buffer, so its overhead is lower. The "
           "pipeline simulator's DecodeCostModel is calibrated to the "
           "paper's numbers, not to this codec.\n",
           baseline_rate, progressive_rate,
           100.0 * (baseline_rate / progressive_rate - 1.0));
  }

  // Staged wall-clock pipeline: real fetch + parallel decode threads over
  // the on-disk PCR dataset, with per-stage busy time and stall attribution.
  // Wall-clock rates are noisy, so each point repeats 5x and reports the
  // median with the coefficient of variation alongside.
  {
    printf("\nstaged LoaderPipeline (wall clock, real filesystem): "
           "2 io x 4-deep submission windows + 4 decode threads, "
           "median of 5 reps\n");
    auto disk = PcrDataset::Open(Env::Default(), handle.built.pcr_dir)
                    .MoveValue();
    const int batches_to_pull =
        SmokeMode() ? std::min(6, disk->num_records())
                    : std::min(48, 2 * disk->num_records());
    const int reps = 5;
    TablePrinter stage_table({"scan", "img/s", "cv", "backend",
                              "syscalls/rec", "io busy (s)",
                              "decode busy (s)", "io util", "mean inflight",
                              "fetch p50 (ms)", "fetch p99 (ms)",
                              "stall io-bound (s)",
                              "stall decode-bound (s)"});
    for (int g : {1, 10}) {
      SampleSet rep_rates;
      StageStatsSnapshot io, decode;
      double io_stall = 0, decode_stall = 0;
      for (int rep = 0; rep < reps; ++rep) {
        LoaderPipelineOptions options;
        options.io_threads = 2;
        options.io_inflight = 4;
        options.decode_threads = 4;
        options.scan_policy = std::make_shared<FixedScanPolicy>(g);
        LoaderPipeline pipeline(disk.get(), options);
        int images = 0;
        const double t0 = NowSec();
        for (int b = 0; b < batches_to_pull; ++b) {
          auto batch = pipeline.Next();
          PCR_CHECK(batch.ok()) << batch.status();
          images += batch->size();
        }
        const double elapsed = NowSec() - t0;
        pipeline.Stop();
        rep_rates.Add(images / elapsed);
        io = pipeline.io_stats();
        decode = pipeline.decode_stats();
        io_stall = pipeline.io_stall_seconds();
        decode_stall = pipeline.decode_stall_seconds();
      }
      const double cv =
          rep_rates.Mean() > 0 ? rep_rates.Stddev() / rep_rates.Mean() : 0.0;
      ReportMetric("pipeline/group_" + std::to_string(g) + "/images_per_sec",
                   reps, 0, static_cast<double>(decode.bytes),
                   rep_rates.Median(), "items/s", io.syscalls_per_record());
      ReportMetric("pipeline/group_" + std::to_string(g) +
                       "/images_per_sec_cv",
                   reps, 0, 0, cv, "ratio");
      ReportMetric("pipeline/group_" + std::to_string(g) + "/fetch_p50_sec",
                   reps, 0, 0, io.fetch_p50_sec, "s");
      ReportMetric("pipeline/group_" + std::to_string(g) + "/fetch_p99_sec",
                   reps, 0, 0, io.fetch_p99_sec, "s");
      stage_table.AddRow(
          {StrFormat("%d", g), StrFormat("%.0f", rep_rates.Median()),
           StrFormat("%.3f", cv), io.io_backend,
           StrFormat("%.2f", io.syscalls_per_record()),
           StrFormat("%.3f", io.busy_seconds),
           StrFormat("%.3f", decode.busy_seconds),
           StrFormat("%.2f", io.utilization()),
           StrFormat("%.2f", io.mean_in_flight),
           StrFormat("%.3f", io.fetch_p50_sec * 1e3),
           StrFormat("%.3f", io.fetch_p99_sec * 1e3),
           StrFormat("%.3f", io_stall), StrFormat("%.3f", decode_stall)});
    }
    stage_table.Print();
    printf("on a local filesystem the decode stage dominates (io util is "
           "low); the simulated-SSD table above shows the bandwidth-bound "
           "regime the paper measures.\n");

    // Same pipeline with the decoded-record cache: pass 1 populates (all
    // misses), pass 2 is served from the cache — the multi-epoch regime
    // where every record short-circuits past both stages.
    printf("\nstaged LoaderPipeline + DecodeCache: cold (populate) vs warm "
           "pass\n");
    TablePrinter cache_table({"scan", "cold img/s", "warm img/s",
                              "warm hits", "warm decoded", "cache MB"});
    for (int g : {1, 10}) {
      DecodeCacheOptions cache_options;
      cache_options.capacity_bytes = 1ull << 30;
      auto cache = std::make_shared<DecodeCache>(cache_options);
      const uint64_t dataset_id = cache->RegisterDataset();
      double rates[2] = {0, 0};
      StageStatsSnapshot warm_io, warm_decode;
      for (int pass = 0; pass < 2; ++pass) {
        LoaderPipelineOptions options;
        options.io_threads = 2;
        options.decode_threads = 4;
        options.max_epochs = 1;
        options.scan_policy = std::make_shared<FixedScanPolicy>(g);
        options.decode_cache = cache;
        options.cache_dataset_id = dataset_id;
        LoaderPipeline pipeline(disk.get(), options);
        int images = 0;
        const double t0 = NowSec();
        for (;;) {
          auto batch = pipeline.Next();
          if (!batch.ok()) break;
          images += batch->size();
        }
        rates[pass] = images / (NowSec() - t0);
        if (pass == 1) {
          warm_io = pipeline.io_stats();
          warm_decode = pipeline.decode_stats();
        }
      }
      ReportMetric("pipeline/group_" + std::to_string(g) +
                       "/warm_cache_images_per_sec",
                   disk->num_images(), 0, 0, rates[1]);
      cache_table.AddRow(
          {StrFormat("%d", g), StrFormat("%.0f", rates[0]),
           StrFormat("%.0f", rates[1]),
           StrFormat("%lld", static_cast<long long>(warm_io.cache_hits)),
           StrFormat("%lld", static_cast<long long>(warm_decode.items)),
           StrFormat("%.1f", warm_io.cache_bytes / 1e6)});
    }
    cache_table.Print();
  }

  printf("\npaper checks: throughput inversely proportional to bytes/scan; "
         "prediction matches measurement; batch-time spikes grow with "
         "scans; baseline ~= scan 10.\n");
  return 0;
}
