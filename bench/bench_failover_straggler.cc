// Fault-tolerant read path under degraded storage: the two numbers the
// regression gate holds this subsystem to.
//
//  (1) Healthy-path overhead: a ReplicatedRecordSource over two clean
//      replicas must not tax throughput versus a plain single-replica
//      source — replication bookkeeping (rotation, health scoring, plan
//      alternates) rides along for free when nothing fails. Gated at
//      replicated >= 0.95x plain within one run.
//  (2) Hedged-read tail cut: with one replica stalling a deterministic
//      fraction of its reads (a straggler device), hedging a slow fetch to
//      the healthy replica must cut the fetch p99 by >= 2x versus running
//      the same schedule unhedged. The straggler is a seeded
//      FaultInjectionEnv schedule, so every repetition (and every CI run)
//      races the identical fault sequence.
//
// Both sections run the real wall-clock LoaderPipeline over SimEnv replicas
// on a RealClock — per-op device latency makes fetch service times
// millisecond-scale so percentiles are meaningful, while keeping the whole
// bench sub-second. Medians over REPS repetitions absorb scheduler noise;
// the stall magnitude (20 ms vs ~1 ms service) dominates the p99 either
// way, which is what makes a 2x floor safe to gate.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/pcr_dataset.h"
#include "core/replicated_record_source.h"
#include "data/dataset_spec.h"
#include "jpeg/codec.h"
#include "loader/pipeline.h"
#include "storage/fault_env.h"
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

/// A fast storage device with a visible per-request setup cost: fetch
/// service time ~1 ms, so a 20 ms injected stall is a 20x outlier.
DeviceProfile StragglerProneSsd() {
  DeviceProfile profile;
  profile.name = "bench-ssd";
  profile.read_bandwidth_bytes_per_sec = 2.0 * (1 << 30);
  profile.write_bandwidth_bytes_per_sec = 2.0 * (1 << 30);
  profile.per_op_latency_sec = 1e-3;
  return profile;
}

/// Builds one PCR replica in env:dir. Identical arguments produce
/// byte-identical datasets — the replica invariant ReplicatedRecordSource
/// validates at Create.
std::unique_ptr<PcrDataset> BuildReplica(Env* env, const std::string& dir,
                                         int num_images,
                                         int images_per_record) {
  DatasetSpec spec = DatasetSpec::TestTiny();
  spec.base_width = 40;
  spec.base_height = 32;
  spec.size_jitter = 0;
  PcrWriterOptions options;
  options.images_per_record = images_per_record;
  auto writer = PcrDatasetWriter::Create(env, dir, options).MoveValue();
  for (int i = 0; i < num_images; ++i) {
    const Image img = GenerateImage(spec, i % 3, static_cast<uint64_t>(i));
    jpeg::EncodeOptions encode;
    encode.quality = 85;
    const std::string jpeg = jpeg::Encode(img, encode).MoveValue();
    PCR_CHECK(writer->AddImage(Slice(jpeg), i).ok());
  }
  PCR_CHECK(writer->Finish().ok());
  return PcrDataset::Open(env, dir).MoveValue();
}

struct RunResult {
  double rate = 0;
  StageStatsSnapshot io;
};

/// Streams `epochs` full epochs through a fetch-only pipeline (decode off:
/// this bench measures the storage path, decode would only add noise).
RunResult RunEpochs(RecordSource* source, int epochs, bool hedged) {
  LoaderPipelineOptions options;
  options.io_threads = 2;
  options.io_inflight = 4;
  options.decode_threads = 2;
  options.decode = false;
  options.max_epochs = epochs;
  options.hedged_reads = hedged;
  LoaderPipeline pipeline(source, options);
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
  RunResult result;
  result.rate = images / (NowSec() - t0);
  result.io = pipeline.io_stats();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  pcr::bench::InitBench(argc, argv);
  printf("Replicated read path: healthy-path overhead and hedged-read tail "
         "latency under a deterministic straggler\n\n");

  const int num_images = 48;
  const int images_per_record = 2;
  const int epochs = SmokeMode() ? 8 : 20;
  const int reps = 3;

  // ---- (1) Healthy path: replicated 2x vs a plain single source. --------
  {
    SimEnv plain_env(StragglerProneSsd(), RealClock::Get());
    SimEnv env_a(StragglerProneSsd(), RealClock::Get());
    SimEnv env_b(StragglerProneSsd(), RealClock::Get());
    auto plain = BuildReplica(&plain_env, "d", num_images, images_per_record);
    std::vector<std::unique_ptr<RecordSource>> replicas;
    replicas.push_back(BuildReplica(&env_a, "d", num_images,
                                    images_per_record));
    replicas.push_back(BuildReplica(&env_b, "d", num_images,
                                    images_per_record));
    auto replicated =
        ReplicatedRecordSource::Create(std::move(replicas)).MoveValue();

    SampleSet plain_rates, replicated_rates;
    StageStatsSnapshot replicated_io;
    for (int rep = 0; rep < reps; ++rep) {
      plain_rates.Add(RunEpochs(plain.get(), epochs, /*hedged=*/true).rate);
      const RunResult r = RunEpochs(replicated.get(), epochs,
                                    /*hedged=*/true);
      replicated_rates.Add(r.rate);
      replicated_io = r.io;
    }
    const double ratio = plain_rates.Median() > 0
                             ? replicated_rates.Median() / plain_rates.Median()
                             : 0.0;
    TablePrinter table({"source", "img/s (median)", "fetch p50 (ms)",
                        "fetch p99 (ms)", "failovers", "hedges"});
    table.AddRow({"plain", StrFormat("%.0f", plain_rates.Median()), "-", "-",
                  "-", "-"});
    table.AddRow({"replicated 2x",
                  StrFormat("%.0f", replicated_rates.Median()),
                  StrFormat("%.3f", replicated_io.fetch_p50_sec * 1e3),
                  StrFormat("%.3f", replicated_io.fetch_p99_sec * 1e3),
                  StrFormat("%lld",
                            static_cast<long long>(replicated_io.failovers)),
                  StrFormat("%lld",
                            static_cast<long long>(replicated_io.hedges))});
    table.Print();
    printf("replicated/plain throughput ratio: %.2f (gated >= 0.95: health "
           "scoring and plan alternates must be free when nothing fails; "
           "rotation over two devices typically lands above 1)\n\n",
           ratio);
    ReportMetric("healthy/plain_images_per_sec", reps, 0, 0,
                 plain_rates.Median());
    ReportMetric("healthy/replicated_images_per_sec", reps, 0, 0,
                 replicated_rates.Median());
  }

  // ---- (2) Straggler: one replica stalls every 20th read by 20 ms. ------
  {
    SimEnv straggler_base(StragglerProneSsd(), RealClock::Get());
    SimEnv healthy_env(StragglerProneSsd(), RealClock::Get());
    // Build replica 0's files, then reopen them through the fault wrapper so
    // its fetch plans carry the straggler schedule.
    BuildReplica(&straggler_base, "d", num_images, images_per_record);

    FaultRule stall;
    stall.path_substring = ".pcr";  // Record payloads only, not metadata.
    stall.fail_every_n = 20;
    stall.code = StatusCode::kOk;  // Latency-only: a straggler, not a fault.
    stall.added_latency_sec = 0.02;
    FaultInjectionEnv straggler_env(&straggler_base, {stall}, /*seed=*/1234);
    auto straggler = PcrDataset::Open(&straggler_env, "d").MoveValue();

    std::vector<std::unique_ptr<RecordSource>> replicas;
    replicas.push_back(std::move(straggler));
    replicas.push_back(
        BuildReplica(&healthy_env, "d", num_images, images_per_record));
    auto source =
        ReplicatedRecordSource::Create(std::move(replicas)).MoveValue();

    SampleSet unhedged_p99, hedged_p99, unhedged_p50, hedged_p50;
    int64_t hedges = 0, hedge_wins = 0;
    for (int rep = 0; rep < reps; ++rep) {
      // Each repetition replays the identical fault sequence.
      straggler_env.ResetSchedule();
      const RunResult unhedged = RunEpochs(source.get(), epochs,
                                           /*hedged=*/false);
      unhedged_p50.Add(unhedged.io.fetch_p50_sec);
      unhedged_p99.Add(unhedged.io.fetch_p99_sec);

      straggler_env.ResetSchedule();
      const RunResult hedged = RunEpochs(source.get(), epochs,
                                         /*hedged=*/true);
      hedged_p50.Add(hedged.io.fetch_p50_sec);
      hedged_p99.Add(hedged.io.fetch_p99_sec);
      hedges = hedged.io.hedges;
      hedge_wins = hedged.io.hedge_wins;
    }
    const double improvement = hedged_p99.Median() > 0
                                   ? unhedged_p99.Median() / hedged_p99.Median()
                                   : 0.0;
    TablePrinter table({"mode", "fetch p50 (ms)", "fetch p99 (ms)"});
    table.AddRow({"unhedged", StrFormat("%.3f", unhedged_p50.Median() * 1e3),
                  StrFormat("%.3f", unhedged_p99.Median() * 1e3)});
    table.AddRow({"hedged", StrFormat("%.3f", hedged_p50.Median() * 1e3),
                  StrFormat("%.3f", hedged_p99.Median() * 1e3)});
    table.Print();
    printf("hedged-read p99 improvement: %.1fx (gated >= 2x; last rep: %lld "
           "hedges, %lld won the race). The straggler stalls ~5%% of one "
           "replica's reads 20x past the healthy service time, so the "
           "unhedged p99 sits on the stall; the adaptive deadline duplicates "
           "exactly those fetches to the healthy replica.\n",
           improvement, static_cast<long long>(hedges),
           static_cast<long long>(hedge_wins));
    if (improvement < 2.0) {
      printf("WARNING: hedged p99 improvement below the 2x gate\n");
    }
    ReportMetric("straggler/unhedged_fetch_p99_sec", reps, 0, 0,
                 unhedged_p99.Median(), "s");
    ReportMetric("straggler/hedged_fetch_p99_sec", reps, 0, 0,
                 hedged_p99.Median(), "s");
    ReportMetric("straggler/unhedged_fetch_p50_sec", reps, 0, 0,
                 unhedged_p50.Median(), "s");
    ReportMetric("straggler/hedged_fetch_p50_sec", reps, 0, 0,
                 hedged_p50.Median(), "s");
  }
  return 0;
}
