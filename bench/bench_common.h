// Shared infrastructure for the per-figure bench binaries: cached synthetic
// datasets, paper-calibrated storage profiles, model proxies, and the
// time-to-accuracy runner used by Figures 4-6 and 23-28.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/pcr_dataset.h"
#include "core/record_dataset.h"
#include "data/dataset_builder.h"
#include "data/dataset_spec.h"
#include "sim/compute_model.h"
#include "sim/decode_model.h"
#include "sim/pipeline_sim.h"
#include "storage/env.h"
#include "train/classifier.h"
#include "train/dataset_cache.h"
#include "train/trainer.h"
#include "util/result.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace pcr::bench {

/// Parses the flags shared by every bench binary and must be the first call
/// in each main(). Recognised flags:
///   --smoke        minimal-iteration mode: shrinks datasets, epochs,
///                  repeats and sweeps so the binary finishes in seconds.
///                  CI uses this to catch bit-rot without burning minutes
///                  on full figures.
///   --json <path>  machine-readable run summary: every metric the bench
///                  reports via ReportMetric is written to <path> as JSON
///                  when the process exits, so CI can archive a perf
///                  trajectory (BENCH_*.json) across PRs.
/// The PCR_BENCH_SMOKE=1 environment variable is equivalent to --smoke.
/// Unknown flags abort with a usage message.
void InitBench(int argc, char** argv);

/// True when --smoke (or PCR_BENCH_SMOKE=1) is active; for bench-specific
/// clamps that the central ones below do not cover.
bool SmokeMode();

/// Records one benchmark summary metric for the --json report (no-op
/// without --json). `iterations` is how many repetitions the number
/// averages over, `wall_seconds` the measured time, `bytes` the payload
/// bytes involved (0 when meaningless), `value` the headline number (0 when
/// meaningless) in `unit` — a rate in items/s unless the row says otherwise
/// ("s" for a latency, "ratio" for a fairness or CV). `syscalls_per_record`
/// is the I/O stage's read-syscall cost per record for wall-clock pipeline
/// benches (< 0 = not applicable, omitted from the row). Also safe to call
/// from shared helpers like PrintTimeToAccuracy.
void ReportMetric(const std::string& name, double iterations,
                  double wall_seconds, double bytes, double value,
                  const std::string& unit = "items/s",
                  double syscalls_per_record = -1.0);

/// Writes the --json report now (also installed atexit by InitBench, so
/// benches do not need to call it explicitly).
void FlushJsonReport();

/// Builds (or loads from the /tmp cache) the dataset for `spec` in the
/// requested formats and opens the PCR view. Under --smoke the spec is
/// shrunk (fewer, smaller images; smaller records) before building.
struct DatasetHandle {
  BuiltDataset built;
  std::unique_ptr<PcrDataset> pcr;
};
DatasetHandle GetDataset(const DatasetSpec& spec,
                         bool with_record_format = false,
                         bool with_fpi_format = false);

/// Paper mean image bytes per dataset (Table 1: dataset size / image count),
/// used to calibrate simulated storage bandwidth so that the byte-intensity
/// ratio (and therefore who is I/O bound) matches the paper's cluster.
double PaperMeanImageBytes(const std::string& dataset_name);

/// Storage profile whose bandwidth is scaled so that
///   our_mean_bytes / W_sim == paper_mean_bytes / 450MiB/s.
DeviceProfile CalibratedStorage(RecordSource* source,
                                const std::string& dataset_name);

/// A "model" = compute service rate (throughput side) + feature extractor
/// configuration (statistical side: how much the proxy relies on
/// fine-grained, high-frequency features) + classifier architecture.
struct ModelProxy {
  std::string name;
  ComputeProfile compute;
  FeatureOptions features;
  bool use_mlp = false;
  int mlp_hidden = 48;

  /// ResNet-18 proxy: slower compute, moderate reliance on fine detail.
  static ModelProxy ResNet18();
  /// ShuffleNetv2 proxy: ~1.7x faster compute, strong reliance on
  /// fine-grained (high-frequency) features (the paper's HAM10000 contrast).
  static ModelProxy ShuffleNetV2();

  std::unique_ptr<Classifier> MakeClassifier(int dim, int classes,
                                             uint64_t seed) const;
};

/// Per-dataset training recipe (epochs follow §4.1).
struct TrainRecipe {
  int epochs = 90;
  TrainerOptions trainer;
  static TrainRecipe ForDataset(const std::string& dataset_name);
};

/// One point on a time-to-accuracy curve.
struct CurvePoint {
  int epoch = 0;
  double sim_seconds = 0;
  double test_accuracy = 0;
  double train_loss = 0;
};

struct TimeToAccuracyResult {
  int scan_group = 0;
  std::vector<CurvePoint> curve;
  double final_accuracy = 0;
  double total_seconds = 0;
  /// Simulated seconds to first reach `target`; <0 if never reached.
  double SecondsToAccuracy(double target) const;
};

struct TimeToAccuracyConfig {
  std::vector<int> scan_groups = {1, 2, 5, 10};
  int repeats = 2;            // Seeds averaged for confidence.
  int eval_every = 5;         // Epochs between test evaluations.
  std::function<int64_t(int64_t)> label_map;
};

/// Runs the full experiment: for each scan group, train the proxy while the
/// pipeline simulator advances storage-bound time, and collect the curve.
/// Results are averaged over `repeats` seeds.
std::vector<TimeToAccuracyResult> RunTimeToAccuracy(
    const DatasetSpec& spec, const ModelProxy& model,
    const TimeToAccuracyConfig& config);

/// Prints the standard time-to-accuracy table (per group: final accuracy,
/// epoch time, time to reference accuracy, speedup vs baseline).
void PrintTimeToAccuracy(const std::string& title,
                         const std::vector<TimeToAccuracyResult>& results);

}  // namespace pcr::bench
