#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "arch/arch.h"
#include "loader/scan_policy.h"
#include "storage/io_backend.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace pcr::bench {

namespace {

bool g_smoke = false;

// --json state. Metrics accumulate in-process and flush once at exit.
struct JsonMetric {
  std::string name;
  double iterations = 0;
  double wall_seconds = 0;
  double bytes = 0;
  double value = 0;
  std::string unit;
  double syscalls_per_record = -1;  // < 0: not an I/O-stage metric.
};
std::string g_json_path;
std::string g_bench_name;
std::vector<JsonMetric>& JsonMetrics() {
  // Intentionally leaked: the vector is first touched after InitBench has
  // registered FlushJsonReport with atexit, so a plain static would be
  // destroyed (reverse registration order) before the flush reads it.
  static std::vector<JsonMetric>* metrics = new std::vector<JsonMetric>();
  return *metrics;
}

// Minimal JSON string escaping: metric names are ASCII identifiers we
// control, but keep quotes/backslashes safe anyway.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Shrinks a dataset spec for --smoke: few small images in small records,
/// but still enough of each class for the training proxies to run.
DatasetSpec SmokeSpec(DatasetSpec spec) {
  spec.images_per_record = std::min(spec.images_per_record, 8);
  const int floor_images =
      std::max(4 * spec.num_classes, 2 * spec.images_per_record);
  spec.num_images = std::min(spec.num_images, floor_images);
  spec.base_width = std::min(spec.base_width, 160);
  spec.base_height = std::min(spec.base_height, 120);
  return spec;
}

}  // namespace

void InitBench(int argc, char** argv) {
  const char* env_smoke = std::getenv("PCR_BENCH_SMOKE");
  if (env_smoke != nullptr && std::strcmp(env_smoke, "0") != 0 &&
      std::strcmp(env_smoke, "") != 0) {
    g_smoke = true;
  }
  g_bench_name = argv[0];
  const size_t slash = g_bench_name.find_last_of('/');
  if (slash != std::string::npos) g_bench_name.erase(0, slash + 1);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      g_smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      g_json_path = argv[++i];
    } else {
      fprintf(stderr,
              "usage: %s [--smoke] [--json <path>]\n  unknown flag: %s\n",
              argv[0], argv[i]);
      std::exit(2);
    }
  }
  if (g_smoke) {
    fprintf(stderr, "[bench] smoke mode: minimal iterations, shrunk data\n");
  }
  if (!g_json_path.empty()) std::atexit(FlushJsonReport);
}

bool SmokeMode() { return g_smoke; }

void ReportMetric(const std::string& name, double iterations,
                  double wall_seconds, double bytes, double value,
                  const std::string& unit, double syscalls_per_record) {
  if (g_json_path.empty()) return;
  JsonMetrics().push_back(JsonMetric{name, iterations, wall_seconds, bytes,
                                     value, unit, syscalls_per_record});
}

void FlushJsonReport() {
  if (g_json_path.empty()) return;
  FILE* f = fopen(g_json_path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "[bench] cannot write --json path %s\n",
            g_json_path.c_str());
    return;
  }
  // Resolved once at flush: which kernel tier and I/O backend produced
  // these numbers and what the CPU offered. Per record (not just the
  // header) so that rows concatenated across artifacts stay
  // self-describing.
  const std::string kernel_path = arch::Active().name;
  const std::string cpu_features = arch::CpuFeatureString();
  const std::string io_backend = IoBackendName(ActiveIoBackend());
  fprintf(f,
          "{\n  \"bench\": \"%s\",\n  \"smoke\": %s,\n"
          "  \"kernel_path\": \"%s\",\n  \"cpu_features\": \"%s\",\n"
          "  \"io_backend\": \"%s\",\n"
          "  \"metrics\": [\n",
          JsonEscape(g_bench_name).c_str(), g_smoke ? "true" : "false",
          JsonEscape(kernel_path).c_str(), JsonEscape(cpu_features).c_str(),
          JsonEscape(io_backend).c_str());
  const auto& metrics = JsonMetrics();
  for (size_t i = 0; i < metrics.size(); ++i) {
    const JsonMetric& m = metrics[i];
    std::string syscalls;
    if (m.syscalls_per_record >= 0) {
      char buf[64];
      snprintf(buf, sizeof(buf), "\"syscalls_per_record\": %.9g, ",
               m.syscalls_per_record);
      syscalls = buf;
    }
    fprintf(f,
            "    {\"name\": \"%s\", \"iterations\": %.0f, "
            "\"wall_seconds\": %.9g, \"bytes\": %.0f, "
            "\"value\": %.9g, \"unit\": \"%s\", %s"
            "\"kernel_path\": \"%s\", \"cpu_features\": \"%s\", "
            "\"io_backend\": \"%s\"}%s\n",
            JsonEscape(m.name).c_str(), m.iterations, m.wall_seconds, m.bytes,
            m.value, JsonEscape(m.unit).c_str(), syscalls.c_str(),
            JsonEscape(kernel_path).c_str(),
            JsonEscape(cpu_features).c_str(), JsonEscape(io_backend).c_str(),
            i + 1 < metrics.size() ? "," : "");
  }
  fprintf(f, "  ]\n}\n");
  fclose(f);
  fprintf(stderr, "[bench] wrote %zu metrics to %s\n", metrics.size(),
          g_json_path.c_str());
}

DatasetHandle GetDataset(const DatasetSpec& spec_in, bool with_record_format,
                         bool with_fpi_format) {
  const DatasetSpec spec = g_smoke ? SmokeSpec(spec_in) : spec_in;
  Env* env = Env::Default();
  BuildFormats formats;
  formats.pcr = true;
  formats.record = with_record_format;
  formats.file_per_image = with_fpi_format;
  const std::string root = DefaultDatasetCacheRoot(spec);
  auto built = BuildSyntheticDataset(env, root, spec, formats);
  PCR_CHECK(built.ok()) << built.status();
  if (built->build_seconds > 0) {
    fprintf(stderr, "[bench] built dataset %s in %.1fs (cached at %s)\n",
            spec.name.c_str(), built->build_seconds, root.c_str());
  }
  DatasetHandle handle;
  handle.built = std::move(built).MoveValue();
  auto pcr = PcrDataset::Open(env, handle.built.pcr_dir);
  PCR_CHECK(pcr.ok()) << pcr.status();
  handle.pcr = std::move(pcr).MoveValue();
  return handle;
}

double PaperMeanImageBytes(const std::string& dataset_name) {
  // Table 1: dataset size / image count.
  if (dataset_name.find("imagenet") != std::string::npos) {
    return 129.0 * (1ULL << 30) / 1281167.0;  // ~105 kB.
  }
  if (dataset_name.find("ham") != std::string::npos) {
    return 2.0 * (1ULL << 30) / 8012.0;  // ~268 kB (largest images).
  }
  if (dataset_name.find("cars") != std::string::npos) {
    return 887.0 * (1ULL << 20) / 8144.0;  // ~114 kB.
  }
  if (dataset_name.find("celeba") != std::string::npos) {
    return 2.0 * (1ULL << 30) / 24000.0;  // ~89 kB.
  }
  return 110.0 * 1024.0;
}

DeviceProfile CalibratedStorage(RecordSource* source,
                                const std::string& dataset_name) {
  DeviceProfile profile = DeviceProfile::CephCluster();
  const double ours = source->MeanImageBytes(source->num_scan_groups());
  const double paper = PaperMeanImageBytes(dataset_name);
  // The paper's pool offers 450+ MiB/s raw, but the training-time rates of
  // Figure 9 (ImageNet baseline ~1100 img/s x 105 kB) imply an *effective*
  // bandwidth near 120 MB/s once Ceph striping, contention, and stall
  // burstiness are paid. We calibrate to the effective figure and keep our
  // byte-intensity : bandwidth ratio equal to the paper's, so the same scan
  // groups are I/O bound as on the real cluster.
  constexpr double kPaperEffectiveBandwidth = 120.0e6;
  const double size_ratio = ours / paper;
  profile.read_bandwidth_bytes_per_sec = kPaperEffectiveBandwidth * size_ratio;
  // Scale fixed latencies with dataset size so seek overhead stays a
  // comparable fraction of a record read.
  profile.seek_latency_sec *= size_ratio;
  profile.per_op_latency_sec *= size_ratio;
  return profile;
}

ModelProxy ModelProxy::ResNet18() {
  ModelProxy m;
  m.name = "ResNet18";
  m.compute = ComputeProfile::ResNet18();
  m.features.grid = 12;
  m.features.include_highpass = true;
  m.features.highpass_gain = 0.5f;  // Robust to missing fine detail.
  m.use_mlp = false;
  return m;
}

ModelProxy ModelProxy::ShuffleNetV2() {
  ModelProxy m;
  m.name = "ShuffleNet";
  m.compute = ComputeProfile::ShuffleNetV2();
  m.features.grid = 14;
  m.features.include_highpass = true;
  m.features.highpass_gain = 1.2f;  // Leans on fine-grained features.
  m.use_mlp = false;
  return m;
}

std::unique_ptr<Classifier> ModelProxy::MakeClassifier(int dim, int classes,
                                                       uint64_t seed) const {
  if (use_mlp) {
    return std::make_unique<MlpClassifier>(dim, mlp_hidden, classes, seed);
  }
  return std::make_unique<SoftmaxClassifier>(dim, classes, seed);
}

TrainRecipe TrainRecipe::ForDataset(const std::string& dataset_name) {
  TrainRecipe recipe;
  recipe.trainer.base_lr = 0.4;  // Linear-proxy scale for lr=0.1 ResNet.
  recipe.trainer.warmup_epochs = 5;
  recipe.trainer.batch_size = 128;
  if (dataset_name.find("imagenet") != std::string::npos) {
    recipe.epochs = 90;
    recipe.trainer.decay_epochs = {30, 60};
  } else if (dataset_name.find("ham") != std::string::npos) {
    recipe.epochs = 150;
    recipe.trainer.decay_epochs = {60, 110};
    recipe.trainer.base_lr = 0.2;  // "Pretrained" regime: gentler LR (§4.1).
  } else if (dataset_name.find("cars") != std::string::npos) {
    recipe.epochs = 200;  // Paper: 250; trimmed to keep the harness quick.
    recipe.trainer.decay_epochs = {100, 160};
    recipe.trainer.base_lr = 0.2;
  } else if (dataset_name.find("celeba") != std::string::npos) {
    recipe.epochs = 90;
    recipe.trainer.decay_epochs = {30, 60};
  }
  if (g_smoke) {
    recipe.epochs = std::min(recipe.epochs, 3);
    recipe.trainer.warmup_epochs = 1;
    recipe.trainer.decay_epochs = {2};
  }
  return recipe;
}

double TimeToAccuracyResult::SecondsToAccuracy(double target) const {
  for (const auto& p : curve) {
    if (p.test_accuracy >= target) return p.sim_seconds;
  }
  return -1.0;
}

std::vector<TimeToAccuracyResult> RunTimeToAccuracy(
    const DatasetSpec& spec, const ModelProxy& model,
    const TimeToAccuracyConfig& config_in) {
  TimeToAccuracyConfig config = config_in;
  if (g_smoke) {
    config.repeats = 1;
    config.eval_every = 1;
  }
  DatasetHandle handle = GetDataset(spec);
  RecordSource* source = handle.pcr.get();
  const TrainRecipe recipe = TrainRecipe::ForDataset(spec.name);

  CachedDatasetOptions cache_options;
  cache_options.scan_groups = config.scan_groups;
  cache_options.features = model.features;
  cache_options.label_map = config.label_map;
  auto cached_or = CachedDataset::Build(source, cache_options);
  PCR_CHECK(cached_or.ok()) << cached_or.status();
  const CachedDataset cached = std::move(cached_or).MoveValue();

  const DeviceProfile storage = CalibratedStorage(source, spec.name);

  std::vector<TimeToAccuracyResult> results;
  for (int group : config.scan_groups) {
    TimeToAccuracyResult result;
    result.scan_group = group;
    // Average curves over seeds.
    std::vector<CurvePoint> accumulated;
    for (int rep = 0; rep < config.repeats; ++rep) {
      auto classifier = model.MakeClassifier(
          cached.feature_dim(), cached.num_classes(), 1000 + 77 * rep);
      TrainerOptions trainer_options = recipe.trainer;
      trainer_options.seed = 5000 + rep;
      Trainer trainer(&cached, classifier.get(), trainer_options);
      TrainingPipelineSim sim(source, storage, model.compute,
                              DecodeCostModel{}, PipelineSimOptions{},
                              900 + rep);
      FixedScanPolicy policy(group);

      std::vector<CurvePoint> curve;
      double sim_time = 0;
      for (int epoch = 0; epoch < recipe.epochs; ++epoch) {
        const auto epoch_sim = sim.SimulateEpoch(&policy);
        sim_time += epoch_sim.elapsed_seconds;
        const double loss = trainer.RunEpoch(group);
        if ((epoch + 1) % config.eval_every == 0 ||
            epoch + 1 == recipe.epochs) {
          CurvePoint point;
          point.epoch = epoch + 1;
          point.sim_seconds = sim_time;
          point.test_accuracy = trainer.TestAccuracy();
          point.train_loss = loss;
          curve.push_back(point);
        }
      }
      if (accumulated.empty()) {
        accumulated = curve;
      } else {
        for (size_t i = 0; i < curve.size(); ++i) {
          accumulated[i].sim_seconds += curve[i].sim_seconds;
          accumulated[i].test_accuracy += curve[i].test_accuracy;
          accumulated[i].train_loss += curve[i].train_loss;
        }
      }
    }
    for (auto& p : accumulated) {
      p.sim_seconds /= config.repeats;
      p.test_accuracy /= config.repeats;
      p.train_loss /= config.repeats;
    }
    result.curve = std::move(accumulated);
    result.final_accuracy = result.curve.back().test_accuracy;
    result.total_seconds = result.curve.back().sim_seconds;
    results.push_back(std::move(result));
  }
  return results;
}

void PrintTimeToAccuracy(const std::string& title,
                         const std::vector<TimeToAccuracyResult>& results) {
  printf("\n== %s ==\n", title.c_str());
  // Reference accuracy: 97.5% of the baseline's final accuracy, the "same
  // accuracy sooner" comparison the paper's Figure 4 makes visually.
  const auto& baseline = results.back();
  const double target = 0.975 * baseline.final_accuracy;

  TablePrinter table({"scan group", "final acc (%)", "epoch time (s)",
                      StrFormat("t->%.1f%% acc (s)", target),
                      "speedup vs baseline"});
  const double base_time = baseline.SecondsToAccuracy(target);
  for (const auto& r : results) {
    ReportMetric(
        title + "/group_" + std::to_string(r.scan_group) + "/epoch_seconds",
        r.curve.back().epoch, r.total_seconds, 0,
        r.curve.back().epoch / std::max(1e-9, r.total_seconds), "epochs/s");
    ReportMetric(
        title + "/group_" + std::to_string(r.scan_group) + "/final_accuracy",
        r.curve.back().epoch, r.total_seconds, 0, r.final_accuracy,
        "accuracy");
    const double t = r.SecondsToAccuracy(target);
    std::string t_str = t < 0 ? "never" : StrFormat("%.1f", t);
    std::string speedup =
        (t > 0 && base_time > 0) ? StrFormat("%.2fx", base_time / t) : "-";
    table.AddRow({r.scan_group == results.back().scan_group
                      ? "baseline(10)"
                      : StrFormat("group_%d", r.scan_group),
                  StrFormat("%.1f", r.final_accuracy),
                  StrFormat("%.2f", r.total_seconds / r.curve.back().epoch),
                  t_str, speedup});
  }
  table.Print();

  printf("\n  accuracy-vs-time curve samples:\n");
  for (const auto& r : results) {
    printf("  group %2d:", r.scan_group);
    const size_t n = r.curve.size();
    for (size_t i = 0; i < n; i += std::max<size_t>(1, n / 6)) {
      printf("  (%.0fs, %.1f%%)", r.curve[i].sim_seconds,
             r.curve[i].test_accuracy);
    }
    printf("  (%.0fs, %.1f%%)\n", r.curve.back().sim_seconds,
           r.curve.back().test_accuracy);
  }
}

}  // namespace pcr::bench
