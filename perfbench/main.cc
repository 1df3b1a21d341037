// pcr_perfbench: one workload of the PCR data-plane benchmark per run.
//
//   pcr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --work-dir <dir>
//
// Builds the CelebA-HQ-like fixture and its oracle under <work-dir> once,
// runs the workload, prints a human-readable report, and ends standard
// output with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// per-layer set, from a separate traced run (client spans plus a serial
// replay of the per-record path; see replay.h).
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "arch/arch.h"
#include "core/pcr_dataset.h"
#include "data/dataset_builder.h"
#include "data/dataset_spec.h"
#include "oracle.h"
#include "stats.h"
#include "storage/env.h"
#include "storage/io_backend.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metrics BENCHMARK.json lists, in its order.
const std::vector<MetricSpec> kEndToEnd = {
    {"images_per_s", "img/s"},  {"batch_p50_ms", "ms"},
    {"batch_p95_ms", "ms"},     {"cpu_ms_per_image", "ms/img"},
    {"setup_s", "s"},           {"peak_rss_mib", "MiB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"batch_samples", "count"},
    {"read_bytes_per_image", "B/img"},
    {"failed_share", "ratio"},
    {"trace.images_per_s", "img/s"},
    {"trace.coverage", "ratio"},
    {"storage.fetch_p50_ms", "ms"},
    {"storage.fetch_p99_ms", "ms"},
    {"storage.mean_in_flight", "count"},
    {"storage.busy_share", "ratio"},
    {"storage.ops_per_record", "count"},
    {"storage.syscalls_per_record", "count"},
    {"storage.read_us", "us"},
    {"storage.retries", "count"},
    {"core.plan_us", "us"},
    {"core.assemble_us", "us"},
    {"jpeg.decode_us_per_image.full", "us"},
    {"jpeg.decode_us_per_image.g5", "us"},
    {"jpeg.decode_us_per_image.g1", "us"},
    {"jpeg.decode_busy_share", "ratio"},
    {"jpeg.decode_share_of_busy", "ratio"},
    {"jpeg.client_decode_cpu_share", "ratio"},
    {"loader.io_stall_share", "ratio"},
    {"loader.decode_stall_share", "ratio"},
    {"loader.io_share_of_stalls", "ratio"},
    {"loader.decode_cache_hit_rate", "ratio"},
    {"loader.decode_cache_evictions_per_batch", "count"},
    {"loader.prefix_hit_rate", "ratio"},
    {"loader.cache_lookup_us", "us"},
    {"loader.cache_insert_us", "us"},
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.queue_wait_p99_ms", "ms"},
    {"serve.service_p50_ms", "ms"},
    {"serve.service_p99_ms", "ms"},
    {"serve.transport_p50_ms", "ms"},
    {"serve.client_send_us", "us"},
    {"serve.client_receive_us", "us"},
    {"serve.shm_batch_share", "ratio"},
    {"serve.bytes_copied_per_byte", "ratio"},
    {"serve.zero_copy_hit_share", "ratio"},
    {"serve.shm_slot_waits_per_batch", "count"},
    {"serve.threads_peak", "count"},
    {"process.cpu_cores", "count"},
    {"process.sys_share", "ratio"},
    {"process.minor_faults_per_image", "count"},
    {"serve.client_images_per_s.full", "img/s"},
    {"serve.client_images_per_s.g5", "img/s"},
    {"serve.client_images_per_s.g1", "img/s"},
    {"serve.client_images_per_s.full2", "img/s"},
    {"window.images_per_s", "img/s"},
    {"window.cpu_ms_per_image", "ms/img"},
    {"serve.storage_read_share.full", "ratio"},
    {"serve.storage_read_share.g5", "ratio"},
    {"serve.storage_read_share.g1", "ratio"},
    {"serve.storage_read_share.full2", "ratio"},
    {"replay.prefix_hit_rate", "ratio"},
    {"replay.fetch_p50_ms", "ms"},
    {"replay.fetch_p99_ms", "ms"},
    {"process.rss_high_water_mib", "MiB"},
    {"process.peak_rss_max_mib", "MiB"},
    {"serve.fairness", "ratio"},
};

/// Numbers from Debug or sanitizer builds are not comparable with anything.
bool ComparableBuild(std::string* why) {
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type == "Debug" || type.empty()) {
    *why = "build type '" + type + "' is not an optimized build";
    return false;
  }
  if (std::strlen(PERFBENCH_SANITIZE) > 0) {
    *why = std::string("sanitizer build (") + PERFBENCH_SANITIZE + ")";
    return false;
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  *why = "compiled with a sanitizer";
  return false;
#endif
#if !defined(__OPTIMIZE__)
  *why = "compiled without optimization";
  return false;
#endif
  return true;
}

/// Hash of every file of the fixture, in name order.
pcr::Result<uint64_t> Fingerprint(pcr::Env* env, const std::string& dir) {
  PCR_ASSIGN_OR_RETURN(std::vector<std::string> names, env->ListDir(dir));
  uint64_t h = 0x5eed;
  for (const std::string& name : names) {
    std::string data;
    PCR_RETURN_IF_ERROR(env->ReadFileToString(dir + "/" + name, &data));
    h = Mix(h ^ ContentHash(reinterpret_cast<const uint8_t*>(name.data()),
                            name.size()));
    h = Mix(h ^ ContentHash(reinterpret_cast<const uint8_t*>(data.data()),
                            data.size()));
  }
  return h;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string work_dir = ".bench_build/perfbench-work";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  if (argc % 2 != 1) return false;
  bool known = false;
  for (const std::string& name : WorkloadNames()) known |= name == args->workload;
  return known && args->seconds > 0 && (args->trace == 0 || args->trace == 1);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  return out;
}

double Get(const RunReport& report, const char* name) {
  const auto it = report.metrics.find(name);
  return it == report.metrics.end() ? 0.0 : it->second;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload "
                 "<local_full|remote_full|serve_compressed|serve_mixed|"
                 "serve_warm> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--work-dir <dir>]\n",
                 argv[0]);
    return 2;
  }
  std::string why;
  if (!ComparableBuild(&why)) {
    std::fprintf(stderr, "perfbench: refusing to report: %s\n", why.c_str());
    return 3;
  }
  pcr::Env* env = pcr::Env::Default();
  if (!env->CreateDir(args.work_dir).ok()) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 args.work_dir.c_str());
    return 1;
  }

  // Fixture and oracle: built once per work directory, never timed.
  const pcr::DatasetSpec spec = pcr::DatasetSpec::CelebAHqLike();
  char cwd[4096];
  if (getcwd(cwd, sizeof(cwd)) == nullptr) return 1;
  std::string root = args.work_dir + "/fixture-" + spec.name;
  if (root[0] != '/') root = std::string(cwd) + "/" + root;
  pcr::BuildFormats formats;
  auto built = pcr::BuildSyntheticDataset(env, root, spec, formats);
  if (!built.ok()) {
    std::fprintf(stderr, "perfbench: fixture: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  if (built->build_seconds > 0) {
    std::fprintf(stderr, "perfbench: built fixture in %.1f s\n",
                 built->build_seconds);
  }
  auto dataset = pcr::PcrDataset::Open(env, built->pcr_dir);
  auto fingerprint = Fingerprint(env, built->pcr_dir);
  if (!dataset.ok() || !fingerprint.ok()) {
    std::fprintf(stderr, "perfbench: cannot open the fixture\n");
    return 1;
  }
  const std::string oracle_path = root + "/oracle.bin";
  auto oracle = Oracle::Load(oracle_path, *fingerprint);
  if (!oracle.ok()) {
    const double t0 = NowNanos() * 1e-9;
    oracle = Oracle::Build(dataset->get(),
                           OracleScanGroups((*dataset)->num_scan_groups()),
                           static_cast<int>(std::thread::hardware_concurrency()));
    if (!oracle.ok()) {
      std::fprintf(stderr, "perfbench: oracle: %s\n",
                   oracle.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "perfbench: built oracle in %.1f s\n",
                 NowNanos() * 1e-9 - t0);
    const pcr::Status saved = oracle->Save(oracle_path, *fingerprint);
    if (!saved.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", saved.ToString().c_str());
      return 1;
    }
  }
  Fixture fixture;
  fixture.name = spec.name;
  fixture.pcr_dir = built->pcr_dir;
  fixture.num_records = (*dataset)->num_records();
  fixture.num_images = (*dataset)->num_images();
  fixture.num_scan_groups = (*dataset)->num_scan_groups();
  fixture.oracle = &*oracle;
  for (int r = 0; r < fixture.num_records; ++r) {
    for (int g = 1; g <= fixture.num_scan_groups; ++g) {
      fixture.read_bytes.push_back((*dataset)->RecordReadBytes(r, g));
    }
  }
  dataset->reset();

  RunOptions options;
  options.workload = args.workload;
  options.seed = args.seed;
  options.seconds = args.seconds;
  options.trace = args.trace == 1;
  options.work_dir = args.work_dir;
  auto result = RunWorkload(options, fixture);
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(),
                 result.status().ToString().c_str());
    return 1;
  }
  RunReport& report = *result;
  if (options.trace) {
    report.metrics["trace.images_per_s"] = Get(report, "images_per_s");
  }

  // Run stamp.
  std::printf(
      "stamp: workload=%s seed=%llu trace=%d nproc=%u io_backend=%s "
      "(resolved %s) kernel_tier=%s build=%s fixture=%016llx "
      "(%d records, %d images, %d scan groups)\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace, std::thread::hardware_concurrency(),
      report.io_backend.empty() ? "-" : report.io_backend.c_str(),
      pcr::IoBackendName(pcr::ActiveIoBackend()), pcr::arch::Active().name,
      PERFBENCH_BUILD_TYPE, static_cast<unsigned long long>(*fingerprint),
      fixture.num_records, fixture.num_images, fixture.num_scan_groups);
  std::printf("setup runs:");
  for (const double s : report.setup_seconds) std::printf(" %.4f s", s);
  std::printf("\n");
  for (const std::string& line : report.consumers) {
    std::printf("consumer %s\n", line.c_str());
  }
  std::printf("%-40s %14s  %s\n", "end-to-end metric", "value", "unit");
  for (const MetricSpec& m : kEndToEnd) {
    std::printf("%-40s %14.4f  %s\n", m.name, Get(report, m.name), m.unit);
  }
  std::printf("%-40s %14.6f  %s\n", "read_bytes_per_image",
              Get(report, "read_bytes_per_image"), "B/img");
  std::printf("%-40s %14.6f  %s  (%lld of %lld batches failed)\n",
              "failed_share", Get(report, "failed_share"), "ratio",
              static_cast<long long>(report.failed),
              static_cast<long long>(report.attempted));
  const int64_t samples = static_cast<int64_t>(Get(report, "batch_samples"));
  std::printf("batch waits: %lld samples, %lld beyond p95; highest "
              "percentile with >= 10 beyond: p%g\n",
              static_cast<long long>(samples),
              static_cast<long long>(SamplesBeyond(samples, 95.0)),
              HighestAffordablePercentile(samples, {99.9, 99, 95, 90, 75, 50}));
  if (SamplesBeyond(samples, 95.0) < 10) {
    std::printf("warning: batch_p95_ms rests on fewer than 10 samples\n");
  }
  std::printf("oracle: %lld batches fully hashed; first violation: %s\n",
              static_cast<long long>(report.full_checks),
              report.first_error.empty() ? "none"
                                         : report.first_error.c_str());
  if (options.trace) {
    std::printf("\n%-40s %14s  %s\n", "per-layer metric", "value", "unit");
    for (const MetricSpec& m : kPerLayer) {
      std::printf("%-40s %14.4f  %s\n", m.name, Get(report, m.name), m.unit);
    }
    std::printf("\nserial replay budget (%.3f s wall, coverage %.3f):\n",
                report.replay_seconds, Get(report, "trace.coverage"));
    std::printf("%-28s %8s %12s %12s %10s\n", "layer span", "count",
                "p50 us", "p95 us", "share");
    for (const LayerBudget& row : report.budget) {
      std::printf("%-28s %8lld %12.2f %12.2f %9.1f%%\n", row.name.c_str(),
                  static_cast<long long>(row.count), row.p50_us, row.p95_us,
                  row.share * 100.0);
    }
  }

  const bool correct = report.failed == 0 && report.attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  const std::vector<MetricSpec>& reported = options.trace ? kPerLayer : kEndToEnd;
  for (size_t i = 0; i < reported.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", Get(report, reported[i].name));
    json += std::string(i == 0 ? "" : ", ") + "\"" +
            JsonEscape(reported[i].name) + "\": {\"value\": " + value +
            ", \"unit\": \"" + reported[i].unit + "\"}";
  }
  json += "}}";
  std::fflush(stdout);
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
