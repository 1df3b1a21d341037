// Serving-daemon load generator: N synthetic open-loop clients against one
// PcrDaemon on a unix socket, versus the same N workloads as independent
// in-process loaders, on both data planes the daemon serves:
//
//   compressed plane (decode=false) — the storage-disaggregation shape: the
//     daemon does partial reads + record assembly and ships JPEG streams;
//     trainers decode client-side. Payloads are scan-group-sized, so the
//     socket adds little, and the aggregate is gated at >= 0.85x of the
//     in-process loaders.
//   decoded plane (decode=true) — the daemon also decodes and ships raw
//     pixels. Every pixel crosses the socket plus serialize/parse copies,
//     so this plane trails in-process loading by design on one node; it is
//     reported (and floor-gated loosely) as the motivation for the
//     shared-memory data plane follow-on, not gated at 0.85x.
//
// Reported metrics (CI gates in BENCH_pr10.json):
//   serve_8c_jpeg/items_per_sec      aggregate served images/sec, compressed
//   inprocess_8x_jpeg/items_per_sec  its no-daemon baseline (>= 0.85x gate)
//   serve_8c/fairness_ratio          min/max per-client throughput under
//                                    DRR, decoded plane (gated >= 0.7)
//   serve_8c/batch_p99_sec           p99 request->reply seconds (unit "s")
//
// Every phase repeats kReps times, and each repetition measures a window
// of at least kMinPhaseSeconds: all clients issue requests until the same
// deadline, then drain their replies. A client's rate is its images over
// that window, so the fairness ratio compares clients over equal time. The
// reported numbers are medians over the repetitions (CVs alongside), as in
// bench_cache_epochs.
//
// Each client drives a seeded Poisson arrival process (open loop: requests
// are issued on schedule, not on completion) bounded by the stream's
// granted in-flight cap, with one sender and one receiver thread — the
// PcrClient split-call thread model. All phases run cache-warm (one warm
// epoch per daemon or cache first), so the comparison isolates serving
// overhead: framing, socket copies, admission, and DRR arbitration. Each
// repetition opens fresh streams, so the daemon's per-stream latency
// histograms cover that repetition alone.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "loader/decode_cache.h"
#include "loader/pipeline.h"
#include "loader/prefix_cache.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "util/logging.h"
#include "util/stats.h"

using namespace pcr;
using namespace pcr::bench;

namespace {

constexpr int kClients = 8;
constexpr int kInflight = 8;
constexpr double kMeanInterarrival = 100e-6;  // Saturating open-loop rate.
constexpr int kReps = 5;
constexpr double kMinPhaseSeconds = 0.5;

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A client's requests sent but not yet answered, capped at the in-flight
/// limit. The sender counts requests in; the receiver counts replies out
/// and learns when the sender is done and every reply has arrived.
class Outstanding {
 public:
  explicit Outstanding(int cap) : cap_(cap) {}
  /// Sender: blocks until a slot is free, then counts one request.
  void Acquire() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return sent_ - received_ < cap_; });
    ++sent_;
    cv_.notify_all();
  }
  /// Sender: no more requests.
  void Finish() {
    std::lock_guard<std::mutex> lock(mu_);
    finished_ = true;
    cv_.notify_all();
  }
  /// Receiver: true while a reply is owed; false once the sender finished
  /// and every reply arrived.
  bool AwaitReply() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return sent_ > received_ || finished_; });
    return sent_ > received_;
  }
  /// Receiver: one reply arrived.
  void Received() {
    std::lock_guard<std::mutex> lock(mu_);
    ++received_;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  const int64_t cap_;
  int64_t sent_ = 0;
  int64_t received_ = 0;
  bool finished_ = false;
};

struct ClientResult {
  int64_t images = 0;
  uint64_t bytes = 0;
  double end = 0;  // When the last reply arrived.
};

/// One open-loop client: NextBatch requests on a seeded Poisson schedule
/// (bounded by the granted in-flight cap) from `start` until `deadline`,
/// replies drained by a second thread. With `shm_views` the receiver
/// consumes zero-copy ServedBatch views (touching every pixel page once, as
/// a trainer handing buffers to a framework would) instead of deep-copied
/// replies.
ClientResult RunOpenLoopClient(serve::PcrClient* client, uint64_t stream_id,
                               double start, double deadline, uint64_t seed,
                               bool shm_views) {
  ClientResult result;
  Outstanding outstanding(kInflight);
  std::thread sender([&] {
    std::mt19937_64 rng(seed);
    std::exponential_distribution<double> interarrival(
        1.0 / kMeanInterarrival);
    double next_arrival = start;
    while (NowSec() < deadline) {
      next_arrival += interarrival(rng);
      const double now = NowSec();
      if (next_arrival > now) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(next_arrival - now));
      }
      outstanding.Acquire();
      const Status sent = client->SendNextBatchRequest(stream_id);
      PCR_CHECK(sent.ok()) << "client send failed: " << sent;
    }
    outstanding.Finish();
  });
  // Defeat-the-optimizer sink for the view path's pixel reads.
  volatile uint64_t checksum = 0;
  while (outstanding.AwaitReply()) {
    if (shm_views) {
      auto batch = client->ReceiveServedBatch(stream_id);
      PCR_CHECK(batch.ok()) << "client receive failed: " << batch.status();
      PCR_CHECK(!batch->end_of_stream) << "stream ended early";
      for (const serve::ServedImageView& view : batch->images()) {
        // Touch one byte per page: the consume cost of a framework that
        // ingests the buffer in place (e.g. wraps it as a tensor and DMAs
        // it device-side) rather than re-copying it through userspace.
        uint64_t sum = 0;
        for (uint64_t off = 0; off < view.length; off += 4096) {
          sum += view.data[off];
        }
        checksum = checksum + sum;
        result.bytes += view.length;
        ++result.images;
      }
      batch->Release();  // Return the slot before the next wait.
    } else {
      auto batch = client->ReceiveBatch(stream_id);
      PCR_CHECK(batch.ok()) << "client receive failed: " << batch.status();
      PCR_CHECK(!batch->end_of_stream) << "stream ended early";
      result.images += static_cast<int64_t>(batch->images.size() +
                                            batch->jpegs.size());
      for (const serve::WireImage& img : batch->images) {
        result.bytes += img.pixels.size();
      }
      for (const std::string& jpeg : batch->jpegs) {
        result.bytes += jpeg.size();
      }
    }
    outstanding.Received();
  }
  sender.join();
  result.end = NowSec();
  return result;
}

/// One repetition of a phase.
struct RepResult {
  double rate = 0;
  double wall = 0;
  uint64_t bytes = 0;
  double min_rate = 0;
  double max_rate = 0;
  double fairness = 0;
  double batch_p50 = 0;
  double batch_p99 = 0;
  double queue_wait_p99 = 0;
  uint64_t shm_batches = 0;
  uint64_t bytes_copied = 0;
};

/// Fills a repetition's rates from its clients' results, all measured from
/// the shared `start`.
void SummarizeClients(const std::vector<ClientResult>& clients, double start,
                      RepResult* rep) {
  int64_t images = 0;
  double end = start;
  for (size_t i = 0; i < clients.size(); ++i) {
    images += clients[i].images;
    rep->bytes += clients[i].bytes;
    end = std::max(end, clients[i].end);
    const double rate = clients[i].images / (clients[i].end - start);
    rep->min_rate = i == 0 ? rate : std::min(rep->min_rate, rate);
    rep->max_rate = std::max(rep->max_rate, rate);
  }
  rep->wall = end - start;
  rep->rate = images / rep->wall;
  rep->fairness = rep->max_rate > 0 ? rep->min_rate / rep->max_rate : 0.0;
}

/// A phase's repetitions; every reported number is a median over them.
struct PhaseResult {
  std::vector<RepResult> reps;

  double Median(double RepResult::*field) const {
    SampleSet s;
    for (const RepResult& r : reps) s.Add(r.*field);
    return s.Median();
  }
  double Median(uint64_t RepResult::*field) const {
    SampleSet s;
    for (const RepResult& r : reps) s.Add(static_cast<double>(r.*field));
    return s.Median();
  }
  double Cv(double RepResult::*field) const {
    SampleSet s;
    for (const RepResult& r : reps) s.Add(r.*field);
    return s.Mean() > 0 ? s.Stddev() / s.Mean() : 0.0;
  }
};

/// Full daemon phase on one data plane: start, warm one epoch, then kReps
/// repetitions of the 8-client open loop, each on fresh streams with the
/// daemon-side latency stats of those streams; stop. `shm` negotiates the
/// shared-memory plane (decoded streams) and consumes zero-copy views
/// client-side.
PhaseResult RunServePhase(Env* env, const std::string& dataset_dir,
                          bool decode, double seconds, bool shm = false) {
  serve::DaemonOptions options;
  options.socket_path = "/tmp/pcr_lg_" + std::to_string(::getpid()) +
                        (shm ? "_s" : (decode ? "_d" : "_j")) + ".sock";
  options.max_streams = kClients + 1;
  options.max_inflight_per_stream = kInflight;
  options.decode_cache_bytes = 2ull << 30;
  options.prefix_cache_bytes = 1ull << 30;
  options.dataset_cache_share = 1.0;  // One dataset: full budget.
  // Compressed streams pass decode through; extra stage threads only add
  // scheduler pressure (this box serializes everything through few cores).
  options.decode_threads = decode ? 2 : 1;
  // One serve worker per stream: with cache-warm pipelines the workers
  // are arbitration-bound before they are copy-bound, and a pool smaller
  // than the client count would throttle both planes alike while blurring
  // the per-plane service-cost difference this bench gates.
  options.serve_tokens = kClients;
  auto daemon = serve::PcrDaemon::Start(env, options).MoveValue();

  {
    // Warm the shared caches: one stream, one epoch, drained to completion.
    auto warm =
        serve::PcrClient::Connect(daemon->socket_path(), "warm").MoveValue();
    serve::OpenStreamRequest open;
    open.dataset_dir = dataset_dir;
    open.max_epochs = 1;
    open.shuffle = false;
    open.decode = decode;
    auto stream = warm->OpenStream(open).MoveValue();
    for (uint32_t k = 0; k < stream.num_records; ++k) {
      auto batch = warm->NextBatch(stream.stream_id).MoveValue();
      PCR_CHECK(!batch.end_of_stream);
    }
    warm->CloseStream(stream.stream_id).MoveValue();
  }

  std::vector<std::unique_ptr<serve::PcrClient>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(serve::PcrClient::Connect(
                          daemon->socket_path(),
                          "loadgen-" + std::to_string(i))
                          .MoveValue());
  }
  PhaseResult phase;
  for (int rep = 0; rep < kReps; ++rep) {
    std::vector<uint64_t> stream_ids;
    for (int i = 0; i < kClients; ++i) {
      serve::OpenStreamRequest open;
      open.dataset_dir = dataset_dir;
      // Far more epochs than the window can drain: the deadline ends it.
      open.max_epochs = 1u << 20;
      open.shuffle = true;
      open.seed = 1000 + static_cast<uint64_t>(100 * rep + i);
      open.decode = decode;
      open.max_inflight = kInflight;
      open.shm_plane = shm;
      auto stream = clients[i]->OpenStream(open).MoveValue();
      PCR_CHECK(!shm || stream.shm_slots > 0)
          << "daemon did not grant the shm plane";
      stream_ids.push_back(stream.stream_id);
    }

    std::vector<ClientResult> results(kClients);
    const double start = NowSec();
    const double deadline = start + seconds;
    {
      std::vector<std::thread> threads;
      for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i] {
          results[i] = RunOpenLoopClient(
              clients[i].get(), stream_ids[i], start, deadline,
              /*seed=*/7000 + 100 * rep + i, /*shm_views=*/shm);
        });
      }
      for (std::thread& t : threads) t.join();
    }

    RepResult r;
    SummarizeClients(results, start, &r);
    // Tail latency from the daemon's serve-stage histograms (request
    // receipt -> reply written), worst stream wins.
    auto stats = clients[0]->GetStats().MoveValue();
    for (const serve::StreamStats& s : stats.streams) {
      r.batch_p50 = std::max(r.batch_p50, s.batch_p50_sec);
      r.batch_p99 = std::max(r.batch_p99, s.batch_p99_sec);
      r.queue_wait_p99 = std::max(r.queue_wait_p99, s.queue_wait_p99_sec);
      r.shm_batches += s.shm_batches;
      r.bytes_copied += s.bytes_copied;
    }
    for (int i = 0; i < kClients; ++i) {
      clients[i]->CloseStream(stream_ids[i]).MoveValue();
    }
    phase.reps.push_back(r);
  }
  clients.clear();
  daemon->Stop();
  return phase;
}

/// The no-daemon baseline: the same N workloads as in-process pipelines
/// over shared caches, warmed the same way and timed over the same windows.
PhaseResult RunInprocessPhase(Env* env, const std::string& dataset_dir,
                              bool decode, double seconds) {
  auto disk = PcrDataset::Open(env, dataset_dir).MoveValue();
  DecodeCacheOptions cache_options;
  cache_options.capacity_bytes = 2ull << 30;
  auto cache = std::make_shared<DecodeCache>(cache_options);
  auto prefixes =
      std::make_shared<PrefixCache>(PrefixCacheOptions{1ull << 30});
  const uint64_t dataset_id = cache->RegisterDataset();
  const int scan_group = disk->num_scan_groups();

  auto make_options = [&](uint64_t seed, int max_epochs, bool shuffle) {
    LoaderPipelineOptions options;
    options.io_threads = 1;
    options.decode_threads = decode ? 2 : 1;
    options.decode = decode;
    options.max_epochs = max_epochs;
    options.shuffle = shuffle;
    options.seed = seed;
    options.scan_policy = std::make_shared<FixedScanPolicy>(scan_group);
    options.decode_cache = cache;
    options.cache_dataset_id = dataset_id;
    options.prefix_cache = prefixes;
    options.prefix_dataset_id = dataset_id;
    return options;
  };
  {
    LoaderPipeline warm(disk.get(), make_options(1, 1, false));
    while (warm.Next().ok()) {
    }
  }
  PhaseResult phase;
  for (int rep = 0; rep < kReps; ++rep) {
    std::vector<ClientResult> results(kClients);
    const double start = NowSec();
    const double deadline = start + seconds;
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i] {
        // max_epochs 0 streams until the deadline stops the consumer.
        LoaderPipeline pipeline(
            disk.get(),
            make_options(1000 + static_cast<uint64_t>(100 * rep + i), 0,
                         true));
        ClientResult& result = results[i];
        while (NowSec() < deadline) {
          auto batch = pipeline.Next();
          PCR_CHECK(batch.ok()) << batch.status();
          result.images += batch->size();
          for (const Image& img : batch->images) {
            result.bytes += img.size_bytes();
          }
          result.bytes += batch->jpeg_backing.size();
        }
        result.end = NowSec();
      });
    }
    for (std::thread& t : threads) t.join();
    RepResult r;
    SummarizeClients(results, start, &r);
    phase.reps.push_back(r);
  }
  return phase;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --plane before InitBench (which aborts on unknown flags).
  // socket: PR 9 socket-plane phases only; shm: shared-memory phase only;
  // both (default): everything, including the within-run shm/socket ratio.
  std::string plane = "both";
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--plane=", 8) == 0) {
      plane = argv[i] + 8;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  if (plane != "socket" && plane != "shm" && plane != "both") {
    fprintf(stderr, "unknown --plane=%s (want socket|shm|both)\n",
            plane.c_str());
    return 2;
  }
  const bool run_socket = plane != "shm";
  const bool run_shm = plane != "socket";
  pcr::bench::InitBench(argc, argv);
  // Each repetition's measured window. Even the smoke window spans
  // hundreds of batches per client, where the old fixed-epoch phases ran
  // 0.01-0.13 s and the fairness floor measured scheduling noise.
  const double seconds = SmokeMode() ? kMinPhaseSeconds : 4 * kMinPhaseSeconds;

  printf("Serving daemon vs in-process loaders: %d open-loop clients, "
         "%d repetitions of %.1f s per phase\n\n",
         kClients, kReps, seconds);
  const DatasetSpec spec = DatasetSpec::CelebAHqLike();
  DatasetHandle handle = GetDataset(spec);
  // The decoded phases get a wider smoke dataset. The global smoke shrink
  // floors this spec at 16 images = 2 records per epoch, and with streams
  // that short both decoded planes are epoch-restart-bound — the shm/socket
  // ratio the CI gates would measure shared restart overhead, not the
  // per-plane service cost it is meant to compare. Raising the class count
  // lifts the shrink floor (it scales with num_classes) to 64 images = 8
  // records per epoch, long enough for steady state; labels are the only
  // thing classes change and this bench never trains. The compressed-plane
  // phases keep the standard smoke dataset so their serve/in-process gate
  // stays on the same workload it has been green on since PR 9. Outside
  // smoke mode both specs build the identical dataset.
  DatasetSpec decoded_spec = spec;
  if (SmokeMode()) decoded_spec.num_classes = 16;
  DatasetHandle decoded_handle = GetDataset(decoded_spec);
  const std::string dataset_dir = handle.built.pcr_dir;
  const std::string decoded_dir = decoded_handle.built.pcr_dir;
  Env* env = Env::Default();

  PhaseResult serve_jpeg, local_jpeg, serve_px, local_px, serve_shm;
  if (run_socket) {
    serve_jpeg = RunServePhase(env, dataset_dir, /*decode=*/false, seconds);
    local_jpeg = RunInprocessPhase(env, dataset_dir, /*decode=*/false,
                                   seconds);
    serve_px = RunServePhase(env, decoded_dir, /*decode=*/true, seconds);
    local_px = RunInprocessPhase(env, decoded_dir, /*decode=*/true, seconds);
  }
  if (run_shm) {
    serve_shm = RunServePhase(env, decoded_dir, /*decode=*/true, seconds,
                              /*shm=*/true);
  }

  using R = RepResult;
  printf("%-34s %12s %7s %10s %9s %9s %7s\n", "phase (median of reps)",
         "images/sec", "cv", "wall (s)", "MiB", "fairness", "cv");
  const auto row = [](const char* name, const PhaseResult& r) {
    printf("%-34s %12.1f %7.3f %10.2f %9.1f %9.2f %7.3f\n", name,
           r.Median(&R::rate), r.Cv(&R::rate), r.Median(&R::wall),
           r.Median(&R::bytes) / (1024.0 * 1024.0), r.Median(&R::fairness),
           r.Cv(&R::fairness));
  };
  const auto latency = [](const char* name, const PhaseResult& r) {
    printf("latency (%s): batch p50 %.2f ms  p99 %.2f ms  queue-wait p99 "
           "%.2f ms\n",
           name, r.Median(&R::batch_p50) * 1e3, r.Median(&R::batch_p99) * 1e3,
           r.Median(&R::queue_wait_p99) * 1e3);
  };
  const auto fairness = [](const char* name, const PhaseResult& r) {
    printf("fairness (%s) per rep:", name);
    for (const RepResult& rep : r.reps) {
      printf(" %.2f (%.0f/%.0f)", rep.fairness, rep.min_rate, rep.max_rate);
    }
    printf("; median %.2f\n", r.Median(&R::fairness));
  };
  const auto ratio = [](const PhaseResult& num, const PhaseResult& den) {
    const double d = den.Median(&R::rate);
    return d > 0 ? num.Median(&R::rate) / d : 0.0;
  };
  if (run_socket) {
    row("serve 8c (compressed plane)", serve_jpeg);
    row("in-process 8x (compressed)", local_jpeg);
    row("serve 8c (decoded, socket)", serve_px);
    row("in-process 8x (decoded)", local_px);
  }
  if (run_shm) row("serve 8c (decoded, shm plane)", serve_shm);
  if (run_socket) {
    printf("\ncompressed-plane serve/in-process ratio: %.2fx (gated)\n",
           ratio(serve_jpeg, local_jpeg));
    printf("decoded-socket   serve/in-process ratio: %.2fx\n",
           ratio(serve_px, local_px));
    fairness("decoded, socket", serve_px);
    latency("compressed", serve_jpeg);
    latency("decoded", serve_px);
  }
  if (run_shm) {
    latency("shm", serve_shm);
    printf("shm plane: %.0f descriptor batches, %.1f MiB copied daemon-side "
           "per rep (one placement copy per batch)\n",
           serve_shm.Median(&R::shm_batches),
           serve_shm.Median(&R::bytes_copied) / (1024.0 * 1024.0));
    fairness("shm", serve_shm);
  }
  if (run_socket && run_shm) {
    printf("\nshm/socket decoded-plane ratio: %.2fx (gated >= 3x "
           "within-run)\n",
           ratio(serve_shm, serve_px));
  }

  const auto report = [](const std::string& prefix, const PhaseResult& r,
                         bool served) {
    const double wall = r.Median(&R::wall);
    ReportMetric(prefix + "/items_per_sec", kClients * kReps, wall,
                 r.Median(&R::bytes), r.Median(&R::rate));
    ReportMetric(prefix + "/items_per_sec_cv", kReps, wall, 0,
                 r.Cv(&R::rate), "ratio");
    if (!served) return;
    ReportMetric(prefix + "/fairness_ratio", kClients * kReps, wall, 0,
                 r.Median(&R::fairness), "ratio");
    ReportMetric(prefix + "/fairness_ratio_cv", kReps, wall, 0,
                 r.Cv(&R::fairness), "ratio");
    ReportMetric(prefix + "/batch_p50_sec", kClients * kReps, wall, 0,
                 r.Median(&R::batch_p50), "s");
    ReportMetric(prefix + "/batch_p99_sec", kClients * kReps, wall, 0,
                 r.Median(&R::batch_p99), "s");
    ReportMetric(prefix + "/queue_wait_p99_sec", kClients * kReps, wall, 0,
                 r.Median(&R::queue_wait_p99), "s");
  };
  if (run_socket) {
    report("serve_8c_jpeg", serve_jpeg, true);
    report("inprocess_8x_jpeg", local_jpeg, false);
    report("serve_8c", serve_px, true);
    report("inprocess_8x", local_px, false);
    ReportMetric("serve_8c/client_min/items_per_sec", kReps,
                 serve_px.Median(&R::wall), 0, serve_px.Median(&R::min_rate));
    ReportMetric("serve_8c/client_max/items_per_sec", kReps,
                 serve_px.Median(&R::wall), 0, serve_px.Median(&R::max_rate));
  }
  if (run_shm) {
    report("serve_8c_shm", serve_shm, true);
    ReportMetric("serve_8c_shm/shm_batches", kClients * kReps,
                 serve_shm.Median(&R::wall), 0,
                 serve_shm.Median(&R::shm_batches), "count");
  }
  return 0;
}
