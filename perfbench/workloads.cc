#include "workloads.h"

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <atomic>
#include <memory>
#include <thread>

#include "bench_common.h"
#include "closed_loop.h"
#include "core/pcr_dataset.h"
#include "jpeg/codec.h"
#include "loader/decode_cache.h"
#include "loader/pipeline.h"
#include "loader/prefix_cache.h"
#include "loader/sampler.h"
#include "replay.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "stats.h"
#include "storage/sim_env.h"
#include "util/clock.h"
#include "util/string_util.h"

namespace perfbench {

namespace {

/// Outstanding NextBatch requests per daemon client (double buffering).
constexpr int kClientWindow = 2;
/// A run repeats its set-up at least kMinSetUps times, and more (up to
/// kMaxSetUps) until the set-ups have taken kSetUpSeconds; setup_s is their
/// median. Set-ups of a few milliseconds need the extra repetitions to give
/// a steady median.
constexpr int kMinSetUps = 5;
constexpr int kMaxSetUps = 50;
constexpr double kSetUpSeconds = 1.0;
/// The steady-state (window.*) figures are medians over about this many
/// windows of the measured phase.
constexpr int kRateWindows = 20;
/// peak_rss_mib is the median of the largest resident set size in each
/// span of this many seconds of the measured phase.
constexpr double kRssWindowSeconds = 1.0;
/// The fixture's decoded bytes per epoch at full fidelity: 1024 images of
/// 256x256x3.
constexpr uint64_t kDecodedEpochBytes = 1024ull * 256 * 256 * 3;
/// One batch in this many gets every pixel hashed; every batch gets the
/// per-page samples.
constexpr int kFullCheckEvery = 4;

double NowSeconds() { return NowNanos() * 1e-9; }

bool MoreSetUps(const std::vector<double>& done) {
  const int n = static_cast<int>(done.size());
  double total = 0;
  for (const double s : done) total += s;
  return n < kMinSetUps || (n < kMaxSetUps && total < kSetUpSeconds);
}

rusage ProcessUsage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage;
}

double Seconds(const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; }

double ProcessCpuSeconds() {
  const rusage usage = ProcessUsage();
  return Seconds(usage.ru_utime) + Seconds(usage.ru_stime);
}

/// The process's high-water resident set, set-up included, in MiB.
double HighWaterRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux.
}

/// Resident set size now, in MiB (/proc/self/statm).
double ResidentMib() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  return n == 2 ? resident * static_cast<double>(sysconf(_SC_PAGESIZE)) /
                      (1 << 20)
                : 0;
}

int CountThreads() {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  int threads = 0;
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') ++threads;
  }
  closedir(dir);
  return threads;
}

/// Samples process CPU time and resident set every 10 ms while alive, so CPU
/// can be charged to any stretch of the run, and keeps the resource usage at
/// both ends.
class ProcessMeter {
 public:
  ProcessMeter() : first_(ProcessUsage()), thread_([this] { Loop(); }) {}
  ~ProcessMeter() { Stop(); }
  ProcessMeter(const ProcessMeter&) = delete;
  ProcessMeter& operator=(const ProcessMeter&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) {
      thread_.join();
      last_ = ProcessUsage();
    }
  }

  /// Kernel share of the CPU time between construction and Stop(). The
  /// socket plane's copies and page faults run in the kernel.
  double SysShare() const {
    const double sys = Seconds(last_.ru_stime) - Seconds(first_.ru_stime);
    const double user = Seconds(last_.ru_utime) - Seconds(first_.ru_utime);
    return sys + user > 0 ? sys / (sys + user) : 0.0;
  }
  /// Minor page faults between construction and Stop().
  int64_t MinorFaults() const { return last_.ru_minflt - first_.ru_minflt; }

  /// Largest resident set sampled, in MiB.
  double PeakRssMib() const {
    double peak = 0;
    for (const double rss : rss_mib_) peak = std::max(peak, rss);
    return peak;
  }

  /// The median over consecutive `window`-second spans of each span's
  /// largest resident set sample, in MiB. A 12 MiB decoded record more or
  /// less in flight at the run's single highest sample moves the maximum by
  /// a fifth on a 60 MiB process; the typical span's peak does not.
  double MedianWindowPeakRssMib(double window) const {
    std::vector<double> peaks;
    for (size_t i = 0; i < samples_.size(); ++i) {
      const size_t span = static_cast<size_t>(
          (samples_[i].first - samples_.front().first) / window);
      if (span >= peaks.size()) peaks.resize(span + 1, 0.0);
      peaks[span] = std::max(peaks[span], rss_mib_[i]);
    }
    return Median(peaks);
  }

  /// Process CPU seconds at wall time `t`, interpolated between samples.
  /// Call after Stop().
  double CpuAt(double t) const {
    if (samples_.empty()) return 0;
    auto it = std::lower_bound(
        samples_.begin(), samples_.end(), t,
        [](const std::pair<double, double>& s, double v) { return s.first < v; });
    if (it == samples_.begin()) return it->second;
    if (it == samples_.end()) return samples_.back().second;
    const auto& [t1, c1] = *it;
    const auto& [t0, c0] = *(it - 1);
    return t1 > t0 ? c0 + (c1 - c0) * (t - t0) / (t1 - t0) : c1;
  }

 private:
  void Loop() {
    for (;;) {
      samples_.emplace_back(NowSeconds(), ProcessCpuSeconds());
      rss_mib_.push_back(ResidentMib());
      if (stop_.load()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  rusage first_;
  rusage last_{};
  std::atomic<bool> stop_{false};
  std::vector<std::pair<double, double>> samples_;  // (wall, cpu) seconds.
  std::vector<double> rss_mib_;
  std::thread thread_;
};

/// Samples the process's thread count every 10 ms while alive.
class ThreadCountSampler {
 public:
  ThreadCountSampler() : thread_([this] { Loop(); }) {}
  ~ThreadCountSampler() {
    stop_.store(true);
    thread_.join();
  }
  ThreadCountSampler(const ThreadCountSampler&) = delete;
  ThreadCountSampler& operator=(const ThreadCountSampler&) = delete;

  /// Peak seen, not counting the sampler's own thread.
  int peak() const { return std::max(0, peak_.load() - 1); }

 private:
  void Loop() {
    while (!stop_.load()) {
      peak_.store(std::max(peak_.load(), CountThreads()));
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  std::atomic<bool> stop_{false};
  std::atomic<int> peak_{0};
  std::thread thread_;
};

uint64_t StreamSeed(uint64_t seed, int client, int stream) {
  return Mix(seed * 0x9e3779b97f4a7c15ULL ^
             (static_cast<uint64_t>(client) << 32) ^
             static_cast<uint64_t>(stream));
}

Delivery FromLoaded(const pcr::LoadedBatch& batch) {
  Delivery d;
  d.record = batch.record_index;
  d.scan_group = batch.scan_group;
  d.labels = &batch.labels;
  for (const pcr::Image& img : batch.images) {
    d.images.push_back(DeliveredImage{static_cast<uint32_t>(img.width()),
                                      static_cast<uint32_t>(img.height()),
                                      static_cast<uint32_t>(img.channels()),
                                      img.data(), img.size_bytes()});
  }
  return d;
}

Delivery FromServed(const pcr::serve::ServedBatch& batch) {
  Delivery d;
  d.record = static_cast<int>(batch.record_index);
  d.scan_group = static_cast<int>(batch.scan_group);
  d.labels = &batch.labels;
  for (const pcr::serve::ServedImageView& view : batch.images()) {
    d.images.push_back(DeliveredImage{view.width, view.height, view.channels,
                                      view.data, view.length});
  }
  for (const std::string& jpeg : batch.jpegs()) d.jpegs.push_back(jpeg);
  return d;
}

/// What one consumer (a daemon client or the in-process consumer) saw.
struct ConsumerRun {
  std::string cls;  // Client class: full, g5, g1 or jpeg.
  int64_t images = 0;
  int64_t batches = 0;
  uint64_t bytes_read = 0;
  /// Storage bytes the delivered batches' records span at their scan
  /// groups: what they would read with no cache.
  uint64_t prefix_bytes = 0;
  double wall = 0;  // Measurement start -> last batch consumed.
  double start = 0, deadline = 0;  // The measured phase.
  std::vector<double> waits;
  std::vector<Completion> completions;  // Measured batches, wall clock.
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t full_checks = 0;
  std::string first_error;
  // Traced runs only.
  std::vector<double> send_seconds;
  std::vector<double> receive_cpu_seconds;
  /// Compressed-plane clients: thread CPU of each image's jpeg::Decode.
  std::vector<double> decode_cpu_seconds;
  std::vector<pcr::serve::StreamStats> streams;
  /// Decode-cache misses, and those of them whose record prefix was at
  /// least partly resident (the batch read less than its prefix bytes).
  int64_t decode_misses = 0;
  int64_t resident_misses = 0;

  /// Images in batches consumed by the deadline.
  double MeasuredImages() const {
    double images = 0;
    for (const Completion& c : completions) {
      if (c.at <= deadline) images += c.images;
    }
    return images;
  }
  /// When the last batch consumed by the deadline was consumed.
  double MeasuredEnd() const {
    double end = start;
    for (const Completion& c : completions) {
      if (c.at <= deadline) end = std::max(end, c.at);
    }
    return end;
  }
  double MeasuredRate() const {
    return MeasuredImages() / std::max(1e-9, MeasuredEnd() - start);
  }

  void Absorb(StreamChecker& checker) {
    checker.Finish();
    failed += checker.failures();
    full_checks += checker.full_checks();
    if (first_error.empty()) first_error = checker.first_error();
  }
  void Note(const std::string& why) {
    if (first_error.empty()) first_error = why;
  }
};

/// Counters of every pipeline a consumer ran, summed.
struct PipelineTotals {
  double io_busy = 0, io_idle = 0, decode_busy = 0, decode_idle = 0;
  double io_stall = 0, decode_stall = 0;
  int64_t io_items = 0, io_ops = 0, io_syscalls = 0, io_retries = 0;
  int64_t prefix_hits = 0, prefix_misses = 0;
  pcr::StageStatsSnapshot longest;  // I/O stage of the stream that fetched most.
  std::string backend;
  /// The first stream's first Next(), taken in set-up: its stall is in the
  /// stall counters, so it belongs in their denominator too.
  double first_wait = 0;

  void Add(const pcr::LoaderPipeline& pipeline) {
    const pcr::StageStatsSnapshot io = pipeline.io_stats();
    const pcr::StageStatsSnapshot decode = pipeline.decode_stats();
    io_busy += io.busy_seconds;
    io_idle += io.idle_seconds;
    decode_busy += decode.busy_seconds;
    decode_idle += decode.idle_seconds;
    io_stall += pipeline.io_stall_seconds();
    decode_stall += pipeline.decode_stall_seconds();
    io_items += io.items;
    io_ops += io.io_ops;
    io_syscalls += io.io_syscalls;
    io_retries += io.io_retries;
    prefix_hits += io.prefix_hits;
    prefix_misses += io.prefix_misses;
    if (io.items >= longest.items) longest = io;
    if (!io.io_backend.empty()) backend = io.io_backend;
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The measured phase runs from the end of set-up to the last batch any
/// consumer consumed by the deadline. images_per_s: images delivered in it,
/// across consumers, over its length. cpu_ms_per_image: process CPU in it
/// per image delivered in it. Stalls, stream re-opens and pipeline ramps all
/// count. The window.* figures are the steady-state view: each consumer's
/// median rate over windows of its own completions (see CompletionWindows),
/// summed, and the median over windows of all completions of CPU per image.
void ReportRates(const std::vector<const ConsumerRun*>& runs,
                 const ProcessMeter& cpu, RunReport* report) {
  const double start = runs.front()->start;
  double end = start;
  double measured_images = 0;
  double all_images = 0;
  double window_rate = 0;
  std::vector<Completion> all;
  for (const ConsumerRun* run : runs) {
    measured_images += run->MeasuredImages();
    end = std::max(end, run->MeasuredEnd());
    all_images += static_cast<double>(run->images);
    std::vector<double> rates;
    for (const Window& w : CompletionWindows(run->completions, kRateWindows)) {
      rates.push_back(Ratio(w.images, w.end - w.start));
    }
    window_rate += Median(rates);
    all.insert(all.end(), run->completions.begin(), run->completions.end());
  }
  std::vector<double> window_cpu;
  for (const Window& w : CompletionWindows(std::move(all), kRateWindows)) {
    window_cpu.push_back(Ratio(cpu.CpuAt(w.end) - cpu.CpuAt(w.start),
                               w.images));
  }
  const double seconds = end - start;
  const double cpu_seconds = cpu.CpuAt(end) - cpu.CpuAt(start);
  auto& m = report->metrics;
  m["images_per_s"] = Ratio(measured_images, seconds);
  m["cpu_ms_per_image"] = Ratio(cpu_seconds, measured_images) * 1e3;
  m["window.images_per_s"] = window_rate;
  m["window.cpu_ms_per_image"] = Median(window_cpu) * 1e3;
  m["process.cpu_cores"] = Ratio(cpu_seconds, seconds);
  m["process.sys_share"] = cpu.SysShare();
  m["process.minor_faults_per_image"] =
      Ratio(static_cast<double>(cpu.MinorFaults()), all_images);
  m["peak_rss_mib"] = cpu.MedianWindowPeakRssMib(kRssWindowSeconds);
  m["process.peak_rss_max_mib"] = cpu.PeakRssMib();
}

// --- In-process workloads ----------------------------------------------------

/// Where an in-process workload reads the fixture: the local filesystem,
/// or a fresh simulated remote store holding an import of it (fresh, so an
/// abandoned set-up's reads do not occupy the next one's device).
struct Storage {
  std::unique_ptr<pcr::SimEnv> remote;
  pcr::Env* env = nullptr;
  std::string dir;
};

pcr::Result<Storage> OpenStorage(const std::string& workload,
                                 const Fixture& fixture) {
  Storage storage;
  storage.env = pcr::Env::Default();
  storage.dir = fixture.pcr_dir;
  if (workload == "remote_full") {
    PCR_ASSIGN_OR_RETURN(std::unique_ptr<pcr::PcrDataset> local,
                         pcr::PcrDataset::Open(storage.env, fixture.pcr_dir));
    storage.remote = std::make_unique<pcr::SimEnv>(
        pcr::bench::CalibratedStorage(local.get(), fixture.name),
        pcr::RealClock::Get());
    storage.dir = "/remote/pcr";
    PCR_RETURN_IF_ERROR(storage.remote->ImportTree(
        storage.env, fixture.pcr_dir, storage.dir));
    storage.env = storage.remote.get();
  }
  return storage;
}

struct InProcessStream {
  Storage storage;
  std::unique_ptr<pcr::PcrDataset> dataset;       // Reads `storage`.
  std::unique_ptr<pcr::LoaderPipeline> pipeline;  // Reads `dataset`.
  std::unique_ptr<StreamChecker> checker;
  double first_wait = 0;  // The set-up's Next() for the first batch.

  /// Stops the pipeline before what it reads goes away.
  void Reset() {
    pipeline.reset();
    checker.reset();
    dataset.reset();
    storage = Storage{};
  }
};

/// Starts the consumer's stream number `serial`: a one-epoch pipeline with
/// default options, and its checker.
void StartInProcessStream(const Fixture& fixture, uint64_t seed, int serial,
                          InProcessStream* s) {
  pcr::LoaderPipelineOptions options;
  options.max_epochs = 1;
  options.seed = StreamSeed(seed, 0, serial);
  s->pipeline.reset();  // The previous stream's threads stop first.
  s->pipeline =
      std::make_unique<pcr::LoaderPipeline>(s->dataset.get(), options);
  s->checker = std::make_unique<StreamChecker>(
      fixture.oracle, fixture.num_scan_groups, true, kFullCheckEvery,
      options.seed);
}

/// Set-up: open the dataset, start a one-epoch pipeline, take its first
/// batch. Returns the stream ready for the measured phase.
pcr::Status SetUpInProcess(const Fixture& fixture, uint64_t seed,
                           InProcessStream* stream) {
  InProcessStream& s = *stream;
  PCR_ASSIGN_OR_RETURN(s.dataset,
                       pcr::PcrDataset::Open(s.storage.env, s.storage.dir));
  StartInProcessStream(fixture, seed, 0, &s);
  const double t0 = NowSeconds();
  PCR_ASSIGN_OR_RETURN(pcr::LoadedBatch first, s.pipeline->Next());
  s.first_wait = NowSeconds() - t0;
  s.checker->Check(FromLoaded(first));
  return pcr::Status::OK();
}

pcr::Status RunInProcess(const RunOptions& options, const Fixture& fixture,
                         RunReport* report, ConsumerRun* run,
                         PipelineTotals* totals) {
  InProcessStream stream;
  while (MoreSetUps(report->setup_seconds)) {
    if (stream.pipeline != nullptr) {
      // An abandoned set-up: only its first batch was attempted.
      run->attempted += 1;
      run->failed += stream.checker->failures();
      stream.Reset();
    }
    PCR_ASSIGN_OR_RETURN(stream.storage,
                         OpenStorage(options.workload, fixture));
    const double t0 = NowSeconds();
    PCR_RETURN_IF_ERROR(SetUpInProcess(fixture, options.seed, &stream));
    report->setup_seconds.push_back(NowSeconds() - t0);
  }
  totals->first_wait = stream.first_wait;

  ProcessMeter cpu;
  const double start = NowSeconds();
  const double deadline = start + options.seconds;
  run->start = start;
  run->deadline = deadline;
  // One-epoch streams, as a daemon client runs them, until the deadline; the
  // stream running at the deadline is consumed to its end and checked.
  int serial = 0;
  for (;;) {
    const double t0 = NowSeconds();
    pcr::Result<pcr::LoadedBatch> batch = stream.pipeline->Next();
    const double t1 = NowSeconds();
    if (batch.ok()) {
      run->waits.push_back(t1 - t0);
      stream.checker->Check(FromLoaded(*batch));
      run->completions.push_back({t1, static_cast<double>(batch->size())});
      run->images += batch->size();
      run->batches += 1;
      run->bytes_read += batch->bytes_read;
      run->wall = t1 - start;
      continue;
    }
    run->attempted += fixture.num_records;
    totals->Add(*stream.pipeline);
    // Finish() counts what an ended or failed stream still owed.
    run->Absorb(*stream.checker);
    if (batch.status().code() != pcr::StatusCode::kOutOfRange) {
      run->Note("pipeline failed: " + batch.status().ToString());
      break;
    }
    if (t1 >= deadline) break;
    StartInProcessStream(fixture, options.seed, ++serial, &stream);
  }
  cpu.Stop();
  ReportRates({run}, cpu, report);
  stream.Reset();
  return pcr::Status::OK();
}

// --- Daemon workloads --------------------------------------------------------

struct ClientSpec {
  const char* cls;
  bool decode;
  int scan_group;  // 0 = full fidelity.
  bool shm;
};

struct DaemonClient {
  ClientSpec spec{};
  int index = 0;
  std::unique_ptr<pcr::serve::PcrClient> client;
  uint64_t stream_id = 0;
  int serial = 0;
  std::unique_ptr<StreamChecker> checker;
  std::unique_ptr<ClosedLoopWindow> window;
  /// The current stream's deliveries, and those that read less than their
  /// record's prefix bytes (a decode-cache hit or a resident prefix).
  int64_t stream_batches = 0;
  int64_t stream_resident = 0;
  /// Compressed-plane clients decode what they receive, as a trainer does.
  pcr::jpeg::DecodeScratch scratch;
  ConsumerRun run;
};

int ExpectedGroup(const ClientSpec& spec, const Fixture& fixture) {
  return spec.scan_group == 0 ? fixture.num_scan_groups : spec.scan_group;
}

/// Opens the client's next one-epoch stream. The window budgets one request
/// past the last batch, whose reply must be end-of-stream.
pcr::Status OpenClientStream(DaemonClient* c, const Fixture& fixture,
                             uint64_t seed) {
  pcr::serve::OpenStreamRequest open;
  open.dataset_dir = fixture.pcr_dir;
  open.scan_group = static_cast<uint32_t>(c->spec.scan_group);
  open.max_epochs = 1;
  open.shuffle = true;
  open.seed = StreamSeed(seed, c->index, c->serial);
  open.decode = c->spec.decode;
  open.max_inflight = kClientWindow;
  open.shm_plane = c->spec.shm;
  PCR_ASSIGN_OR_RETURN(pcr::serve::StreamOpenedReply opened,
                       c->client->OpenStream(open));
  c->stream_id = opened.stream_id;
  c->stream_batches = 0;
  c->stream_resident = 0;
  c->run.attempted += fixture.num_records;
  c->checker = std::make_unique<StreamChecker>(
      fixture.oracle, ExpectedGroup(c->spec, fixture), c->spec.decode,
      kFullCheckEvery, open.seed);
  c->window =
      std::make_unique<ClosedLoopWindow>(kClientWindow, fixture.num_records + 1);
  return pcr::Status::OK();
}

/// Checks one delivered batch and counts what it read; returns the storage
/// bytes its record's prefix spans at the batch's scan group.
uint64_t TakeDelivery(DaemonClient* c, const Fixture& fixture,
                      const pcr::serve::ServedBatch& batch) {
  c->checker->Check(FromServed(batch));
  const uint64_t prefix = fixture.ReadBytes(
      static_cast<int>(batch.record_index), static_cast<int>(batch.scan_group));
  c->stream_batches += 1;
  if (batch.bytes_read < prefix) c->stream_resident += 1;
  return prefix;
}

/// Decodes a compressed-plane batch's JPEG streams, as a trainer on that
/// plane does before it can use the batch; returns false if one fails.
/// Traced runs record each decode's thread CPU.
bool DecodeJpegs(DaemonClient* c, const pcr::serve::ServedBatch& batch,
                 bool trace) {
  for (const std::string& jpeg : batch.jpegs()) {
    const int64_t decode0 = trace ? ThreadCpuNanos() : 0;
    if (!pcr::jpeg::Decode(jpeg, &c->scratch).ok()) return false;
    if (trace) {
      c->run.decode_cpu_seconds.push_back((ThreadCpuNanos() - decode0) * 1e-9);
    }
  }
  return true;
}

/// Sends what the window allows, then takes one reply and checks it.
/// Returns false once the client cannot continue; the stream's checker then
/// counts what it still owed.
bool PumpOne(DaemonClient* c, const Fixture& fixture, bool trace,
             double start) {
  ConsumerRun& run = c->run;
  while (c->window->CanSend()) {
    const double t0 = NowSeconds();
    const pcr::Status sent = c->client->SendNextBatchRequest(c->stream_id);
    if (trace) run.send_seconds.push_back(NowSeconds() - t0);
    if (!sent.ok()) {
      run.Note("send failed: " + sent.ToString());
      return false;
    }
    c->window->OnSend(t0);
  }
  const int64_t cpu0 = trace ? ThreadCpuNanos() : 0;
  pcr::Result<pcr::serve::ServedBatch> batch =
      c->client->ReceiveServedBatch(c->stream_id);
  if (trace) run.receive_cpu_seconds.push_back((ThreadCpuNanos() - cpu0) * 1e-9);
  const double now = NowSeconds();
  const double wait = c->window->OnReceive(now);
  if (!batch.ok()) {
    run.Note("receive failed: " + batch.status().ToString());
    return false;
  }
  if (batch->end_of_stream) return true;  // Early ends show at Finish().
  run.prefix_bytes += TakeDelivery(c, fixture, *batch);
  if (!DecodeJpegs(c, *batch, trace)) {
    run.failed += 1;
    run.Note("client-side decode failed");
  }
  batch->Release();
  const double consumed = NowSeconds();
  run.waits.push_back(wait);
  run.completions.push_back(
      {consumed, static_cast<double>(batch->labels.size())});
  run.images += static_cast<int64_t>(batch->labels.size());
  run.batches += 1;
  run.bytes_read += batch->bytes_read;
  run.wall = consumed - start;
  return true;
}

/// Finishes the client's current stream: counts what it owed, reads its
/// serving stats (traced runs), and closes it.
pcr::Status FinishClientStream(DaemonClient* c, bool trace) {
  c->run.Absorb(*c->checker);
  if (trace) {
    PCR_ASSIGN_OR_RETURN(pcr::serve::StatsReply stats,
                         c->client->GetStats(c->stream_id));
    for (const pcr::serve::StreamStats& s : stats.streams) {
      if (s.stream_id != c->stream_id) continue;
      c->run.streams.push_back(s);
      // Every decode-cache hit reads nothing, so the resident deliveries
      // beyond the hits are misses served from resident prefixes.
      c->run.decode_misses +=
          std::max<int64_t>(0, c->stream_batches - s.cache_hits);
      c->run.resident_misses +=
          std::max<int64_t>(0, c->stream_resident - s.cache_hits);
    }
  }
  return c->client->CloseStream(c->stream_id).status();
}

struct DaemonSetup {
  std::unique_ptr<pcr::serve::PcrDaemon> daemon;
  std::vector<std::unique_ptr<DaemonClient>> clients;
  ConsumerRun warm_up;  // The warm-up epoch's checks, when there is one.
};

/// Warms the daemon's decode cache: one client runs one full-fidelity epoch,
/// every batch checked, and disconnects.
pcr::Status WarmUp(const RunOptions& options, const Fixture& fixture,
                   const std::string& socket_path, int index,
                   ConsumerRun* run) {
  DaemonClient c;
  c.spec = ClientSpec{"warm", true, 0, true};
  c.index = index;
  PCR_ASSIGN_OR_RETURN(c.client, pcr::serve::PcrClient::Connect(
                                     socket_path, "perfbench-warm-up"));
  PCR_RETURN_IF_ERROR(OpenClientStream(&c, fixture, options.seed));
  bool alive = true;
  while (alive && !c.window->done()) {
    alive = PumpOne(&c, fixture, false, NowSeconds());
  }
  const pcr::Status finished =
      alive ? FinishClientStream(&c, false) : pcr::Status::OK();
  if (!alive) c.run.Absorb(*c.checker);
  c.client->Close();
  run->attempted += c.run.attempted;
  run->failed += c.run.failed;
  run->Note(c.run.first_error);
  if (!alive) return pcr::Status::Aborted("warm-up: " + c.run.first_error);
  return finished;
}

/// Set-up: start the daemon, warm its cache (`warm`), connect every client,
/// open its first one-epoch stream and take its first batch (decoded, on
/// the compressed plane, as every later batch is).
pcr::Result<DaemonSetup> SetUpDaemon(const RunOptions& options,
                                     const Fixture& fixture,
                                     pcr::serve::DaemonOptions daemon_options,
                                     const std::vector<ClientSpec>& specs,
                                     bool warm, int rep) {
  DaemonSetup s;
  daemon_options.socket_path = pcr::StrFormat(
      "%s/d%d-%d.sock", options.work_dir.c_str(), static_cast<int>(getpid()),
      rep);
  PCR_ASSIGN_OR_RETURN(s.daemon, pcr::serve::PcrDaemon::Start(
                                     pcr::Env::Default(), daemon_options));
  if (warm) {
    PCR_RETURN_IF_ERROR(WarmUp(options, fixture, s.daemon->socket_path(),
                               static_cast<int>(specs.size()), &s.warm_up));
  }
  for (size_t i = 0; i < specs.size(); ++i) {
    auto c = std::make_unique<DaemonClient>();
    c->spec = specs[i];
    c->index = static_cast<int>(i);
    c->run.cls = specs[i].cls;
    PCR_ASSIGN_OR_RETURN(
        c->client,
        pcr::serve::PcrClient::Connect(
            s.daemon->socket_path(),
            pcr::StrFormat("perfbench-%s-%zu", specs[i].cls, i)));
    PCR_RETURN_IF_ERROR(OpenClientStream(c.get(), fixture, options.seed));
    // One request only, so no measured wait straddles the end of set-up.
    const double t0 = NowSeconds();
    PCR_RETURN_IF_ERROR(c->client->SendNextBatchRequest(c->stream_id));
    c->window->OnSend(t0);
    PCR_ASSIGN_OR_RETURN(pcr::serve::ServedBatch first,
                         c->client->ReceiveServedBatch(c->stream_id));
    c->window->OnReceive(NowSeconds());
    TakeDelivery(c.get(), fixture, first);
    if (!DecodeJpegs(c.get(), first, false)) {
      return pcr::Status::Corruption("client-side decode failed in set-up");
    }
    s.clients.push_back(std::move(c));
  }
  return s;
}

/// One client's measured phase: closed loop over one-epoch streams until
/// the deadline. A trainer re-opens a stream per epoch (the daemon refuses
/// unbounded streams), and each new stream gets fresh daemon threads, so a
/// run averages over where they land instead of riding one placement.
void RunClient(DaemonClient* c, const Fixture& fixture,
               const RunOptions& options, double start, double deadline) {
  for (;;) {
    bool alive = true;
    while (alive && !c->window->done()) {
      alive = PumpOne(c, fixture, options.trace, start);
    }
    if (!alive) {
      c->run.Absorb(*c->checker);
      c->client->Close();
      return;
    }
    const double done_at = NowSeconds();
    const pcr::Status finished = FinishClientStream(c, options.trace);
    if (!finished.ok()) {
      c->run.failed += 1;
      c->run.Note("stream close failed: " + finished.ToString());
      return;
    }
    if (done_at >= deadline) return;
    ++c->serial;
    const pcr::Status opened = OpenClientStream(c, fixture, options.seed);
    if (!opened.ok()) {
      c->run.attempted += fixture.num_records;
      c->run.failed += fixture.num_records;
      c->run.Note("open failed: " + opened.ToString());
      return;
    }
  }
}

pcr::Status RunDaemon(const RunOptions& options, const Fixture& fixture,
                      const pcr::serve::DaemonOptions& daemon_options,
                      const std::vector<ClientSpec>& specs, bool warm,
                      RunReport* report, std::vector<ConsumerRun>* runs) {
  ConsumerRun setup;
  DaemonSetup s;
  for (int rep = 0; MoreSetUps(report->setup_seconds); ++rep) {
    if (s.daemon != nullptr) {
      for (auto& c : s.clients) {
        // An abandoned set-up: only its first batch was attempted.
        setup.attempted += 1;
        setup.failed += c->checker->failures();
        setup.Note(c->checker->first_error());
        c->client->Close();
      }
      s.clients.clear();
      s.daemon.reset();
    }
    const double t0 = NowSeconds();
    PCR_ASSIGN_OR_RETURN(
        s, SetUpDaemon(options, fixture, daemon_options, specs, warm, rep));
    report->setup_seconds.push_back(NowSeconds() - t0);
    setup.attempted += s.warm_up.attempted;
    setup.failed += s.warm_up.failed;
    setup.Note(s.warm_up.first_error);
  }

  const pcr::DecodeCacheStats cache_before = s.daemon->decode_cache()->stats();
  ProcessMeter cpu;
  const double start = NowSeconds();
  const double deadline = start + options.seconds;
  for (auto& c : s.clients) {
    c->run.start = start;
    c->run.deadline = deadline;
  }
  {
    std::vector<std::thread> threads;
    for (auto& c : s.clients) {
      threads.emplace_back(RunClient, c.get(), std::cref(fixture),
                           std::cref(options), start, deadline);
    }
    for (std::thread& t : threads) t.join();
  }
  cpu.Stop();
  const pcr::DecodeCacheStats cache_after = s.daemon->decode_cache()->stats();
  for (auto& c : s.clients) c->client->Close();
  s.daemon->Stop();

  int64_t batches = 0;
  for (auto& c : s.clients) {
    batches += c->run.batches;
    runs->push_back(std::move(c->run));
  }
  runs->front().attempted += setup.attempted;
  runs->front().failed += setup.failed;
  if (runs->front().first_error.empty()) {
    runs->front().first_error = setup.first_error;
  }
  std::vector<const ConsumerRun*> measured;
  double client_decode = 0;
  for (const ConsumerRun& run : *runs) {
    measured.push_back(&run);
    for (const double d : run.decode_cpu_seconds) client_decode += d;
  }
  ReportRates(measured, cpu, report);
  if (options.trace) {
    // The clients' decode CPU over the process's, from the start to the
    // last client's end (after Stop(), CpuAt(now) is the last sample).
    report->metrics["jpeg.client_decode_cpu_share"] = Ratio(
        client_decode, cpu.CpuAt(NowSeconds()) - cpu.CpuAt(start));
  }
  const double hits = cache_after.hits - cache_before.hits;
  const double misses = cache_after.misses - cache_before.misses;
  const double evictions =
      (cache_after.evictions - cache_before.evictions) +
      (cache_after.share_evictions - cache_before.share_evictions);
  report->metrics["loader.decode_cache_hit_rate"] = Ratio(hits, hits + misses);
  report->metrics["loader.decode_cache_evictions_per_batch"] =
      Ratio(evictions, static_cast<double>(batches));
  return pcr::Status::OK();
}

/// Serving-stage counters of every stream the clients ran (traced runs).
void ReportServeStats(const std::vector<ConsumerRun>& runs,
                      RunReport* report) {
  double served = 0, shm = 0, copied = 0, bytes = 0, zero_copy = 0,
         slot_waits = 0;
  std::vector<double> qw50, qw99, sv50, sv99, transport;
  for (const ConsumerRun& run : runs) {
    const pcr::serve::StreamStats* longest = nullptr;
    for (const pcr::serve::StreamStats& s : run.streams) {
      served += s.served_batches;
      shm += s.shm_batches;
      copied += s.bytes_copied;
      bytes += s.served_bytes;
      zero_copy += s.zero_copy_hits;
      slot_waits += s.shm_slot_waits;
      if (longest == nullptr || s.served_batches > longest->served_batches) {
        longest = &s;
      }
    }
    if (longest != nullptr) {
      qw50.push_back(longest->queue_wait_p50_sec);
      qw99.push_back(longest->queue_wait_p99_sec);
      sv50.push_back(longest->batch_p50_sec);
      sv99.push_back(longest->batch_p99_sec);
      // What the client waited beyond the daemon's receipt -> reply-written.
      transport.push_back(Median(run.waits) - longest->batch_p50_sec);
    }
  }
  auto& m = report->metrics;
  m["serve.queue_wait_p50_ms"] = Mean(qw50) * 1e3;
  m["serve.queue_wait_p99_ms"] = Mean(qw99) * 1e3;
  m["serve.service_p50_ms"] = Mean(sv50) * 1e3;
  m["serve.service_p99_ms"] = Mean(sv99) * 1e3;
  m["serve.transport_p50_ms"] = Mean(transport) * 1e3;
  m["serve.shm_batch_share"] = Ratio(shm, served);
  m["serve.bytes_copied_per_byte"] = Ratio(copied, bytes);
  m["serve.zero_copy_hit_share"] = Ratio(zero_copy, served);
  m["serve.shm_slot_waits_per_batch"] = Ratio(slot_waits, served);
  std::vector<double> send, receive;
  for (const ConsumerRun& run : runs) {
    send.insert(send.end(), run.send_seconds.begin(), run.send_seconds.end());
    receive.insert(receive.end(), run.receive_cpu_seconds.begin(),
                   run.receive_cpu_seconds.end());
  }
  m["serve.client_send_us"] = Median(send) * 1e6;
  m["serve.client_receive_us"] = Median(receive) * 1e6;

  // The daemon's prefix cache, as its deliveries show it: a decode-cache
  // miss that read less than its record's prefix bytes found that prefix at
  // least partly resident (the PrefixCache's notion of a hit).
  double misses = 0, resident = 0;
  for (const ConsumerRun& run : runs) {
    misses += static_cast<double>(run.decode_misses);
    resident += static_cast<double>(run.resident_misses);
    m["serve.storage_read_share." + run.cls] =
        Ratio(static_cast<double>(run.bytes_read),
              static_cast<double>(run.prefix_bytes));
  }
  m["loader.prefix_hit_rate"] = Ratio(resident, misses);
}

// --- Traced replay -----------------------------------------------------------

/// One shuffled epoch of record indices (the loader's own sampler).
std::vector<int> EpochOrder(int records, uint64_t seed) {
  pcr::RecordSampler sampler(records, true, seed);
  std::vector<int> order;
  for (int i = 0; i < records; ++i) order.push_back(sampler.Next());
  return order;
}

/// Per-request sums of the spans named in `names`, for requests that have
/// any.
std::vector<double> PerRequestSums(const Tracer& tracer,
                                   const std::vector<std::string>& names) {
  std::map<int64_t, double> sums;
  for (const Span& span : tracer.spans()) {
    if (span.parent < 0) continue;
    if (std::find(names.begin(), names.end(), span.name) != names.end()) {
      sums[span.request] += span.seconds();
    }
  }
  std::vector<double> out;
  for (const auto& [request, sum] : sums) out.push_back(sum);
  return out;
}

pcr::Status RunReplay(const ReplayConfig& config,
                      const std::vector<ReplayRequest>& requests,
                      const Fixture& fixture, bool daemon_workload,
                      RunReport* report) {
  PCR_ASSIGN_OR_RETURN(ReplayResult replay, Replay(config, requests));
  const Tracer& tracer = replay.tracer;
  auto& m = report->metrics;
  const double coverage = Coverage(tracer);
  m["trace.coverage"] = coverage;
  report->budget = Budget(tracer, replay.wall_seconds);
  report->replay_seconds = replay.wall_seconds;
  const std::vector<double> reads = tracer.Durations(kSpanRead);
  m["storage.read_us"] = Median(reads) * 1e6;
  m["core.plan_us"] = Median(tracer.Durations(kSpanPlan)) * 1e6;
  m["core.assemble_us"] =
      Median(PerRequestSums(tracer, {kSpanComplete, kSpanAssemble})) * 1e6;
  const int full = fixture.num_scan_groups;
  m["jpeg.decode_us_per_image.full"] =
      Median(tracer.Durations(DecodeSpanName(full))) * 1e6;
  m["jpeg.decode_us_per_image.g5"] =
      Median(tracer.Durations(DecodeSpanName(5))) * 1e6;
  m["jpeg.decode_us_per_image.g1"] =
      Median(tracer.Durations(DecodeSpanName(1))) * 1e6;
  m["loader.cache_lookup_us"] =
      Median(PerRequestSums(tracer, {kSpanCacheLookup})) * 1e6;
  m["loader.cache_insert_us"] =
      Median(PerRequestSums(tracer, {kSpanCacheInsert})) * 1e6;
  if (daemon_workload) {
    // The daemon does not expose its pipelines' fetch latencies or prefix
    // lookups; these are the serial replay's, under their own names.
    m["replay.fetch_p50_ms"] = Percentile(reads, 50.0) * 1e3;
    m["replay.fetch_p99_ms"] = Percentile(reads, 99.0) * 1e3;
    m["replay.prefix_hit_rate"] =
        Ratio(static_cast<double>(replay.prefix_hits),
              static_cast<double>(replay.prefix_lookups));
  }
  if (coverage < 0.9) {
    return pcr::Status::FailedPrecondition(pcr::StrFormat(
        "trace coverage %.3f < 0.9: glue code outside the layer spans "
        "hides cost",
        coverage));
  }
  return pcr::Status::OK();
}

/// Interleaves one epoch per client, round-robin, as the daemon's streams
/// interleave.
std::vector<ReplayRequest> ClientEpochs(const std::vector<ClientSpec>& specs,
                                        const Fixture& fixture,
                                        uint64_t seed) {
  std::vector<std::vector<int>> orders;
  for (size_t i = 0; i < specs.size(); ++i) {
    orders.push_back(
        EpochOrder(fixture.num_records, StreamSeed(seed, static_cast<int>(i), 0)));
  }
  std::vector<ReplayRequest> requests;
  for (int k = 0; k < fixture.num_records; ++k) {
    for (size_t i = 0; i < specs.size(); ++i) {
      requests.push_back(ReplayRequest{orders[i][k],
                                       ExpectedGroup(specs[i], fixture),
                                       specs[i].decode});
    }
  }
  return requests;
}

// --- Reporting ---------------------------------------------------------------

void ReportConsumers(const std::vector<ConsumerRun>& runs, bool per_client,
                     RunReport* report) {
  auto& m = report->metrics;
  int64_t images = 0;
  uint64_t bytes_read = 0;
  std::vector<double> waits;
  for (const ConsumerRun& run : runs) {
    const double rate = run.MeasuredRate();
    images += run.images;
    bytes_read += run.bytes_read;
    waits.insert(waits.end(), run.waits.begin(), run.waits.end());
    report->consumers.push_back(pcr::StrFormat(
        "%-6s %8lld images in %7.3f s, %10.1f img/s by the deadline, "
        "wait p50 %.2f ms",
        run.cls.c_str(), static_cast<long long>(run.images), run.wall, rate,
        Median(run.waits) * 1e3));
    report->attempted += run.attempted;
    report->failed += run.failed;
    report->full_checks += run.full_checks;
    if (report->first_error.empty()) report->first_error = run.first_error;
  }
  const LatencySummary latency = SummarizeLatencies(waits);
  m["batch_p50_ms"] = latency.p50 * 1e3;
  m["batch_p95_ms"] = latency.p95 * 1e3;
  m["batch_samples"] = static_cast<double>(latency.samples);
  m["read_bytes_per_image"] =
      Ratio(static_cast<double>(bytes_read), static_cast<double>(images));
  if (per_client) {
    for (const ConsumerRun& run : runs) {
      m["serve.client_images_per_s." + run.cls] = run.MeasuredRate();
    }
  }
  m["failed_share"] = Ratio(static_cast<double>(report->failed),
                            static_cast<double>(report->attempted));
}

void ReportPipelines(const PipelineTotals& t, double wall, RunReport* report) {
  auto& m = report->metrics;
  m["storage.fetch_p50_ms"] = t.longest.fetch_p50_sec * 1e3;
  m["storage.fetch_p99_ms"] = t.longest.fetch_p99_sec * 1e3;
  m["storage.mean_in_flight"] = t.longest.mean_in_flight;
  m["storage.busy_share"] = Ratio(t.io_busy, t.io_busy + t.io_idle);
  m["storage.ops_per_record"] =
      Ratio(static_cast<double>(t.io_ops), static_cast<double>(t.io_items));
  m["storage.syscalls_per_record"] = Ratio(
      static_cast<double>(t.io_syscalls), static_cast<double>(t.io_items));
  m["storage.retries"] = static_cast<double>(t.io_retries);
  m["jpeg.decode_busy_share"] =
      Ratio(t.decode_busy, t.decode_busy + t.decode_idle);
  m["jpeg.decode_share_of_busy"] =
      Ratio(t.decode_busy, t.decode_busy + t.io_busy);
  m["loader.io_stall_share"] = Ratio(t.io_stall, wall + t.first_wait);
  m["loader.decode_stall_share"] =
      Ratio(t.decode_stall, wall + t.first_wait);
  m["loader.io_share_of_stalls"] =
      Ratio(t.io_stall, t.io_stall + t.decode_stall);
  m["loader.prefix_hit_rate"] =
      Ratio(static_cast<double>(t.prefix_hits),
            static_cast<double>(t.prefix_hits + t.prefix_misses));
  report->io_backend = t.backend;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"local_full", "remote_full",
                                                 "serve_warm", "serve_mixed",
                                                 "serve_compressed"};
  return names;
}

std::vector<int> OracleScanGroups(int num_scan_groups) {
  return {1, 5, num_scan_groups};
}

pcr::Result<RunReport> RunWorkload(const RunOptions& options,
                                   const Fixture& fixture) {
  RunReport report;
  ThreadCountSampler threads;
  std::vector<ConsumerRun> runs;
  const bool in_process =
      options.workload == "local_full" || options.workload == "remote_full";
  if (in_process) {
    ConsumerRun run;
    run.cls = "local";
    PipelineTotals totals;
    PCR_RETURN_IF_ERROR(
        RunInProcess(options, fixture, &report, &run, &totals));
    ReportPipelines(totals, run.wall, &report);
    runs.push_back(std::move(run));
    ReportConsumers(runs, false, &report);
    if (options.trace) {
      PCR_ASSIGN_OR_RETURN(Storage storage,
                           OpenStorage(options.workload, fixture));
      PCR_ASSIGN_OR_RETURN(
          std::unique_ptr<pcr::PcrDataset> dataset,
          pcr::PcrDataset::Open(storage.env, storage.dir));
      ReplayConfig config;
      config.source = dataset.get();
      config.env = storage.env;
      std::vector<ReplayRequest> requests;
      for (const int record : EpochOrder(fixture.num_records,
                                         StreamSeed(options.seed, 0, 0))) {
        requests.push_back({record, fixture.num_scan_groups, true});
      }
      PCR_RETURN_IF_ERROR(
          RunReplay(config, requests, fixture, false, &report));
    }
  } else if (options.workload == "serve_mixed" ||
             options.workload == "serve_warm" ||
             options.workload == "serve_compressed") {
    const bool warm = options.workload == "serve_warm";
    pcr::serve::DaemonOptions daemon_options;
    std::vector<ClientSpec> specs = {{"full", true, 0, true},
                                     {"g5", true, 5, true},
                                     {"g1", true, 1, true},
                                     {"jpeg", false, 0, false}};
    if (options.workload == "serve_compressed") {
      // Every client on the compressed plane, decoding what it receives:
      // two at full fidelity (their rates give serve.fairness), one at
      // group 5 and one at group 1.
      specs = {{"full", false, 0, false}, {"g5", false, 5, false},
               {"g1", false, 1, false}, {"full2", false, 0, false}};
    }
    if (warm) {
      // Room for four times the decoded working set, all of it for this
      // dataset: the cache's shards each hold an eighth, and records hash
      // to them unevenly, so twice the working set still evicts.
      daemon_options.decode_cache_bytes = 4 * kDecodedEpochBytes;
      daemon_options.dataset_cache_share = 1.0;
      specs.assign(4, ClientSpec{"full", true, 0, true});
    }
    PCR_RETURN_IF_ERROR(RunDaemon(options, fixture, daemon_options, specs,
                                  warm, &report, &runs));
    ReportConsumers(runs, !warm, &report);
    // Fairness among the clients that ask for what the first one asks for.
    std::vector<double> rates;
    for (size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].decode == specs[0].decode &&
          specs[i].scan_group == specs[0].scan_group &&
          specs[i].shm == specs[0].shm) {
        rates.push_back(runs[i].MeasuredRate());
      }
    }
    if (rates.size() > 1) {
      report.metrics["serve.fairness"] =
          Ratio(*std::min_element(rates.begin(), rates.end()),
                *std::max_element(rates.begin(), rates.end()));
    }
    if (options.trace) {
      ReportServeStats(runs, &report);
      // The daemon's cache configuration, replayed serially.
      PCR_ASSIGN_OR_RETURN(
          std::unique_ptr<pcr::PcrDataset> dataset,
          pcr::PcrDataset::Open(pcr::Env::Default(), fixture.pcr_dir));
      ReplayConfig config;
      config.source = dataset.get();
      config.env = pcr::Env::Default();
      pcr::DecodeCacheOptions cache_options;
      cache_options.capacity_bytes = daemon_options.decode_cache_bytes;
      config.decode_cache = std::make_shared<pcr::DecodeCache>(cache_options);
      config.decode_cache_id = config.decode_cache->RegisterDataset();
      config.decode_cache->SetDatasetByteCap(
          config.decode_cache_id,
          static_cast<uint64_t>(daemon_options.dataset_cache_share *
                                daemon_options.decode_cache_bytes));
      config.prefix_cache = std::make_shared<pcr::PrefixCache>(
          pcr::PrefixCacheOptions{daemon_options.prefix_cache_bytes});
      config.prefix_cache_id = config.prefix_cache->RegisterDataset();
      PCR_RETURN_IF_ERROR(RunReplay(config,
                                    ClientEpochs(specs, fixture, options.seed),
                                    fixture, true, &report));
      // A scan group the daemon decoded nothing at (it served it on the
      // compressed plane) gets the decode cost its clients measured.
      std::map<std::string, std::vector<double>> client_decodes;
      for (size_t i = 0; i < specs.size(); ++i) {
        const int group = ExpectedGroup(specs[i], fixture);
        const std::string name =
            group == fixture.num_scan_groups ? "full"
                                             : "g" + std::to_string(group);
        client_decodes[name].insert(client_decodes[name].end(),
                                    runs[i].decode_cpu_seconds.begin(),
                                    runs[i].decode_cpu_seconds.end());
      }
      for (const auto& [name, seconds] : client_decodes) {
        double& metric = report.metrics["jpeg.decode_us_per_image." + name];
        if (metric == 0 && !seconds.empty()) metric = Median(seconds) * 1e6;
      }
    }
  } else {
    return pcr::Status::InvalidArgument("unknown workload " +
                                        options.workload);
  }
  report.metrics["setup_s"] = Median(report.setup_seconds);
  report.metrics["process.rss_high_water_mib"] = HighWaterRssMib();
  report.metrics["serve.threads_peak"] = threads.peak();
  return report;
}

}  // namespace perfbench
