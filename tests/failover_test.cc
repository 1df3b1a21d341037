// Tests for the fault-tolerant read path: deterministic fault injection
// (FaultInjectionEnv) over the sync and async read paths, transient-error
// retry at the scheduler boundary, bounded completion waits (a wedged
// backend cannot hang teardown), phased SimDevice degradation, replica
// health/ejection in ReplicatedRecordSource, and the loader pipeline
// surviving replica failures with bit-identical records, exactly-once
// epochs, and hedged reads racing replicas under stalls.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pcr_dataset.h"
#include "core/file_per_image.h"
#include "core/replicated_record_source.h"
#include "data/dataset_spec.h"
#include "jpeg/codec.h"
#include "loader/pipeline.h"
#include "storage/fault_env.h"
#include "storage/io_retry.h"
#include "storage/sim_env.h"
#include "test_util.h"

namespace pcr {
namespace {

std::string MakeJpeg(int w, int h, uint64_t seed) {
  DatasetSpec spec = DatasetSpec::TestTiny();
  spec.base_width = w;
  spec.base_height = h;
  spec.size_jitter = 0;
  const Image img = GenerateImage(spec, static_cast<int>(seed % 3), seed);
  jpeg::EncodeOptions options;
  options.quality = 85;
  return jpeg::Encode(img, options).MoveValue();
}

/// Builds a PCR dataset of `num_images` images (labels base+i) in env:dir.
/// Same arguments produce byte-identical datasets — the replica invariant.
std::unique_ptr<PcrDataset> BuildPcrReplica(Env* env, const std::string& dir,
                                            int num_images,
                                            int images_per_record,
                                            int64_t label_base) {
  PcrWriterOptions options;
  options.images_per_record = images_per_record;
  auto writer = PcrDatasetWriter::Create(env, dir, options).MoveValue();
  for (int i = 0; i < num_images; ++i) {
    const std::string jpeg = MakeJpeg(40, 32, static_cast<uint64_t>(i));
    PCR_CHECK(writer->AddImage(Slice(jpeg), label_base + i).ok());
  }
  PCR_CHECK(writer->Finish().ok());
  return PcrDataset::Open(env, dir).MoveValue();
}

std::unique_ptr<FilePerImageDataset> BuildFpiReplica(Env* env,
                                                     const std::string& dir,
                                                     int num_images) {
  auto writer = FilePerImageWriter::Create(env, dir).MoveValue();
  for (int i = 0; i < num_images; ++i) {
    const std::string jpeg = MakeJpeg(40, 32, static_cast<uint64_t>(i));
    PCR_CHECK(writer->AddImage(Slice(jpeg), 100 + i).ok());
  }
  PCR_CHECK(writer->Finish().ok());
  return FilePerImageDataset::Open(env, dir).MoveValue();
}

Status SyncRead(Env* env, const std::string& path, uint64_t offset, size_t n,
                std::string* out) {
  auto file = env->NewRandomAccessFile(path);
  if (!file.ok()) return file.status();
  std::string scratch(n, '\0');
  Slice got;
  Status read = (*file)->Read(offset, n, scratch.data(), &got);
  if (read.ok()) out->assign(got.data(), got.size());
  return read;
}

// ------------------------------------------------------- Fault injection

TEST(FaultInjection, SyncReadsFollowTheSchedule) {
  VirtualClock clock;
  SimEnv base(DeviceProfile::Ram(), &clock);
  ASSERT_TRUE(base.WriteStringToFile("f", Slice("hello world")).ok());

  FaultRule rule;
  rule.fail_nth = 2;
  FaultInjectionEnv env(&base, {rule});

  std::string out;
  EXPECT_TRUE(SyncRead(&env, "f", 0, 5, &out).ok());
  EXPECT_EQ(out, "hello");
  EXPECT_TRUE(SyncRead(&env, "f", 0, 5, &out).IsIOError());
  EXPECT_TRUE(SyncRead(&env, "f", 6, 5, &out).ok());
  EXPECT_EQ(out, "world");

  const FaultStats stats = env.fault_stats();
  EXPECT_EQ(stats.reads_seen, 3);
  EXPECT_EQ(stats.errors, 1);

  // The schedule replays from the top after a reset.
  env.ResetSchedule();
  EXPECT_TRUE(SyncRead(&env, "f", 0, 5, &out).ok());
  EXPECT_TRUE(SyncRead(&env, "f", 0, 5, &out).IsIOError());
}

TEST(FaultInjection, RulesMatchByPathAndTruncateReads) {
  VirtualClock clock;
  SimEnv base(DeviceProfile::Ram(), &clock);
  ASSERT_TRUE(base.WriteStringToFile("alpha", Slice("aaaaaaaa")).ok());
  ASSERT_TRUE(base.WriteStringToFile("beta", Slice("bbbbbbbb")).ok());

  FaultRule fail_alpha;
  fail_alpha.path_substring = "alpha";
  fail_alpha.fail_first_n = 1;
  FaultRule truncate_beta;
  truncate_beta.path_substring = "beta";
  truncate_beta.fail_first_n = 1;
  truncate_beta.code = StatusCode::kOk;
  truncate_beta.short_read = true;
  truncate_beta.short_read_bytes = 2;
  FaultInjectionEnv env(&base, {fail_alpha, truncate_beta});

  std::string out;
  EXPECT_TRUE(SyncRead(&env, "alpha", 0, 8, &out).IsIOError());
  EXPECT_TRUE(SyncRead(&env, "alpha", 0, 8, &out).ok());  // Budget spent.

  // The beta rule delivers only 2 of the 8 requested bytes, once.
  EXPECT_TRUE(SyncRead(&env, "beta", 0, 8, &out).ok());
  EXPECT_EQ(out, "bb");
  EXPECT_TRUE(SyncRead(&env, "beta", 0, 8, &out).ok());
  EXPECT_EQ(out, "bbbbbbbb");
  EXPECT_EQ(env.fault_stats().short_reads, 1);
}

TEST(FaultInjection, SchedulerErrorsNeverReachTheBackend) {
  VirtualClock clock;
  SimEnv base(DeviceProfile::SataSsd(), &clock);
  ASSERT_TRUE(base.WriteStringToFile("f", Slice(std::string(4096, 'x'))).ok());

  FaultRule rule;
  rule.fail_nth = 1;
  FaultInjectionEnv env(&base, {rule});
  auto scheduler = env.NewIoScheduler(IoSchedulerOptions{});

  ASSERT_TRUE(scheduler->SubmitRead(ReadRequest::Range("f", 0, 4096, 7)).ok());
  auto failed = scheduler->WaitCompletion();
  ASSERT_TRUE(failed.ok());
  EXPECT_EQ(failed->user_data, 7u);
  EXPECT_TRUE(failed->status.IsIOError()) << failed->status;
  // The faulted read was absorbed at the wrapper: the device saw nothing.
  EXPECT_EQ(base.device()->stats().read_ops, 0);

  ASSERT_TRUE(scheduler->SubmitRead(ReadRequest::Range("f", 0, 4096, 8)).ok());
  auto served = scheduler->WaitCompletion();
  ASSERT_TRUE(served.ok());
  ASSERT_TRUE(served->status.ok()) << served->status;
  EXPECT_EQ(served->bytes.size(), 4096u);
  EXPECT_EQ(base.device()->stats().read_ops, 1);
}

TEST(FaultInjection, StallsChargeTheWrappedClock) {
  VirtualClock clock;
  SimEnv base(DeviceProfile::Ram(), &clock);
  ASSERT_TRUE(base.WriteStringToFile("f", Slice("payload")).ok());

  FaultRule stall;
  stall.fail_nth = 1;
  stall.code = StatusCode::kOk;
  stall.added_latency_sec = 5.0;
  FaultInjectionEnv env(&base, {stall});
  auto scheduler = env.NewIoScheduler(IoSchedulerOptions{});

  const int64_t start = clock.NowNanos();
  ASSERT_TRUE(scheduler->SubmitRead(ReadRequest::Range("f", 0, 7, 1)).ok());
  auto completion = scheduler->WaitCompletion();
  ASSERT_TRUE(completion.ok());
  EXPECT_TRUE(completion->status.ok()) << completion->status;
  EXPECT_EQ(completion->bytes, "payload");
  // The stall advanced the virtual clock — no real time passed.
  EXPECT_GE(clock.NowNanos() - start, SecondsToNanos(5.0));
  EXPECT_EQ(env.fault_stats().stalls, 1);
}

TEST(FaultInjection, AsyncShortReadsSurfaceAsErrors) {
  // The completion contract promises exactly the requested bytes, so a
  // scheduler-level short read must fail the request, not truncate it.
  VirtualClock clock;
  SimEnv base(DeviceProfile::Ram(), &clock);
  ASSERT_TRUE(base.WriteStringToFile("f", Slice("12345678")).ok());

  FaultRule truncate;
  truncate.fail_nth = 1;
  truncate.code = StatusCode::kOk;
  truncate.short_read = true;
  truncate.short_read_bytes = 3;
  FaultInjectionEnv env(&base, {truncate});
  auto scheduler = env.NewIoScheduler(IoSchedulerOptions{});

  ASSERT_TRUE(scheduler->SubmitRead(ReadRequest::Range("f", 0, 8, 1)).ok());
  auto completion = scheduler->WaitCompletion();
  ASSERT_TRUE(completion.ok());
  EXPECT_TRUE(completion->status.IsIOError()) << completion->status;
}

TEST(FaultInjection, ProbabilityStreamIsSeedDeterministic) {
  VirtualClock clock;
  SimEnv base(DeviceProfile::Ram(), &clock);
  ASSERT_TRUE(base.WriteStringToFile("f", Slice("x")).ok());

  FaultRule coin;
  coin.probability = 0.5;
  auto pattern = [&](uint64_t seed) {
    FaultInjectionEnv env(&base, {coin}, seed);
    std::string bits;
    std::string out;
    for (int i = 0; i < 64; ++i) {
      bits.push_back(SyncRead(&env, "f", 0, 1, &out).ok() ? '1' : '0');
    }
    return bits;
  };
  const std::string first = pattern(1234);
  EXPECT_EQ(first, pattern(1234));  // Same seed: same fault sequence.
  EXPECT_NE(first.find('0'), std::string::npos);
  EXPECT_NE(first.find('1'), std::string::npos);
}

// --------------------------------------------------- Bounded completion waits

TEST(WaitCompletionFor, ReportsNothingInFlight) {
  auto scheduler = Env::Default()->NewIoScheduler(IoSchedulerOptions{});
  EXPECT_EQ(scheduler->WaitCompletionFor(1'000'000).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(WaitCompletionFor, SimTimeoutAdvancesTheVirtualClock) {
  VirtualClock clock;
  DeviceProfile slow = DeviceProfile::Ram();
  slow.per_op_latency_sec = 1.0;  // Every read takes a virtual second.
  SimEnv env(slow, &clock);
  ASSERT_TRUE(env.WriteStringToFile("f", Slice("data")).ok());
  auto scheduler = env.NewIoScheduler(IoSchedulerOptions{});

  ASSERT_TRUE(scheduler->SubmitRead(ReadRequest::Range("f", 0, 4, 1)).ok());
  const int64_t start = clock.NowNanos();
  // 0.25 virtual seconds is before the read's service completes: the wait
  // must time out and advance the clock by exactly the timeout.
  auto timed_out = scheduler->WaitCompletionFor(SecondsToNanos(0.25));
  ASSERT_TRUE(timed_out.ok());
  EXPECT_FALSE(timed_out->has_value());
  EXPECT_EQ(clock.NowNanos() - start, SecondsToNanos(0.25));

  auto completion = scheduler->WaitCompletionFor(SecondsToNanos(10.0));
  ASSERT_TRUE(completion.ok());
  ASSERT_TRUE(completion->has_value());
  EXPECT_TRUE((*completion)->status.ok());
  EXPECT_GE(clock.NowNanos() - start, SecondsToNanos(1.0));
}

TEST(WaitCompletionFor, WedgedBackendCannotHangTeardown) {
  // A service thread stuck in the kernel (here: opening a FIFO with no
  // writer blocks forever) must neither block bounded waits nor the
  // scheduler's destructor — the regression WaitCompletionFor and the
  // detached-drain teardown exist for.
  const std::string dir = PerProcessTempDir("pcr_failover_wedge");
  ASSERT_TRUE(Env::Default()->CreateDir(dir).ok());
  const std::string fifo = dir + "/wedge_fifo";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);

  const auto start = std::chrono::steady_clock::now();
  {
    IoSchedulerOptions options;
    options.backend = IoBackend::kThreads;
    options.queue_depth = 2;
    options.io_threads = 2;
    auto scheduler = Env::Default()->NewIoScheduler(options);
    ASSERT_TRUE(
        scheduler->SubmitRead(ReadRequest::Range(fifo, 0, 16, 1)).ok());
    auto waited = scheduler->WaitCompletionFor(20'000'000);  // 20ms.
    ASSERT_TRUE(waited.ok()) << waited.status();
    EXPECT_FALSE(waited->has_value());  // Timed out, didn't block.
    // Destructor: must return without joining the wedged read.
  }
  const double teardown_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(teardown_sec, 5.0);
  std::filesystem::remove_all(dir);
}

// ----------------------------------------------------------------- Retries

TEST(IoRetry, ClassifiesTransience) {
  EXPECT_TRUE(IsTransientIoError(Status::IOError("blip")));
  EXPECT_TRUE(IsTransientIoError(Status::ResourceExhausted("queue")));
  EXPECT_TRUE(IsTransientIoError(Status(StatusCode::kUnknown, "?")));
  EXPECT_FALSE(IsTransientIoError(Status::NotFound("gone")));
  EXPECT_FALSE(IsTransientIoError(Status::Corruption("bad bytes")));
  EXPECT_FALSE(IsTransientIoError(Status::Aborted("shutdown")));
  EXPECT_FALSE(IsTransientIoError(Status::OK()));
}

TEST(IoRetry, TransientFailuresRetryToSuccess) {
  VirtualClock clock;
  SimEnv base(DeviceProfile::Ram(), &clock);
  ASSERT_TRUE(base.WriteStringToFile("f", Slice("precious bytes")).ok());

  FaultRule rule;
  rule.fail_first_n = 2;  // Two transient errors, then healthy.
  FaultInjectionEnv env(&base, {rule});

  RetryPolicy policy;
  policy.max_attempts = 3;
  auto scheduler = NewRetryingIoScheduler(
      env.NewIoScheduler(IoSchedulerOptions{}), policy, env.clock());

  ASSERT_TRUE(scheduler->SubmitRead(ReadRequest::Range("f", 0, 14, 5)).ok());
  auto completion = scheduler->WaitCompletion();
  ASSERT_TRUE(completion.ok());
  EXPECT_TRUE(completion->status.ok()) << completion->status;
  EXPECT_EQ(completion->bytes, "precious bytes");
  EXPECT_EQ(completion->user_data, 5u);
  EXPECT_EQ(scheduler->stats().retries, 2);
  EXPECT_EQ(env.fault_stats().errors, 2);
}

TEST(IoRetry, NonTransientFailuresSurfaceImmediately) {
  VirtualClock clock;
  SimEnv base(DeviceProfile::Ram(), &clock);
  ASSERT_TRUE(base.WriteStringToFile("f", Slice("bytes")).ok());

  FaultRule rule;
  rule.fail_first_n = 5;
  rule.code = StatusCode::kNotFound;  // Replica-permanent: do not retry.
  FaultInjectionEnv env(&base, {rule});

  RetryPolicy policy;
  policy.max_attempts = 3;
  auto scheduler = NewRetryingIoScheduler(
      env.NewIoScheduler(IoSchedulerOptions{}), policy, env.clock());

  ASSERT_TRUE(scheduler->SubmitRead(ReadRequest::Range("f", 0, 5, 1)).ok());
  auto completion = scheduler->WaitCompletion();
  ASSERT_TRUE(completion.ok());
  EXPECT_TRUE(completion->status.IsNotFound()) << completion->status;
  EXPECT_EQ(scheduler->stats().retries, 0);
  EXPECT_EQ(env.fault_stats().errors, 1);  // One attempt, no re-drives.
}

TEST(IoRetry, ExhaustedAttemptsSurfaceTheError) {
  VirtualClock clock;
  SimEnv base(DeviceProfile::Ram(), &clock);
  ASSERT_TRUE(base.WriteStringToFile("f", Slice("bytes")).ok());

  FaultRule rule;
  rule.fail_first_n = 100;  // Fails for longer than the policy persists.
  FaultInjectionEnv env(&base, {rule});

  RetryPolicy policy;
  policy.max_attempts = 3;
  auto scheduler = NewRetryingIoScheduler(
      env.NewIoScheduler(IoSchedulerOptions{}), policy, env.clock());

  ASSERT_TRUE(scheduler->SubmitRead(ReadRequest::Range("f", 0, 5, 1)).ok());
  auto completion = scheduler->WaitCompletion();
  ASSERT_TRUE(completion.ok());
  EXPECT_TRUE(completion->status.IsIOError()) << completion->status;
  EXPECT_EQ(scheduler->stats().retries, 2);  // max_attempts - 1 re-drives.
  EXPECT_EQ(env.fault_stats().errors, 3);    // Every attempt was faulted.
}

// ------------------------------------------------------ SimDevice schedules

TEST(SimDeviceSchedule, PhasesScaleBandwidthAndFailReads) {
  VirtualClock clock;
  DeviceProfile profile = DeviceProfile::Ram();
  profile.read_bandwidth_bytes_per_sec = 1000.0;  // 1 byte per millisecond.
  profile.per_op_latency_sec = 0.0;
  SimEnv env(profile, &clock);
  const std::string payload(100, 'x');
  ASSERT_TRUE(env.WriteStringToFile("f", Slice(payload)).ok());

  auto read_seconds = [&]() {
    const int64_t start = clock.NowNanos();
    std::string out;
    PCR_CHECK(SyncRead(&env, "f", 0, 100, &out).ok());
    return static_cast<double>(clock.NowNanos() - start) * 1e-9;
  };

  const double healthy = read_seconds();
  EXPECT_NEAR(healthy, 0.1, 0.01);

  // Brownout for 10 virtual seconds at half bandwidth.
  env.device()->SetSchedule({{/*start_sec=*/0.0, /*duration_sec=*/10.0,
                              /*bandwidth_factor=*/0.5,
                              /*fail_reads=*/false}});
  EXPECT_NEAR(read_seconds(), 0.2, 0.02);

  // Past the phase the device recovers on its own.
  clock.SleepNanos(SecondsToNanos(10.0));
  EXPECT_NEAR(read_seconds(), 0.1, 0.01);

  // An open-ended outage fails reads at issue time.
  env.device()->SetSchedule({{/*start_sec=*/0.0, /*duration_sec=*/0.0,
                              /*bandwidth_factor=*/1.0,
                              /*fail_reads=*/true}});
  std::string out;
  EXPECT_TRUE(SyncRead(&env, "f", 0, 100, &out).IsIOError());
  EXPECT_GE(env.device()->stats().failed_reads, 1);
  env.device()->SetSchedule({});
  EXPECT_TRUE(SyncRead(&env, "f", 0, 100, &out).ok());
}

// ------------------------------------------------ ReplicatedRecordSource

TEST(ReplicatedSource, CreateValidatesReplicas) {
  EXPECT_TRUE(
      ReplicatedRecordSource::Create({}).status().IsInvalidArgument());

  VirtualClock clock;
  SimEnv env(DeviceProfile::Ram(), &clock);
  {
    std::vector<std::unique_ptr<RecordSource>> replicas;
    replicas.push_back(BuildFpiReplica(&env, "n0", 2));
    replicas.push_back(nullptr);
    EXPECT_TRUE(ReplicatedRecordSource::Create(std::move(replicas))
                    .status()
                    .IsInvalidArgument());
  }
  {
    // Mirrors must agree on shape: 2 records vs 3 records.
    std::vector<std::unique_ptr<RecordSource>> replicas;
    replicas.push_back(BuildFpiReplica(&env, "m0", 2));
    replicas.push_back(BuildFpiReplica(&env, "m1", 3));
    auto result = ReplicatedRecordSource::Create(std::move(replicas));
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsInvalidArgument()) << result.status();
  }
}

TEST(ReplicatedSource, PlansCarryEquivalentAlternates) {
  VirtualClock clock;
  SimEnv env_a(DeviceProfile::Ram(), &clock);
  SimEnv env_b(DeviceProfile::Ram(), &clock);
  SimEnv env_c(DeviceProfile::Ram(), &clock);
  std::vector<std::unique_ptr<RecordSource>> replicas;
  replicas.push_back(BuildFpiReplica(&env_a, "r", 3));
  replicas.push_back(BuildFpiReplica(&env_b, "r", 3));
  replicas.push_back(BuildFpiReplica(&env_c, "r", 3));
  auto source =
      ReplicatedRecordSource::Create(std::move(replicas)).MoveValue();
  EXPECT_EQ(source->num_replicas(), 3);
  EXPECT_EQ(source->format_name(), "replicated[3x file_per_image]");

  auto plan = source->PlanFetch(1, 1).MoveValue();
  ASSERT_EQ(plan.alternates.size(), 2u);
  std::vector<Env*> envs{&env_a, &env_b, &env_c};
  EXPECT_EQ(plan.env, envs[static_cast<size_t>(plan.replica)]);

  // Every alternate serves the same bytes from a different backend, and
  // CompleteFetch routes by the plan's (possibly failed-over) replica.
  const std::string primary_bytes = ReadFetchPlan(plan).MoveValue();
  for (const FetchAlternate& alt : plan.alternates) {
    EXPECT_NE(alt.replica, plan.replica);
    EXPECT_EQ(alt.env, envs[static_cast<size_t>(alt.replica)]);

    FetchPlan failed_over = plan;
    failed_over.UseAlternate(alt);
    const std::string alt_bytes = ReadFetchPlan(failed_over).MoveValue();
    EXPECT_EQ(alt_bytes, primary_bytes);
    auto raw =
        source->CompleteFetch(failed_over, std::string(alt_bytes)).MoveValue();
    auto batch = source->AssembleRecord(std::move(raw)).MoveValue();
    EXPECT_EQ(batch.labels[0], 101);
  }

  FetchPlan bogus = plan;
  bogus.replica = 7;
  EXPECT_TRUE(source->CompleteFetch(bogus, std::string())
                  .status()
                  .IsInvalidArgument());
}

TEST(ReplicatedSource, RotationSpreadsPrimaries) {
  VirtualClock clock;
  SimEnv env(DeviceProfile::Ram(), &clock);
  std::vector<std::unique_ptr<RecordSource>> replicas;
  replicas.push_back(BuildFpiReplica(&env, "s0", 2));
  replicas.push_back(BuildFpiReplica(&env, "s1", 2));
  replicas.push_back(BuildFpiReplica(&env, "s2", 2));
  auto source =
      ReplicatedRecordSource::Create(std::move(replicas)).MoveValue();

  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(source->PlanFetch(0, 1).ok());
  }
  for (const ReplicaHealth& h : source->health()) {
    EXPECT_EQ(h.plans, 3) << "replica " << h.replica;
  }
}

TEST(ReplicatedSource, EjectionBacksOffAndProbesRecovery) {
  VirtualClock clock;
  SimEnv env(DeviceProfile::Ram(), &clock);
  std::vector<std::unique_ptr<RecordSource>> replicas;
  replicas.push_back(BuildFpiReplica(&env, "e0", 2));
  replicas.push_back(BuildFpiReplica(&env, "e1", 2));
  ReplicationOptions options;
  options.eject_after_failures = 1;
  options.eject_duration_sec = 2.0;
  options.max_eject_duration_sec = 60.0;
  options.clock = &clock;
  auto source =
      ReplicatedRecordSource::Create(std::move(replicas), options).MoveValue();

  // One failure ejects replica 1 from rotation.
  FetchPlan failed;
  failed.record = 0;
  failed.replica = 1;
  source->ReportFetchOutcome(failed, Status::IOError("replica down"));
  EXPECT_TRUE(source->health()[1].ejected);
  EXPECT_EQ(source->health()[1].ejections, 1);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(source->PlanFetch(0, 1).MoveValue().replica, 0);
  }

  // Past the window the next plan probes the ejected replica exactly once.
  clock.SleepNanos(SecondsToNanos(2.5));
  EXPECT_EQ(source->PlanFetch(0, 1).MoveValue().replica, 1);
  EXPECT_EQ(source->health()[1].probes, 1);

  // A failed probe re-ejects with a doubled window: still out after 2.5s,
  // back in after the full 4s.
  source->ReportFetchOutcome(failed, Status::IOError("still down"));
  EXPECT_TRUE(source->health()[1].ejected);
  clock.SleepNanos(SecondsToNanos(2.5));
  EXPECT_EQ(source->PlanFetch(0, 1).MoveValue().replica, 0);
  EXPECT_TRUE(source->health()[1].ejected);
  clock.SleepNanos(SecondsToNanos(2.0));
  EXPECT_EQ(source->PlanFetch(0, 1).MoveValue().replica, 1);
  EXPECT_EQ(source->health()[1].probes, 2);

  // A healthy probe clears ejection and resets the backoff window.
  source->ReportFetchOutcome(failed, Status::OK());
  EXPECT_FALSE(source->health()[1].ejected);
  EXPECT_EQ(source->health()[1].successes, 1);
}

// ------------------------------------------------- Degraded-mode pipeline

/// Streams `pipeline` to end-of-stream, asserting per-record delivery
/// counts and bit-identical payloads against `expected` (record -> backing
/// bytes at full quality).
void DrainAndVerify(LoaderPipeline* pipeline, int expected_epochs,
                    const std::map<int, std::string>& expected) {
  std::map<int, int> deliveries;
  for (;;) {
    auto batch = pipeline->Next();
    if (!batch.ok()) {
      EXPECT_EQ(batch.status().code(), StatusCode::kOutOfRange)
          << batch.status();
      break;
    }
    ++deliveries[batch->record_index];
    auto want = expected.find(batch->record_index);
    ASSERT_NE(want, expected.end());
    EXPECT_EQ(batch->jpeg_backing, want->second)
        << "record " << batch->record_index << " diverged";
  }
  ASSERT_EQ(deliveries.size(), expected.size());
  for (const auto& [record, count] : deliveries) {
    EXPECT_EQ(count, expected_epochs) << "record " << record;
  }
}

TEST(FailoverPipeline, EpochsSurviveAFailingReplicaBitIdentically) {
  // Replica 0 sits behind a fault schedule that permanently fails every
  // third read (NotFound: no retry, straight to failover); replica 1 is
  // healthy. Two epochs must deliver every record exactly twice with
  // payloads bit-identical to a clean single-replica read.
  SimEnv faulty_base(DeviceProfile::Ram(), RealClock::Get());
  SimEnv healthy(DeviceProfile::Ram(), RealClock::Get());
  auto replica0 = BuildPcrReplica(&faulty_base, "d", 8, 2, 500);
  auto replica1 = BuildPcrReplica(&healthy, "d", 8, 2, 500);

  // Baseline payloads from the healthy replica before wrapping anything.
  std::map<int, std::string> expected;
  const int groups = replica1->num_scan_groups();
  for (int r = 0; r < replica1->num_records(); ++r) {
    expected[r] = replica1->ReadRecord(r, groups).MoveValue().backing;
  }

  FaultRule rule;
  rule.path_substring = ".pcr";
  rule.fail_every_n = 3;
  rule.code = StatusCode::kNotFound;
  FaultInjectionEnv faulty(&faulty_base, {rule});
  // Reopen replica 0 through the fault wrapper so its plans carry it.
  auto replica0_faulty = PcrDataset::Open(&faulty, "d").MoveValue();

  std::vector<std::unique_ptr<RecordSource>> replicas;
  replicas.push_back(std::move(replica0_faulty));
  replicas.push_back(std::move(replica1));
  auto source =
      ReplicatedRecordSource::Create(std::move(replicas)).MoveValue();

  LoaderPipelineOptions options;
  options.io_threads = 2;
  options.io_inflight = 4;
  options.decode_threads = 2;
  options.decode = false;
  options.max_epochs = 2;
  LoaderPipeline pipeline(source.get(), options);
  DrainAndVerify(&pipeline, 2, expected);
  EXPECT_TRUE(pipeline.status().ok()) << pipeline.status();

  const StageStatsSnapshot io = pipeline.io_stats();
  EXPECT_GT(io.failovers, 0);  // The schedule guarantees failed fetches.
  EXPECT_GT(io.fetch_latency_samples, 0);
  EXPECT_GT(io.fetch_p99_sec, 0.0);
  EXPECT_GE(io.fetch_p99_sec, io.fetch_p50_sec);
  // Replica scoring saw both the failures and the failover successes.
  const auto health = source->health();
  EXPECT_GT(health[0].failures, 0);
  EXPECT_GT(health[0].successes + health[1].successes, 0);
}

TEST(FailoverPipeline, TransientErrorsRetryBelowFailover) {
  // A replica whose first two reads fail transiently: the retry layer
  // re-drives them invisibly — the stream survives without any failover.
  SimEnv base(DeviceProfile::Ram(), RealClock::Get());
  auto dataset = BuildPcrReplica(&base, "d", 6, 2, 300);
  std::map<int, std::string> expected;
  const int groups = dataset->num_scan_groups();
  for (int r = 0; r < dataset->num_records(); ++r) {
    expected[r] = dataset->ReadRecord(r, groups).MoveValue().backing;
  }

  FaultRule rule;
  rule.path_substring = ".pcr";
  rule.fail_first_n = 2;
  FaultInjectionEnv faulty(&base, {rule});
  auto source = PcrDataset::Open(&faulty, "d").MoveValue();

  LoaderPipelineOptions options;
  options.io_threads = 1;
  options.io_inflight = 2;
  options.decode_threads = 2;
  options.decode = false;
  options.max_epochs = 1;
  LoaderPipeline pipeline(source.get(), options);
  DrainAndVerify(&pipeline, 1, expected);
  EXPECT_TRUE(pipeline.status().ok()) << pipeline.status();

  const StageStatsSnapshot io = pipeline.io_stats();
  EXPECT_GE(io.io_retries, 2);
  EXPECT_EQ(io.failovers, 0);
}

TEST(FailoverPipeline, ExhaustedReplicasFailTheStream) {
  // Every replica of every read fails permanently: the stream must surface
  // the error instead of spinning.
  SimEnv base(DeviceProfile::Ram(), RealClock::Get());
  auto dataset = BuildPcrReplica(&base, "d", 4, 2, 0);

  FaultRule rule;
  rule.path_substring = ".pcr";
  rule.fail_first_n = 1'000'000;
  rule.code = StatusCode::kNotFound;
  FaultInjectionEnv faulty(&base, {rule});
  auto source = PcrDataset::Open(&faulty, "d").MoveValue();

  LoaderPipelineOptions options;
  options.io_threads = 1;
  options.io_inflight = 2;
  options.decode_threads = 1;
  options.decode = false;
  options.max_epochs = 1;
  LoaderPipeline pipeline(source.get(), options);
  auto batch = pipeline.Next();
  while (batch.ok()) batch = pipeline.Next();
  EXPECT_TRUE(batch.status().IsNotFound()) << batch.status();
  EXPECT_FALSE(pipeline.status().ok());
}

TEST(FailoverPipeline, HedgedReadsRaceReplicasUnderStalls) {
  // Both replicas stall randomly; aggressive hedge settings race nearly
  // every stalled fetch against the other replica. This is the
  // first-completion-wins / loser-discard path under real concurrency —
  // run under TSan in CI, it hammers the cancellation race. Correctness
  // bar: exactly-once delivery, bit-identical payloads, clean shutdown.
  SimEnv base_a(DeviceProfile::Ram(), RealClock::Get());
  SimEnv base_b(DeviceProfile::Ram(), RealClock::Get());
  auto replica0 = BuildPcrReplica(&base_a, "d", 12, 2, 700);
  auto replica1 = BuildPcrReplica(&base_b, "d", 12, 2, 700);
  std::map<int, std::string> expected;
  const int groups = replica0->num_scan_groups();
  for (int r = 0; r < replica0->num_records(); ++r) {
    expected[r] = replica0->ReadRecord(r, groups).MoveValue().backing;
  }

  FaultRule stall;
  stall.path_substring = ".pcr";
  stall.probability = 0.4;
  stall.code = StatusCode::kOk;
  stall.added_latency_sec = 0.02;
  FaultInjectionEnv faulty_a(&base_a, {stall}, /*seed=*/11);
  FaultInjectionEnv faulty_b(&base_b, {stall}, /*seed=*/22);
  auto source_a = PcrDataset::Open(&faulty_a, "d").MoveValue();
  auto source_b = PcrDataset::Open(&faulty_b, "d").MoveValue();

  std::vector<std::unique_ptr<RecordSource>> replicas;
  replicas.push_back(std::move(source_a));
  replicas.push_back(std::move(source_b));
  auto source =
      ReplicatedRecordSource::Create(std::move(replicas)).MoveValue();

  LoaderPipelineOptions options;
  options.io_threads = 2;
  options.io_inflight = 4;
  options.decode_threads = 2;
  options.decode = false;
  options.max_epochs = 6;
  options.hedged_reads = true;
  options.hedge_percentile = 50.0;
  options.hedge_latency_factor = 1.0;
  options.hedge_min_sec = 1e-4;
  LoaderPipeline pipeline(source.get(), options);
  DrainAndVerify(&pipeline, 6, expected);
  EXPECT_TRUE(pipeline.status().ok()) << pipeline.status();

  const StageStatsSnapshot io = pipeline.io_stats();
  // With ~40% of reads stalled 200x past the healthy p50, the adaptive
  // deadline fires many times across 72 fetches.
  EXPECT_GT(io.hedges, 0);
}

TEST(FailoverPipeline, StopIsPromptWhileAllReadsAreWedged) {
  // Every fetch stalls for 60s at the fault layer. Stop() must tear the
  // pipeline down in bounded time anyway: the I/O workers wait in slices,
  // never a blocking WaitCompletion.
  SimEnv base(DeviceProfile::Ram(), RealClock::Get());
  auto dataset = BuildPcrReplica(&base, "d", 4, 2, 0);

  FaultRule wedge;
  wedge.path_substring = ".pcr";
  wedge.fail_first_n = 1'000'000;
  wedge.code = StatusCode::kOk;
  wedge.added_latency_sec = 60.0;
  FaultInjectionEnv faulty(&base, {wedge});
  auto source = PcrDataset::Open(&faulty, "d").MoveValue();

  LoaderPipelineOptions options;
  options.io_threads = 2;
  options.io_inflight = 2;
  options.decode_threads = 1;
  options.decode = false;
  options.max_epochs = 1;
  auto pipeline = std::make_unique<LoaderPipeline>(source.get(), options);
  // Give the workers time to park on their wedged reads.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto start = std::chrono::steady_clock::now();
  pipeline->Stop();
  pipeline.reset();
  const double stop_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(stop_sec, 5.0);
}

}  // namespace
}  // namespace pcr
