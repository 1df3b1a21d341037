// Self-tests for the benchmark's own code: percentile, median and
// sample-count rules on known inputs; closed-loop window accounting and
// stream sizing; and the delivery oracle, which must count each forged
// batch — wrong record, flipped pixel byte, wrong scan group, a batch
// delivered twice in one epoch — as exactly one failure.
//
//   pcr_perfbench_selftest [scratch-dir]   (exit 0 when every check passes)
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "closed_loop.h"
#include "oracle.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

int g_checks = 0;
int g_failures = 0;

void Expect(bool ok, const char* what, int line) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest.cc:%d: FAILED: %s\n", line, what);
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)
#define EXPECT_NEAR(a, b) Expect(std::fabs((a) - (b)) < 1e-9, #a " ~= " #b, __LINE__)

void TestStats() {
  EXPECT_NEAR(Median({3, 1, 2}), 2.0);
  EXPECT_NEAR(Median({4, 1, 3, 2}), 2.5);
  EXPECT_NEAR(Median({}), 0.0);
  EXPECT_NEAR(Percentile({1, 2, 3, 4, 5}, 25), 2.0);
  EXPECT_NEAR(Percentile({1, 2, 3, 4, 5}, 90), 4.6);
  EXPECT_NEAR(Percentile({10, 20}, 100), 20.0);

  // The p-th percentile of n samples sits at rank p/100 * (n - 1).
  EXPECT(SamplesBeyond(200, 95) == 10);
  EXPECT(SamplesBeyond(190, 95) == 10);
  EXPECT(SamplesBeyond(180, 95) == 9);
  EXPECT(SamplesBeyond(0, 95) == 0);
  EXPECT(SamplesBeyond(1000, 99.9) == 1);
  const std::vector<double> ladder = {99.9, 99, 95, 90, 75, 50};
  EXPECT_NEAR(HighestAffordablePercentile(1000, ladder), 99.0);
  EXPECT_NEAR(HighestAffordablePercentile(200, ladder), 95.0);
  EXPECT_NEAR(HighestAffordablePercentile(100, ladder), 90.0);
  EXPECT_NEAR(HighestAffordablePercentile(5, ladder), 0.0);

  std::vector<double> waits;
  for (int i = 1; i <= 200; ++i) waits.push_back(i);
  LatencySummary summary = SummarizeLatencies(waits);
  EXPECT(summary.samples == 200);
  EXPECT_NEAR(summary.p50, 100.5);
  EXPECT_NEAR(summary.p95, 190.05);

  // 10 completions of 2 images, one per second, in 2-completion windows:
  // windows start at completions 0, 2, 4, 6 and the rest is dropped.
  std::vector<Completion> done;
  for (int i = 9; i >= 0; --i) done.push_back({static_cast<double>(i), 2});
  const std::vector<Window> windows = CompletionWindows(done, 4);
  EXPECT(windows.size() == 4);
  EXPECT_NEAR(windows[0].start, 0.0);
  EXPECT_NEAR(windows[0].end, 2.0);
  EXPECT_NEAR(windows[0].images, 4.0);
  EXPECT_NEAR(windows[3].end, 8.0);
  EXPECT(CompletionWindows({{1.0, 2}}, 4).empty());
}

void TestClosedLoop() {
  ClosedLoopWindow window(2, 5);
  EXPECT(window.CanSend());
  window.OnSend(1.0);
  window.OnSend(2.0);
  EXPECT(!window.CanSend());
  EXPECT(window.outstanding() == 2);
  // Replies answer the oldest request first.
  EXPECT_NEAR(window.OnReceive(3.5), 2.5);
  EXPECT(window.CanSend());
  window.OnSend(4.0);
  EXPECT_NEAR(window.OnReceive(5.0), 3.0);
  EXPECT_NEAR(window.OnReceive(6.0), 2.0);

  // A closed loop never exceeds its window and sends exactly its budget.
  ClosedLoopWindow loop(2, 7);
  int max_outstanding = 0;
  double t = 0;
  while (!loop.done()) {
    while (loop.CanSend()) loop.OnSend(t += 1);
    max_outstanding = std::max(max_outstanding, loop.outstanding());
    loop.OnReceive(t += 1);
  }
  EXPECT(max_outstanding == 2);
  EXPECT(loop.sent() == 7 && loop.received() == 7);
  EXPECT(!loop.CanSend());
}

void TestTrace() {
  Tracer tracer;
  tracer.Add("root", 0, 1000, 1);
  tracer.Add("a", 0, 600, 1, 0);
  tracer.Add("b", 600, 950, 1, 0);
  EXPECT_NEAR(Coverage(tracer), 0.95);
  double glue = -1;
  for (const LayerBudget& row : Budget(tracer, 1000e-9)) {
    if (row.name == "(glue)") glue = row.total_seconds;
  }
  EXPECT_NEAR(glue, 50e-9);
}

// --- Oracle -----------------------------------------------------------------

constexpr int kRecords = 4;
constexpr int kGroups = 2;
constexpr int kImages = 2;
constexpr uint32_t kWidth = 64, kHeight = 48, kChannels = 3;

/// Deterministic pixels / compressed bytes per (record, group, image).
std::vector<uint8_t> Pixels(int record, int group, int image) {
  std::vector<uint8_t> px(kWidth * kHeight * kChannels);
  for (size_t i = 0; i < px.size(); ++i) {
    px[i] = static_cast<uint8_t>(
        Mix((static_cast<uint64_t>(record * 16 + group * 4 + image) << 32) ^
            i));
  }
  return px;
}
std::string Jpeg(int record, int group, int image) {
  std::string s(700 + 10 * record + image, '\0');
  for (size_t i = 0; i < s.size(); ++i) {
    s[i] = static_cast<char>(Mix(0xabcULL ^ (record * 100 + group * 10 +
                                             image) ^ (i << 20)));
  }
  return s;
}

Oracle MakeOracle() {
  Oracle oracle(kRecords, kGroups);
  for (int r = 0; r < kRecords; ++r) {
    for (int g = 1; g <= kGroups; ++g) {
      RecordTruth truth;
      for (int i = 0; i < kImages; ++i) {
        truth.labels.push_back(r * 10 + i);
        const std::vector<uint8_t> px = Pixels(r, g, i);
        truth.images.push_back(
            MakeImageTruth(r, i, kWidth, kHeight, kChannels, px.data()));
        const std::string jpeg = Jpeg(r, g, i);
        truth.jpegs.push_back(
            {jpeg.size(), ContentHash(reinterpret_cast<const uint8_t*>(
                                          jpeg.data()),
                                      jpeg.size())});
      }
      oracle.Set(r, g, std::move(truth));
    }
  }
  return oracle;
}

/// A batch as a consumer would receive it; owns the bytes it points at.
struct Forged {
  int record = 0;
  int scan_group = 0;
  std::vector<int64_t> labels;
  std::vector<std::vector<uint8_t>> pixels;
  std::vector<std::string> jpegs;

  Delivery View(bool decoded) const {
    Delivery d;
    d.record = record;
    d.scan_group = scan_group;
    d.labels = &labels;
    if (decoded) {
      for (const auto& px : pixels) {
        d.images.push_back({kWidth, kHeight, kChannels, px.data(), px.size()});
      }
    } else {
      for (const std::string& j : jpegs) d.jpegs.push_back(j);
    }
    return d;
  }
};

/// The correct batch for `record` at `group`.
Forged Genuine(int record, int group) {
  Forged f;
  f.record = record;
  f.scan_group = group;
  for (int i = 0; i < kImages; ++i) {
    f.labels.push_back(record * 10 + i);
    f.pixels.push_back(Pixels(record, group, i));
    f.jpegs.push_back(Jpeg(record, group, i));
  }
  return f;
}

/// Runs one stream at group 2; returns its failures after Finish.
int64_t RunStream(const Oracle& oracle, const std::vector<Forged>& batches,
                  bool decoded, int full_check_every) {
  StreamChecker checker(&oracle, 2, decoded, full_check_every, 7);
  for (const Forged& f : batches) checker.Check(f.View(decoded));
  checker.Finish();
  return checker.failures();
}

std::vector<Forged> GoodEpoch() {
  std::vector<Forged> epoch;
  for (const int r : {2, 0, 3, 1}) epoch.push_back(Genuine(r, 2));
  return epoch;
}

void TestOracle(const std::string& scratch_dir) {
  const Oracle oracle = MakeOracle();
  for (const bool decoded : {true, false}) {
    EXPECT(RunStream(oracle, GoodEpoch(), decoded, 1) == 0);
    EXPECT(RunStream(oracle, GoodEpoch(), decoded, 4) == 0);
  }

  // Wrong record: record 3's batch carries record 1's content (a stale shm
  // slot looks the same).
  {
    std::vector<Forged> epoch = GoodEpoch();
    Forged stale = Genuine(1, 2);
    stale.record = 3;
    stale.labels = Genuine(3, 2).labels;
    epoch[2] = stale;
    EXPECT(RunStream(oracle, epoch, true, 4) == 1);
    EXPECT(RunStream(oracle, epoch, false, 4) == 1);
  }
  // A flipped pixel byte: caught by the full hash wherever it is, and by the
  // samples on every batch when it hits a sampled byte.
  {
    std::vector<Forged> epoch = GoodEpoch();
    const uint64_t length = kWidth * kHeight * kChannels;
    uint64_t unsampled = 1;
    while (unsampled == SampleOffset(0, 1, 0, length)) ++unsampled;
    epoch[1].pixels[1][unsampled] ^= 0x01;
    EXPECT(RunStream(oracle, epoch, true, 1) == 1);
    epoch = GoodEpoch();
    epoch[1].pixels[1][SampleOffset(0, 1, 2, length)] ^= 0x80;
    EXPECT(RunStream(oracle, epoch, true, 1000) == 1);
    epoch = GoodEpoch();
    epoch[1].jpegs[0][5] ^= 0x01;
    EXPECT(RunStream(oracle, epoch, false, 1000) == 1);
  }
  // Wrong scan group: either labelled honestly, or group-1 content passed
  // off as group 2.
  {
    std::vector<Forged> epoch = GoodEpoch();
    epoch[0] = Genuine(2, 1);
    EXPECT(RunStream(oracle, epoch, true, 4) == 1);
    Forged disguised = Genuine(2, 1);
    disguised.scan_group = 2;
    epoch[0] = disguised;
    EXPECT(RunStream(oracle, epoch, true, 1000) == 1);
    EXPECT(RunStream(oracle, epoch, false, 1000) == 1);
  }
  // Delivered twice in one epoch: in place of another record (the missing
  // record is a second failure), or as an extra batch.
  {
    std::vector<Forged> epoch = GoodEpoch();
    epoch[3] = Genuine(0, 2);
    EXPECT(RunStream(oracle, epoch, true, 4) == 2);
    epoch = GoodEpoch();
    epoch.insert(epoch.begin() + 2, Genuine(2, 2));
    EXPECT(RunStream(oracle, epoch, true, 4) == 1);
    EXPECT(RunStream(oracle, epoch, false, 4) == 1);
  }
  // A second epoch in one stream: every repeat is a duplicate, even though
  // each record then came exactly twice.
  {
    std::vector<Forged> epochs = GoodEpoch();
    for (const Forged& f : GoodEpoch()) epochs.push_back(f);
    EXPECT(RunStream(oracle, epochs, true, 4) == 4);
  }
  // A stream that ends short owes each record it never delivered.
  {
    std::vector<Forged> epoch = GoodEpoch();
    epoch.pop_back();
    EXPECT(RunStream(oracle, epoch, true, 4) == 1);
    epoch.pop_back();
    EXPECT(RunStream(oracle, epoch, false, 4) == 2);
  }
  // Wrong geometry and a missing image.
  {
    std::vector<Forged> epoch = GoodEpoch();
    epoch[2].pixels[0].pop_back();
    EXPECT(RunStream(oracle, epoch, true, 4) == 1);
    epoch = GoodEpoch();
    epoch[2].pixels.pop_back();
    epoch[2].jpegs.pop_back();
    EXPECT(RunStream(oracle, epoch, true, 4) == 1);
    EXPECT(RunStream(oracle, epoch, false, 4) == 1);
  }
  // Save / Load round trip, and a fingerprint mismatch.
  {
    const std::string path = scratch_dir + "/perfbench_selftest_oracle.bin";
    EXPECT(oracle.Save(path, 42).ok());
    auto loaded = Oracle::Load(path, 42);
    EXPECT(loaded.ok());
    if (loaded.ok()) {
      EXPECT(RunStream(*loaded, GoodEpoch(), true, 1) == 0);
      std::vector<Forged> epoch = GoodEpoch();
      epoch[1].pixels[0][100] ^= 0x10;
      EXPECT(RunStream(*loaded, epoch, true, 1) == 1);
    }
    EXPECT(!Oracle::Load(path, 43).ok());
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::TestStats();
  perfbench::TestClosedLoop();
  perfbench::TestTrace();
  perfbench::TestOracle(argc > 1 ? argv[1] : ".");
  std::fprintf(stderr, "perfbench selftest: %d checks, %d failed\n",
               perfbench::g_checks, perfbench::g_failures);
  return perfbench::g_failures == 0 ? 0 : 1;
}
