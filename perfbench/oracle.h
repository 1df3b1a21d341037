// Delivery oracle: what every batch of every workload must hold, and the
// per-stream checker that counts violations.
//
// Truth for (record, scan group) comes from the plain synchronous read path
// (RecordSource::ReadRecord) and, for decoded streams, from
// jpeg::ReferenceCodec decodes of those streams — the naive decoder the
// fast path is bit-exact against. Per image the oracle keeps the geometry,
// a 64-bit content hash of the pixels, and one byte per 4 KiB page at a
// pseudo-random offset inside the page. Compressed streams keep their
// length and content hash.
//
// The checker costs about what a trainer touching one byte per page costs:
// every batch is checked for record range, scan group, exactly-once-per-
// epoch delivery, labels, image count, geometry and the sampled bytes — a
// wrong record, a wrong fidelity or a stale shm slot changes most sampled
// bytes — and one batch in `full_check_every` (chosen from the stream seed)
// also has every pixel hashed. Compressed payloads are always hashed whole.
// Each bad batch counts as one failure; records a stream never delivered
// count one each at Finish().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/record_source.h"
#include "util/result.h"
#include "util/slice.h"

namespace perfbench {

/// 64-bit content hash over four independent multiply-xor lanes; hashes a
/// 12 MiB decoded record in about a millisecond.
uint64_t ContentHash(const uint8_t* data, size_t n);

/// splitmix64 finalizer.
uint64_t Mix(uint64_t x);

inline constexpr uint64_t kSamplePageBytes = 4096;

/// Offset of the sampled byte of page `page` in an image of `length` bytes.
uint64_t SampleOffset(int record, int image, uint64_t page, uint64_t length);

struct ImageTruth {
  uint32_t width = 0;
  uint32_t height = 0;
  uint32_t channels = 0;
  uint64_t length = 0;
  uint64_t hash = 0;
  std::vector<uint8_t> samples;  // One per page, at SampleOffset.
};

struct JpegTruth {
  uint64_t length = 0;
  uint64_t hash = 0;
};

struct RecordTruth {
  std::vector<int64_t> labels;
  std::vector<ImageTruth> images;  // Decoded at the entry's scan group.
  std::vector<JpegTruth> jpegs;    // Assembled streams at that group.
};

/// Truth for the given pixels (exposed so self-tests can forge batches).
ImageTruth MakeImageTruth(int record, int image, uint32_t width,
                          uint32_t height, uint32_t channels,
                          const uint8_t* pixels);

class Oracle {
 public:
  Oracle(int num_records, int num_scan_groups);

  /// Reads every record at every group in `groups` through the synchronous
  /// path and reference-decodes it, on `threads` threads.
  static pcr::Result<Oracle> Build(pcr::RecordSource* source,
                                   const std::vector<int>& groups,
                                   int threads);

  /// The oracle file stores `fingerprint` (of the fixture it was built
  /// from); Load fails unless it matches.
  pcr::Status Save(const std::string& path, uint64_t fingerprint) const;
  static pcr::Result<Oracle> Load(const std::string& path,
                                  uint64_t fingerprint);

  void Set(int record, int scan_group, RecordTruth truth);
  /// Null when (record, scan_group) is out of range or was not built.
  const RecordTruth* Find(int record, int scan_group) const;

  int num_records() const { return num_records_; }
  int num_scan_groups() const { return num_scan_groups_; }

 private:
  size_t Index(int record, int scan_group) const;

  int num_records_;
  int num_scan_groups_;
  std::vector<RecordTruth> truth_;  // [record * groups + group - 1]
  std::vector<bool> present_;
};

/// One decoded image as delivered, on whichever plane carried it.
struct DeliveredImage {
  uint32_t width = 0;
  uint32_t height = 0;
  uint32_t channels = 0;
  const uint8_t* data = nullptr;
  uint64_t length = 0;
};

/// One delivered batch as the consumer sees it.
struct Delivery {
  int record = -1;
  int scan_group = 0;
  const std::vector<int64_t>* labels = nullptr;
  std::vector<DeliveredImage> images;  // Decoded streams.
  std::vector<pcr::Slice> jpegs;       // Compressed streams.
};

/// Checks the deliveries of one one-epoch stream at `scan_group`. Every
/// stream the benchmark runs is one epoch long, so exactly-once delivery is
/// exact: a record's second delivery is a failure, and so is each record the
/// stream never delivered.
class StreamChecker {
 public:
  StreamChecker(const Oracle* oracle, int scan_group, bool decoded,
                int full_check_every, uint64_t seed);

  /// Checks one batch; false (and one more failure) when it violates the
  /// oracle.
  bool Check(const Delivery& batch);

  /// Ends the stream: each record it did not deliver is one failure.
  /// Returns those.
  int64_t Finish();

  int64_t delivered() const { return delivered_; }
  int64_t failures() const { return failures_; }
  /// Batches checked in full: every pixel hashed, or every JPEG byte.
  int64_t full_checks() const { return full_checks_; }
  /// The first violation, for the report ("" when none).
  const std::string& first_error() const { return first_error_; }

 private:
  bool Fail(const std::string& why);
  std::string CheckContent(const Delivery& batch, const RecordTruth& truth,
                           bool full);

  const Oracle* oracle_;
  int scan_group_;
  bool decoded_;
  int full_check_every_;
  uint64_t seed_;
  std::vector<bool> seen_;
  int64_t delivered_ = 0;
  int64_t distinct_ = 0;
  int64_t failures_ = 0;
  int64_t full_checks_ = 0;
  bool finished_ = false;
  std::string first_error_;
};

}  // namespace perfbench
