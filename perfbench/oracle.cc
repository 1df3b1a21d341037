#include "oracle.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <thread>

#include "jpeg/reference_codec.h"
#include "util/string_util.h"

namespace perfbench {

uint64_t Mix(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t ContentHash(const uint8_t* data, size_t n) {
  // Each lane step (lane ^ word) * odd, then rotate, is a bijection of the
  // lane for a fixed word, so two inputs differing in one word keep
  // different lanes to the end, and the final xor of bijective per-lane
  // mixes differs too.
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  uint64_t lanes[4] = {n, n + 1, n + 2, n + 3};
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    for (int k = 0; k < 4; ++k) {
      uint64_t word = 0;
      std::memcpy(&word, data + i + 8 * k, 8);
      const uint64_t v = (lanes[k] ^ word) * kMul;
      lanes[k] = (v << 31) | (v >> 33);
    }
  }
  for (; i < n; ++i) lanes[i % 4] = (lanes[i % 4] ^ data[i]) * kMul;
  return Mix(lanes[0]) ^ Mix(lanes[1] ^ 0x1111) ^ Mix(lanes[2] ^ 0x2222) ^
         Mix(lanes[3] ^ 0x3333);
}

uint64_t SampleOffset(int record, int image, uint64_t page, uint64_t length) {
  const uint64_t base = page * kSamplePageBytes;
  const uint64_t span = std::min(kSamplePageBytes, length - base);
  const uint64_t key = (static_cast<uint64_t>(record) << 40) ^
                       (static_cast<uint64_t>(image) << 24) ^ page;
  return base + Mix(key) % span;
}

ImageTruth MakeImageTruth(int record, int image, uint32_t width,
                          uint32_t height, uint32_t channels,
                          const uint8_t* pixels) {
  ImageTruth truth;
  truth.width = width;
  truth.height = height;
  truth.channels = channels;
  truth.length = static_cast<uint64_t>(width) * height * channels;
  truth.hash = ContentHash(pixels, truth.length);
  for (uint64_t page = 0; page * kSamplePageBytes < truth.length; ++page) {
    truth.samples.push_back(
        pixels[SampleOffset(record, image, page, truth.length)]);
  }
  return truth;
}

Oracle::Oracle(int num_records, int num_scan_groups)
    : num_records_(num_records),
      num_scan_groups_(num_scan_groups),
      truth_(static_cast<size_t>(num_records) * num_scan_groups),
      present_(truth_.size(), false) {}

size_t Oracle::Index(int record, int scan_group) const {
  return static_cast<size_t>(record) * num_scan_groups_ + (scan_group - 1);
}

void Oracle::Set(int record, int scan_group, RecordTruth truth) {
  truth_[Index(record, scan_group)] = std::move(truth);
  present_[Index(record, scan_group)] = true;
}

const RecordTruth* Oracle::Find(int record, int scan_group) const {
  if (record < 0 || record >= num_records_ || scan_group < 1 ||
      scan_group > num_scan_groups_ || !present_[Index(record, scan_group)]) {
    return nullptr;
  }
  return &truth_[Index(record, scan_group)];
}

pcr::Result<Oracle> Oracle::Build(pcr::RecordSource* source,
                                  const std::vector<int>& groups,
                                  int threads) {
  Oracle oracle(source->num_records(), source->num_scan_groups());
  std::vector<std::pair<int, int>> work;
  for (int r = 0; r < source->num_records(); ++r) {
    for (const int g : groups) work.emplace_back(r, g);
  }
  std::atomic<size_t> next{0};
  std::mutex mu;  // Guards oracle and first_error.
  pcr::Status first_error;
  auto worker = [&] {
    for (size_t k = next++; k < work.size(); k = next++) {
      const auto [record, group] = work[k];
      auto built = [&]() -> pcr::Result<RecordTruth> {
        PCR_ASSIGN_OR_RETURN(pcr::RecordBatch batch,
                             source->ReadRecord(record, group));
        RecordTruth truth;
        truth.labels = batch.labels;
        for (int i = 0; i < batch.size(); ++i) {
          const pcr::Slice jpeg = batch.jpeg(i);
          truth.jpegs.push_back(
              {jpeg.size(), ContentHash(jpeg.udata(), jpeg.size())});
          PCR_ASSIGN_OR_RETURN(pcr::Image img,
                               pcr::jpeg::ReferenceCodec::Decode(jpeg));
          truth.images.push_back(MakeImageTruth(
              record, i, img.width(), img.height(), img.channels(),
              img.data()));
        }
        return truth;
      }();
      std::lock_guard<std::mutex> lock(mu);
      if (built.ok()) {
        oracle.Set(record, group, std::move(built).MoveValue());
      } else if (first_error.ok()) {
        first_error = built.status();
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, threads); ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (!first_error.ok()) return first_error;
  return oracle;
}

namespace {

constexpr char kMagic[8] = {'P', 'B', 'O', 'R', 'C', 'L', '0', '1'};

template <typename T>
void Put(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

/// Bounds-checked reader over the oracle file.
class Reader {
 public:
  explicit Reader(const std::string& data) : data_(data) {}
  template <typename T>
  bool Get(T* value) {
    if (data_.size() - pos_ < sizeof(T)) return false;
    std::memcpy(value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }
  bool GetBytes(size_t n, std::vector<uint8_t>* out) {
    if (data_.size() - pos_ < n) return false;
    out->assign(data_.begin() + pos_, data_.begin() + pos_ + n);
    pos_ += n;
    return true;
  }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  const std::string& data_;
  size_t pos_ = 0;
};

}  // namespace

pcr::Status Oracle::Save(const std::string& path, uint64_t fingerprint) const {
  std::string out(kMagic, sizeof(kMagic));
  Put(&out, fingerprint);
  Put<uint32_t>(&out, num_records_);
  Put<uint32_t>(&out, num_scan_groups_);
  for (int r = 0; r < num_records_; ++r) {
    for (int g = 1; g <= num_scan_groups_; ++g) {
      const RecordTruth* truth = Find(r, g);
      if (truth == nullptr) continue;
      Put<uint32_t>(&out, r);
      Put<uint32_t>(&out, g);
      Put<uint32_t>(&out, truth->labels.size());
      for (const int64_t label : truth->labels) Put(&out, label);
      Put<uint32_t>(&out, truth->images.size());
      for (const ImageTruth& img : truth->images) {
        Put(&out, img.width);
        Put(&out, img.height);
        Put(&out, img.channels);
        Put(&out, img.length);
        Put(&out, img.hash);
        Put<uint32_t>(&out, img.samples.size());
        out.append(img.samples.begin(), img.samples.end());
      }
      Put<uint32_t>(&out, truth->jpegs.size());
      for (const JpegTruth& jpeg : truth->jpegs) {
        Put(&out, jpeg.length);
        Put(&out, jpeg.hash);
      }
    }
  }
  FILE* f = std::fopen((path + ".tmp").c_str(), "wb");
  if (f == nullptr) return pcr::Status::IOError("cannot write " + path);
  const bool wrote = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed ||
      std::rename((path + ".tmp").c_str(), path.c_str()) != 0) {
    return pcr::Status::IOError("cannot write " + path);
  }
  return pcr::Status::OK();
}

pcr::Result<Oracle> Oracle::Load(const std::string& path,
                                 uint64_t fingerprint) {
  std::string data;
  {
    FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return pcr::Status::NotFound("no oracle at " + path);
    char buf[1 << 16];
    size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
    std::fclose(f);
  }
  const auto corrupt = [&] {
    return pcr::Status::Corruption("oracle file " + path + " is malformed");
  };
  if (data.size() < sizeof(kMagic) ||
      std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return corrupt();
  }
  const std::string body = data.substr(sizeof(kMagic));
  Reader in(body);
  uint64_t stored = 0;
  uint32_t records = 0;
  uint32_t groups = 0;
  if (!in.Get(&stored) || !in.Get(&records) || !in.Get(&groups)) {
    return corrupt();
  }
  if (stored != fingerprint) {
    return pcr::Status::NotFound("oracle was built for another fixture");
  }
  if (records == 0 || groups == 0 || records > 1u << 20 || groups > 64) {
    return corrupt();
  }
  Oracle oracle(static_cast<int>(records), static_cast<int>(groups));
  while (!in.AtEnd()) {
    uint32_t r = 0, g = 0, n = 0;
    if (!in.Get(&r) || !in.Get(&g) || r >= records || g < 1 || g > groups) {
      return corrupt();
    }
    RecordTruth truth;
    if (!in.Get(&n) || n > 1u << 16) return corrupt();
    truth.labels.resize(n);
    for (int64_t& label : truth.labels) {
      if (!in.Get(&label)) return corrupt();
    }
    if (!in.Get(&n) || n > 1u << 16) return corrupt();
    truth.images.resize(n);
    for (ImageTruth& img : truth.images) {
      uint32_t samples = 0;
      if (!in.Get(&img.width) || !in.Get(&img.height) ||
          !in.Get(&img.channels) || !in.Get(&img.length) ||
          !in.Get(&img.hash) || !in.Get(&samples) ||
          !in.GetBytes(samples, &img.samples)) {
        return corrupt();
      }
    }
    if (!in.Get(&n) || n > 1u << 16) return corrupt();
    truth.jpegs.resize(n);
    for (JpegTruth& jpeg : truth.jpegs) {
      if (!in.Get(&jpeg.length) || !in.Get(&jpeg.hash)) return corrupt();
    }
    oracle.Set(static_cast<int>(r), static_cast<int>(g), std::move(truth));
  }
  return oracle;
}

StreamChecker::StreamChecker(const Oracle* oracle, int scan_group,
                             bool decoded, int full_check_every, uint64_t seed)
    : oracle_(oracle),
      scan_group_(scan_group),
      decoded_(decoded),
      full_check_every_(std::max(1, full_check_every)),
      seed_(seed),
      seen_(oracle->num_records(), false) {}

bool StreamChecker::Fail(const std::string& why) {
  ++failures_;
  if (first_error_.empty()) first_error_ = why;
  return false;
}

bool StreamChecker::Check(const Delivery& batch) {
  const int64_t index = delivered_++;
  const std::string where = pcr::StrFormat(
      "delivery %lld (record %d, group %d): ", static_cast<long long>(index),
      batch.record, batch.scan_group);
  if (batch.record < 0 || batch.record >= oracle_->num_records()) {
    return Fail(where + "record out of range");
  }
  // Marked before the other checks, so a bad batch is one failure and not
  // also a record the stream never delivered.
  if (seen_[batch.record]) return Fail(where + "delivered twice in one epoch");
  seen_[batch.record] = true;
  ++distinct_;
  if (batch.scan_group != scan_group_) {
    return Fail(where + pcr::StrFormat("scan group %d requested",
                                       scan_group_));
  }
  const RecordTruth* truth = oracle_->Find(batch.record, batch.scan_group);
  if (truth == nullptr) return Fail(where + "no oracle entry");
  if (batch.labels == nullptr || *batch.labels != truth->labels) {
    return Fail(where + "labels differ");
  }
  const bool full = Mix(seed_ ^ static_cast<uint64_t>(index)) %
                        static_cast<uint64_t>(full_check_every_) ==
                    0;
  // A compressed batch's JPEG streams are always compared byte for byte.
  if (full || !decoded_) ++full_checks_;
  const std::string error = CheckContent(batch, *truth, full);
  if (!error.empty()) return Fail(where + error);
  return true;
}

std::string StreamChecker::CheckContent(const Delivery& batch,
                                        const RecordTruth& truth, bool full) {
  if (!decoded_) {
    if (!batch.images.empty() || batch.jpegs.size() != truth.jpegs.size()) {
      return "compressed image count differs";
    }
    for (size_t i = 0; i < batch.jpegs.size(); ++i) {
      const pcr::Slice jpeg = batch.jpegs[i];
      if (jpeg.size() != truth.jpegs[i].length ||
          ContentHash(jpeg.udata(), jpeg.size()) != truth.jpegs[i].hash) {
        return pcr::StrFormat("jpeg %zu differs", i);
      }
    }
    return "";
  }
  if (!batch.jpegs.empty() || batch.images.size() != truth.images.size()) {
    return "decoded image count differs";
  }
  for (size_t i = 0; i < batch.images.size(); ++i) {
    const DeliveredImage& img = batch.images[i];
    const ImageTruth& want = truth.images[i];
    if (img.width != want.width || img.height != want.height ||
        img.channels != want.channels || img.length != want.length) {
      return pcr::StrFormat("image %zu geometry differs", i);
    }
    for (size_t page = 0; page < want.samples.size(); ++page) {
      const uint64_t offset =
          SampleOffset(batch.record, static_cast<int>(i), page, want.length);
      if (img.data[offset] != want.samples[page]) {
        return pcr::StrFormat("image %zu byte %llu differs", i,
                              static_cast<unsigned long long>(offset));
      }
    }
    if (full && ContentHash(img.data, img.length) != want.hash) {
      return pcr::StrFormat("image %zu content hash differs", i);
    }
  }
  return "";
}

int64_t StreamChecker::Finish() {
  if (finished_) return 0;
  finished_ = true;
  const int64_t owed = oracle_->num_records() - distinct_;
  if (owed <= 0) return 0;
  failures_ += owed;
  if (first_error_.empty()) {
    first_error_ = pcr::StrFormat("stream never delivered %lld records",
                                  static_cast<long long>(owed));
  }
  return owed;
}

}  // namespace perfbench
