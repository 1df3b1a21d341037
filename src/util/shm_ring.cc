#include "util/shm_ring.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <utility>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace pcr {

namespace {

int MemfdCreate(const std::string& name) {
#ifdef __NR_memfd_create
  return static_cast<int>(
      syscall(__NR_memfd_create, name.c_str(), MFD_CLOEXEC));
#else
  errno = ENOSYS;
  return -1;
#endif
}

// shm_open needs a unique /dev/shm name; derive one from the pid and a
// counter, and unlink immediately so only the fd keeps it alive.
int ShmOpenAnonymous(const std::string& name_hint) {
  static std::atomic<uint64_t> counter{0};
  std::string path = "/pcr-" + name_hint + "-" + std::to_string(getpid()) +
                     "-" + std::to_string(counter.fetch_add(1));
  if (path.size() > 250) path.resize(250);
  int fd = shm_open(path.c_str(), O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC, 0600);
  if (fd >= 0) shm_unlink(path.c_str());
  return fd;
}

}  // namespace

void PlacementCopy(void* dst, const void* src, size_t n) {
#if defined(__SSE2__)
  auto* d = static_cast<unsigned char*>(dst);
  auto* s = static_cast<const unsigned char*>(src);
  // Head: byte-copy until the destination is 16-byte aligned (movnti and
  // friends fault on unaligned addresses). Sources stay unaligned-loaded.
  while (n > 0 && (reinterpret_cast<uintptr_t>(d) & 0xf) != 0) {
    *d++ = *s++;
    --n;
  }
  while (n >= 64) {
    const __m128i a =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(s));
    const __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + 16));
    const __m128i c =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + 32));
    const __m128i e =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + 48));
    _mm_stream_si128(reinterpret_cast<__m128i*>(d), a);
    _mm_stream_si128(reinterpret_cast<__m128i*>(d + 16), b);
    _mm_stream_si128(reinterpret_cast<__m128i*>(d + 32), c);
    _mm_stream_si128(reinterpret_cast<__m128i*>(d + 48), e);
    d += 64;
    s += 64;
    n -= 64;
  }
  if (n > 0) std::memcpy(d, s, n);
  // Non-temporal stores are weakly ordered; drain them before the caller
  // publishes the slot through the descriptor frame.
  _mm_sfence();
#else
  std::memcpy(dst, src, n);
#endif
}

ShmSegment::~ShmSegment() { Reset(); }

ShmSegment::ShmSegment(ShmSegment&& other) noexcept
    : fd_(other.fd_), data_(other.data_), size_(other.size_) {
  other.fd_ = -1;
  other.data_ = nullptr;
  other.size_ = 0;
}

ShmSegment& ShmSegment::operator=(ShmSegment&& other) noexcept {
  if (this != &other) {
    Reset();
    fd_ = other.fd_;
    data_ = other.data_;
    size_ = other.size_;
    other.fd_ = -1;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

void ShmSegment::Reset() {
  if (data_ != nullptr) ::munmap(data_, size_);
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  data_ = nullptr;
  size_ = 0;
}

Result<ShmSegment> ShmSegment::Create(const std::string& name_hint,
                                      size_t bytes) {
  if (bytes == 0) return Status::InvalidArgument("shm segment size is zero");
  int fd = MemfdCreate(name_hint);
  if (fd < 0) fd = ShmOpenAnonymous(name_hint);
  if (fd < 0) {
    return Status::IOError(std::string("shm segment creation failed: ") +
                            strerror(errno));
  }
  if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    Status st = Status::IOError(std::string("shm ftruncate failed: ") +
                                 strerror(errno));
    ::close(fd);
    return st;
  }
  void* map =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (map == MAP_FAILED) {
    Status st =
        Status::IOError(std::string("shm mmap failed: ") + strerror(errno));
    ::close(fd);
    return st;
  }
  return ShmSegment(fd, static_cast<uint8_t*>(map), bytes);
}

Result<ShmSegment> ShmSegment::Adopt(int fd, size_t bytes, bool writable) {
  if (fd < 0) return Status::InvalidArgument("shm fd is invalid");
  if (bytes == 0) {
    ::close(fd);
    return Status::InvalidArgument("shm segment size is zero");
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    Status err =
        Status::IOError(std::string("shm fstat failed: ") + strerror(errno));
    ::close(fd);
    return err;
  }
  if (st.st_size < static_cast<off_t>(bytes)) {
    ::close(fd);
    return Status::InvalidArgument(
        "shm segment smaller than negotiated size (" +
        std::to_string(st.st_size) + " < " + std::to_string(bytes) + ")");
  }
  int prot = PROT_READ | (writable ? PROT_WRITE : 0);
  void* map = ::mmap(nullptr, bytes, prot, MAP_SHARED, fd, 0);
  if (map == MAP_FAILED) {
    Status err =
        Status::IOError(std::string("shm mmap failed: ") + strerror(errno));
    ::close(fd);
    return err;
  }
  return ShmSegment(fd, static_cast<uint8_t*>(map), bytes);
}

SlotRing::SlotRing(uint32_t num_slots, uint64_t slot_bytes)
    : num_slots_(num_slots),
      slot_bytes_(slot_bytes),
      generation_(num_slots, 0) {}

std::optional<std::pair<uint32_t, uint64_t>> SlotRing::TryAcquire() {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return std::nullopt;
  for (uint32_t slot = 0; slot < num_slots_; ++slot) {
    if (generation_[slot] == 0) {
      uint64_t gen = next_generation_++;
      generation_[slot] = gen;
      ++held_;
      return std::make_pair(slot, gen);
    }
  }
  return std::nullopt;  // Every slot is held.
}

bool SlotRing::Release(uint32_t slot, uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  if (slot >= num_slots_ || generation == 0) return false;
  if (generation_[slot] != generation) return false;
  generation_[slot] = 0;
  --held_;
  return true;
}

void SlotRing::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
}

uint32_t SlotRing::held_slots() const {
  std::lock_guard<std::mutex> lock(mu_);
  return held_;
}

}  // namespace pcr
