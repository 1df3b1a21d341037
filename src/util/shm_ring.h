// Shared-memory segment and slot-ring helpers for the serving daemon's
// descriptor-passing data plane. A ShmSegment is an anonymous memory-backed
// file (memfd_create, with a shm_open fallback for older kernels) that one
// process creates and maps read-write, then ships to a peer over SCM_RIGHTS;
// the peer maps the same fd read-only. A SlotRing tracks which fixed-size
// slots of the segment are currently lent out to the peer, stamping each
// tenancy with a generation cookie so stale or forged release frames cannot
// free a slot that has since been reused.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace pcr {

/// An mmap'd anonymous shared-memory segment. Move-only; the destructor
/// unmaps and closes the fd. The creating side maps read-write, a side that
/// adopts a received fd maps read-only by default.
class ShmSegment {
 public:
  ShmSegment() = default;
  ~ShmSegment();

  ShmSegment(ShmSegment&& other) noexcept;
  ShmSegment& operator=(ShmSegment&& other) noexcept;
  ShmSegment(const ShmSegment&) = delete;
  ShmSegment& operator=(const ShmSegment&) = delete;

  /// Creates a new segment of `bytes` bytes via memfd_create, falling back
  /// to shm_open+unlink when memfd is unavailable. `name_hint` is only a
  /// debugging label (visible in /proc/<pid>/fd). The mapping is read-write.
  static Result<ShmSegment> Create(const std::string& name_hint, size_t bytes);

  /// Adopts an fd received over SCM_RIGHTS and maps it. Verifies the fd is
  /// at least `bytes` long before mapping, so an undersized or truncated
  /// segment is rejected instead of faulting later. Takes ownership of `fd`
  /// on success AND on failure (it is closed either way).
  static Result<ShmSegment> Adopt(int fd, size_t bytes, bool writable = false);

  bool valid() const { return data_ != nullptr; }
  uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  int fd() const { return fd_; }

 private:
  ShmSegment(int fd, uint8_t* data, size_t size)
      : fd_(fd), data_(data), size_(size) {}
  void Reset();

  int fd_ = -1;
  uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

/// Placement copy into a shared-memory slot. The destination is written
/// exactly once and never read back by the producer (the consumer is in
/// another process), so on x86-64 the bulk is moved with non-temporal
/// stores: unlike memcpy, the CPU does not read-for-ownership and then
/// write back the destination cache lines, cutting the copy's memory
/// traffic by roughly a third — the difference between the shm plane being
/// copy-bound and bandwidth-headroom when many streams place batches at
/// once. Ends with a store fence, so once this returns the data is visible
/// to a peer notified through any sequentially consistent channel (the
/// descriptor frame write). Falls back to memcpy on other architectures.
void PlacementCopy(void* dst, const void* src, size_t n);

/// Bookkeeping for a ring of fixed-size slots lent to a peer. The owner
/// takes a free slot (none free while the peer holds them all — that is the
/// data plane's backpressure), fills it, and sends a descriptor carrying the
/// slot index plus the generation cookie stamped at acquisition. The peer
/// returns the slot with the same cookie; a release whose cookie does not
/// match the live tenancy is ignored.
class SlotRing {
 public:
  SlotRing(uint32_t num_slots, uint64_t slot_bytes);

  uint32_t num_slots() const { return num_slots_; }
  uint64_t slot_bytes() const { return slot_bytes_; }

  /// Byte offset of `slot` within the segment.
  uint64_t SlotOffset(uint32_t slot) const {
    return static_cast<uint64_t>(slot) * slot_bytes_;
  }

  /// Marks a free slot held and returns {slot, generation}; nullopt when
  /// every slot is held or the ring is closed.
  std::optional<std::pair<uint32_t, uint64_t>> TryAcquire();

  /// Releases `slot` if `generation` matches its live tenancy. Returns false
  /// (and changes nothing) for out-of-range slots, free slots, or stale
  /// cookies — forged or duplicated release frames are harmless.
  bool Release(uint32_t slot, uint64_t generation);

  /// Makes every later TryAcquire() fail.
  void Close();

  uint32_t held_slots() const;

 private:
  const uint32_t num_slots_;
  const uint64_t slot_bytes_;

  mutable std::mutex mu_;
  std::vector<uint64_t> generation_;  // 0 = free; nonzero = live cookie.
  uint64_t next_generation_ = 1;
  uint32_t held_ = 0;
  bool closed_ = false;
};

}  // namespace pcr
