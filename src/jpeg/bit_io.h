// Entropy-coded segment bit I/O with JPEG byte stuffing: every 0xFF data
// byte is followed by a 0x00 stuff byte on write and the pair is collapsed
// on read; an 0xFF followed by anything else is a marker and terminates the
// entropy data.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

#include "arch/arch.h"
#include "util/logging.h"
#include "util/slice.h"

namespace pcr::jpeg {

/// MSB-first bit writer with byte stuffing.
class BitWriter {
 public:
  explicit BitWriter(std::string* out) : out_(out) {}

  /// Writes the low `count` bits of `bits`, MSB first. count in [0, 24].
  void WriteBits(uint32_t bits, int count) {
    PCR_DCHECK(count >= 0 && count <= 24);
    if (count == 0) return;
    acc_ = (acc_ << count) | (bits & ((1u << count) - 1));
    acc_count_ += count;
    while (acc_count_ >= 8) {
      const uint8_t byte =
          static_cast<uint8_t>((acc_ >> (acc_count_ - 8)) & 0xff);
      EmitByte(byte);
      acc_count_ -= 8;
    }
  }

  void WriteBit(int bit) { WriteBits(bit & 1, 1); }

  /// Pads the final partial byte with 1-bits (per the JPEG spec) and flushes.
  void AlignToByte() {
    if (acc_count_ > 0) {
      const int pad = 8 - acc_count_;
      WriteBits((1u << pad) - 1, pad);
    }
  }

 private:
  void EmitByte(uint8_t byte) {
    out_->push_back(static_cast<char>(byte));
    if (byte == 0xff) out_->push_back('\0');  // Stuff byte.
  }

  std::string* out_;
  uint64_t acc_ = 0;
  int acc_count_ = 0;
};

/// MSB-first bit reader over entropy data, built on a buffered 64-bit
/// accumulator: a bulk refill pulls whole bytes from the input, collapsing
/// 0xFF00 stuffing as it goes, so the per-bit hot path is shift arithmetic
/// only. Stops (reports exhaustion) at a marker (0xFF followed by non-zero)
/// or end of input; a truncated stream is not an error at this layer —
/// partial-scan decode relies on it.
///
/// Peek(n)/Consume(n) expose the accumulator to table-driven decoders
/// (huffman.h): Peek returns the next n bits zero-padded past the end of the
/// data, and Consume flags exhaustion when asked to move past the last real
/// bit, so a decode from phantom padding is always detected.
class BitReader {
 public:
  /// Maximum bits a single Peek/ReadBits may request.
  static constexpr int kMaxPeekBits = 32;

  explicit BitReader(Slice data) : data_(data) {}

  /// Returns the next `count` bits MSB-first without consuming them,
  /// zero-padded if fewer real bits remain. count in [0, kMaxPeekBits].
  uint32_t Peek(int count) {
    PCR_DCHECK(count >= 0 && count <= kMaxPeekBits);
    if (acc_bits_ < count) Refill();
    if (count == 0) return 0;
    if (acc_bits_ >= count) {
      return static_cast<uint32_t>(acc_ >> (acc_bits_ - count));
    }
    // Fewer real bits than requested: left-justify and zero-pad.
    return static_cast<uint32_t>(acc_ << (count - acc_bits_)) &
           ((count >= 32 ? 0u : (1u << count)) - 1u);
  }

  /// Consumes `count` bits. Consuming past the last real bit marks the
  /// reader exhausted (the phantom zero-pad bits of Peek are not data).
  void Consume(int count) {
    if (count == 0) return;  // The mask below needs acc_bits_ <= 63 after.
    if (count <= acc_bits_) {
      acc_bits_ -= count;
      acc_ &= (~uint64_t{0}) >> (64 - 1 - acc_bits_) >> 1;
      return;
    }
    acc_ = 0;
    acc_bits_ = 0;
    exhausted_ = true;
  }

  /// Reads one bit; returns 0 at end of data (the spec's "fill with zero"
  /// behaviour never matters because callers check Exhausted()).
  int ReadBit() {
    if (acc_bits_ == 0) {
      Refill();
      if (acc_bits_ == 0) {
        exhausted_ = true;
        return 0;
      }
    }
    --acc_bits_;
    const int bit = static_cast<int>((acc_ >> acc_bits_) & 1);
    acc_ &= ~(uint64_t{1} << acc_bits_);  // Keep only unconsumed bits valid.
    return bit;
  }

  /// Reads `count` bits MSB-first, zero-padded (and flagged exhausted) past
  /// the end of the data.
  uint32_t ReadBits(int count) {
    const uint32_t v = Peek(count);
    Consume(count);
    return v;
  }

  /// Real (non-phantom) bits that can still be read before exhaustion.
  /// Only refilled lazily: a small return value is exact once the input is
  /// drained, which is the case that matters to truncation handling.
  int BitsAvailable() {
    if (acc_bits_ < kMaxPeekBits) Refill();
    return acc_bits_;
  }

  /// True once a read has run past the end of the entropy data.
  bool Exhausted() const { return exhausted_; }

  /// Input bytes taken so far. The reader never passes a marker, so no
  /// marker starts before this offset.
  size_t position() const { return pos_; }

 private:
  // Tops the accumulator up to > 56 buffered bits (or until the entropy
  // data ends at a marker / end of input), collapsing 0xFF00 stuffing.
  //
  // Word-at-a-time: a SIMD/SWAR scan (arch::Active().find_ff) locates the
  // next 0xFF, and everything before it is stuffing-free, so whole
  // big-endian words append with one load instead of eight byte steps. The
  // cached scan result survives across calls; it only reruns after the
  // cursor passes it (i.e. after a collapsed stuff pair).
  void Refill() {
    const uint8_t* base = data_.udata();
    const size_t size = data_.size();
    while (acc_bits_ <= 56) {
      if (pos_ >= size) return;
      if (next_ff_ == kUnscanned || next_ff_ < pos_) {
        next_ff_ = pos_ + arch::Active().find_ff(base + pos_, size - pos_);
      }
      if (next_ff_ - pos_ >= 8) {
        // At least a full stuffing-free word ahead: bulk-append the bytes
        // that fit (1..8 of them — acc_bits_ <= 56 guarantees at least one).
        uint64_t w;
        std::memcpy(&w, base + pos_, 8);
        w = __builtin_bswap64(w);  // First input byte = most significant.
        const int want = (64 - acc_bits_) >> 3;
        const int take = want * 8;
        acc_ = take == 64 ? w : (acc_ << take) | (w >> (64 - take));
        acc_bits_ += take;
        pos_ += static_cast<size_t>(want);
        continue;
      }
      if (pos_ < next_ff_) {
        acc_ = (acc_ << 8) | base[pos_];
        acc_bits_ += 8;
        ++pos_;
        continue;
      }
      // pos_ == next_ff_: an 0xFF byte.
      if (pos_ + 1 < size && base[pos_ + 1] == 0x00) {
        acc_ = (acc_ << 8) | 0xff;
        acc_bits_ += 8;
        pos_ += 2;  // Passes next_ff_, forcing a rescan next iteration.
        continue;
      }
      return;  // Marker (or lone trailing 0xFF): end of entropy data.
    }
  }

  static constexpr size_t kUnscanned = ~size_t{0};

  Slice data_;
  size_t pos_ = 0;
  size_t next_ff_ = kUnscanned;  // Absolute index of the next 0xFF byte.
  uint64_t acc_ = 0;  // Right-aligned: low acc_bits_ bits are valid.
  int acc_bits_ = 0;
  bool exhausted_ = false;
};

}  // namespace pcr::jpeg
