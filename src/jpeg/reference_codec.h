// Reference JPEG decode path — the test oracle the fast path is diffed
// against, kept deliberately naive:
//
//  - ReferenceBitReader: the seed's byte-at-a-time bit reader (one FillByte
//    per 8 bits, stuffing collapsed a byte at a time), no accumulator.
//  - Huffman decoding: the canonical per-length bit-by-bit walk
//    (HuffTable::DecodeSymbolBitwise), never the lookup table.
//  - Rendering: per-block IDCT with no short-circuits, per-pixel chroma
//    upsampling and scalar color conversion (ycc::ToRgb), no row pointers,
//    no reusable scratch.
//
// Both paths share the spec state machine (decoder_impl.h) and the
// fixed-point arithmetic definitions (dct.h, color.h), so the parity suite
// asserts bit-exact coefficients AND pixels; the double-precision
// InverseDct8x8 remains the accuracy oracle for the fixed-point IDCT
// itself (jpeg_test.cc).
#pragma once

#include "jpeg/codec.h"
#include "util/result.h"
#include "util/slice.h"

namespace pcr::jpeg {

/// The original unbuffered MSB-first bit reader over entropy data. Same
/// observable contract as BitReader (zero fill + Exhausted() past the end,
/// stop at markers), structurally independent implementation.
class ReferenceBitReader {
 public:
  explicit ReferenceBitReader(Slice data) : data_(data) {}

  int ReadBit() {
    if (bit_count_ == 0 && !FillByte()) {
      exhausted_ = true;
      return 0;
    }
    --bit_count_;
    return (current_ >> bit_count_) & 1;
  }

  uint32_t ReadBits(int count) {
    uint32_t v = 0;
    for (int i = 0; i < count; ++i) v = (v << 1) | ReadBit();
    return v;
  }

  bool Exhausted() const { return exhausted_; }

  /// Input bytes taken so far (same contract as BitReader::position).
  size_t position() const { return pos_; }

 private:
  bool FillByte() {
    while (pos_ < data_.size()) {
      const uint8_t byte = static_cast<uint8_t>(data_[pos_]);
      if (byte == 0xff) {
        if (pos_ + 1 < data_.size() &&
            static_cast<uint8_t>(data_[pos_ + 1]) == 0x00) {
          current_ = 0xff;
          bit_count_ = 8;
          pos_ += 2;
          return true;
        }
        return false;  // Marker: end of entropy data.
      }
      current_ = byte;
      bit_count_ = 8;
      ++pos_;
      return true;
    }
    return false;
  }

  Slice data_;
  size_t pos_ = 0;
  uint32_t current_ = 0;
  int bit_count_ = 0;
  bool exhausted_ = false;
};

/// Reference decode entry points, mirroring the fast ones in codec.h.
struct ReferenceCodec {
  static Result<DecodeResult> DecodeFull(Slice data);
  static Result<Image> Decode(Slice data);
  static Result<JpegData> DecodeToCoefficients(Slice data);
  /// Naive render: same fixed-point kernels, straight-line per-pixel code.
  static Image RenderCoefficients(const JpegData& data);
};

}  // namespace pcr::jpeg
