// Scalar kernels — the canonical implementations every SIMD tier must match
// bit for bit. The IDCT body is the fixed-point path that previously lived
// in jpeg/dct.cc (jpeg::InverseDct8x8Fixed still wraps it); the color
// kernels are built from the inline ycc:: formulas of image/color.h, so the
// per-pixel reference codec and these row kernels agree by construction.
#include <cstring>

#include "arch/idct_consts.h"
#include "arch/kernels.h"
#include "image/color.h"

namespace pcr::arch {

bool DequantizeScalar(const int16_t coeff[64], const uint16_t quant[64],
                      int32_t out[64]) {
  int ac = 0;
  for (int i = 0; i < 64; ++i) {
    // |int16 * uint16| < 2^31: the product itself never overflows.
    const int32_t v = static_cast<int32_t>(coeff[i]) * quant[i];
    out[i] = v < -kMaxDequantized
                 ? -kMaxDequantized
                 : (v > kMaxDequantized ? kMaxDequantized : v);
    ac |= i > 0 ? coeff[i] : 0;
  }
  return ac != 0;
}

void IdctScalar(const int32_t coeff[64], uint8_t* out, int out_stride) {
  using namespace idct;  // NOLINT(build/namespaces)
  int64_t ws[64];  // Column-pass output, scaled by 2^kPass1Bits.

  // Pass 1: columns. A column whose AC terms are all zero short-circuits to
  // a constant column; the shift below makes that exactly equal to what the
  // butterflies produce for the same input.
  for (int c = 0; c < 8; ++c) {
    const int32_t* col = coeff + c;
    if ((col[8] | col[16] | col[24] | col[32] | col[40] | col[48] |
         col[56]) == 0) {
      const int64_t dcval = static_cast<int64_t>(col[0]) * kPass1Scale;
      for (int r = 0; r < 8; ++r) ws[r * 8 + c] = dcval;
      continue;
    }

    // Even part.
    const int64_t z2 = col[16];
    const int64_t z3 = col[48];
    const int64_t z1 = (z2 + z3) * kFix0_541196100;
    const int64_t tmp2 = z1 + z3 * (-kFix1_847759065);
    const int64_t tmp3 = z1 + z2 * kFix0_765366865;

    const int64_t tmp0 =
        (static_cast<int64_t>(col[0]) + col[32]) * kConstScale;
    const int64_t tmp1 =
        (static_cast<int64_t>(col[0]) - col[32]) * kConstScale;

    const int64_t tmp10 = tmp0 + tmp3;
    const int64_t tmp13 = tmp0 - tmp3;
    const int64_t tmp11 = tmp1 + tmp2;
    const int64_t tmp12 = tmp1 - tmp2;

    // Odd part.
    int64_t t0 = col[56];
    int64_t t1 = col[40];
    int64_t t2 = col[24];
    int64_t t3 = col[8];

    const int64_t z1o = t0 + t3;
    const int64_t z2o = t1 + t2;
    const int64_t z3o = t0 + t2;
    const int64_t z4o = t1 + t3;
    const int64_t z5 = (z3o + z4o) * kFix1_175875602;

    t0 *= kFix0_298631336;
    t1 *= kFix2_053119869;
    t2 *= kFix3_072711026;
    t3 *= kFix1_501321110;
    const int64_t z1m = z1o * (-kFix0_899976223);
    const int64_t z2m = z2o * (-kFix2_562915447);
    const int64_t z3m = z3o * (-kFix1_961570560) + z5;
    const int64_t z4m = z4o * (-kFix0_390180644) + z5;

    t0 += z1m + z3m;
    t1 += z2m + z4m;
    t2 += z2m + z3m;
    t3 += z1m + z4m;

    ws[8 * 0 + c] = Descale(tmp10 + t3, kConstBits - kPass1Bits);
    ws[8 * 7 + c] = Descale(tmp10 - t3, kConstBits - kPass1Bits);
    ws[8 * 1 + c] = Descale(tmp11 + t2, kConstBits - kPass1Bits);
    ws[8 * 6 + c] = Descale(tmp11 - t2, kConstBits - kPass1Bits);
    ws[8 * 2 + c] = Descale(tmp12 + t1, kConstBits - kPass1Bits);
    ws[8 * 5 + c] = Descale(tmp12 - t1, kConstBits - kPass1Bits);
    ws[8 * 3 + c] = Descale(tmp13 + t0, kConstBits - kPass1Bits);
    ws[8 * 4 + c] = Descale(tmp13 - t0, kConstBits - kPass1Bits);
  }

  // Pass 2: rows, with the final descale, +128 level shift and clamp.
  for (int r = 0; r < 8; ++r) {
    const int64_t* row = ws + r * 8;
    uint8_t* dst = out + r * out_stride;
    if ((row[1] | row[2] | row[3] | row[4] | row[5] | row[6] | row[7]) ==
        0) {
      const uint8_t dcval =
          ClampSample(Descale(row[0], kPass1Bits + 3) + 128);
      for (int x = 0; x < 8; ++x) dst[x] = dcval;
      continue;
    }

    // Even part.
    const int64_t z2 = row[2];
    const int64_t z3 = row[6];
    const int64_t z1 = (z2 + z3) * kFix0_541196100;
    const int64_t tmp2 = z1 + z3 * (-kFix1_847759065);
    const int64_t tmp3 = z1 + z2 * kFix0_765366865;

    const int64_t tmp0 = (row[0] + row[4]) * kConstScale;
    const int64_t tmp1 = (row[0] - row[4]) * kConstScale;

    const int64_t tmp10 = tmp0 + tmp3;
    const int64_t tmp13 = tmp0 - tmp3;
    const int64_t tmp11 = tmp1 + tmp2;
    const int64_t tmp12 = tmp1 - tmp2;

    // Odd part.
    int64_t t0 = row[7];
    int64_t t1 = row[5];
    int64_t t2 = row[3];
    int64_t t3 = row[1];

    const int64_t z1o = t0 + t3;
    const int64_t z2o = t1 + t2;
    const int64_t z3o = t0 + t2;
    const int64_t z4o = t1 + t3;
    const int64_t z5 = (z3o + z4o) * kFix1_175875602;

    t0 *= kFix0_298631336;
    t1 *= kFix2_053119869;
    t2 *= kFix3_072711026;
    t3 *= kFix1_501321110;
    const int64_t z1m = z1o * (-kFix0_899976223);
    const int64_t z2m = z2o * (-kFix2_562915447);
    const int64_t z3m = z3o * (-kFix1_961570560) + z5;
    const int64_t z4m = z4o * (-kFix0_390180644) + z5;

    t0 += z1m + z3m;
    t1 += z2m + z4m;
    t2 += z2m + z3m;
    t3 += z1m + z4m;

    dst[0] = ClampSample(Descale(tmp10 + t3, kFinalShift) + 128);
    dst[7] = ClampSample(Descale(tmp10 - t3, kFinalShift) + 128);
    dst[1] = ClampSample(Descale(tmp11 + t2, kFinalShift) + 128);
    dst[6] = ClampSample(Descale(tmp11 - t2, kFinalShift) + 128);
    dst[2] = ClampSample(Descale(tmp12 + t1, kFinalShift) + 128);
    dst[5] = ClampSample(Descale(tmp12 - t1, kFinalShift) + 128);
    dst[3] = ClampSample(Descale(tmp13 + t0, kFinalShift) + 128);
    dst[4] = ClampSample(Descale(tmp13 - t0, kFinalShift) + 128);
  }
}

namespace {

// Per-chroma-value lookup tables for the fixed-point conversion (formerly
// image/color.cc). Built from the canonical scalar formulas of color.h, so
// table-driven output is bit-identical to ycc::ToRgb.
struct YccLut {
  int cr_r[256];
  int cb_b[256];
  int cb_g[256];  // Green Cb term, still scaled by 2^kScaleBits.
  int cr_g[256];  // Green Cr term + rounding + shift bias, scaled.

  YccLut() {
    for (int v = 0; v < 256; ++v) {
      cr_r[v] = ycc::CrToR(v);
      cb_b[v] = ycc::CbToB(v);
      cb_g[v] = -ycc::kCbToG * (v - 128);
      cr_g[v] = -ycc::kCrToG * (v - 128) + ycc::kHalf + ycc::kShiftBias;
    }
  }

  // g offset = CbCrToG(cb, cr), by construction of the two tables.
  int GreenOffset(int cb, int cr) const {
    return ((cb_g[cb] + cr_g[cr]) >> ycc::kScaleBits) - 256;
  }
};

const YccLut& Lut() {
  static const YccLut lut;
  return lut;
}

}  // namespace

void YcbcrRowScalar(const uint8_t* y, const uint8_t* cb, const uint8_t* cr,
                    uint8_t* rgb, int n) {
  const YccLut& lut = Lut();
  for (int i = 0; i < n; ++i) {
    const int yv = y[i];
    const int cbv = cb[i];
    const int crv = cr[i];
    rgb[3 * i + 0] = ycc::ClampToByte(yv + lut.cr_r[crv]);
    rgb[3 * i + 1] = ycc::ClampToByte(yv + lut.GreenOffset(cbv, crv));
    rgb[3 * i + 2] = ycc::ClampToByte(yv + lut.cb_b[cbv]);
  }
}

namespace detail {

void UpsampleRowSpanScalar(const uint8_t* r0, const uint8_t* r1, int wy1,
                           uint8_t* out, int i_begin, int i_end,
                           int chroma_w) {
  // ycc::UpsampleAt with the vertical taps prefolded: the row pair already
  // encodes the j clamp, so only the horizontal taps clamp here.
  const int wy0 = 4 - wy1;
  const int last = chroma_w - 1;
  for (int i = i_begin; i < i_end; ++i) {
    const int x0 = (i & 1) ? (i >> 1) : (i >> 1) - 1;
    const int wx1 = (i & 1) ? 1 : 3;
    const int xa = x0 < 0 ? 0 : (x0 > last ? last : x0);
    const int xb = x0 + 1 > last ? last : x0 + 1;  // x0 + 1 >= 0 always.
    const int ta = wy0 * r0[xa] + wy1 * r1[xa];
    const int tb = wy0 * r0[xb] + wy1 * r1[xb];
    out[i] = static_cast<uint8_t>(((4 - wx1) * ta + wx1 * tb + 8) >> 4);
  }
}

}  // namespace detail

void UpsampleRowScalar(const uint8_t* r0, const uint8_t* r1, int wy1,
                       uint8_t* out, int out_w, int chroma_w) {
  detail::UpsampleRowSpanScalar(r0, r1, wy1, out, 0, out_w, chroma_w);
}

size_t FindFfScalar(const uint8_t* data, size_t n) {
  // SWAR word scan: ~w has a zero byte exactly where w has an 0xFF byte.
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, data + i, 8);
    const uint64_t x = ~w;
    const uint64_t hit =
        (x - UINT64_C(0x0101010101010101)) & ~x & UINT64_C(0x8080808080808080);
    if (hit != 0) {
      // Little-endian: the lowest set bit marks the first 0xFF byte.
      return i + static_cast<size_t>(__builtin_ctzll(hit) >> 3);
    }
  }
  for (; i < n; ++i) {
    if (data[i] == 0xff) return i;
  }
  return n;
}

}  // namespace pcr::arch
