// SSE2 kernels. Bit-exactness strategy: the IDCT reproduces the scalar
// int64 butterfly exactly — two lanes per __m128i, four registers per
// 8-wide value — using an exact low-64 multiply built from _mm_mul_epu32
// (SSE2 has no 64-bit multiply): for a positive 32-bit constant c and any
// int64 a whose true product fits in int64,
//
//   lo64(a * c) = (a_lo * c + ((a_hi * c) << 32)) mod 2^64
//
// with a_lo/a_hi the unsigned dword halves of a; the sign-extension error
// terms are multiples of 2^64 and vanish. Negated constants in the scalar
// code become subtractions so every multiply constant stays positive. The
// arithmetic right shift SSE2 also lacks is done by biasing with 2^62,
// shifting logically, and subtracting the shifted bias; the final
// [0, 255] clamp is the saturating packs_epi32/packus_epi16 chain, which
// matches the scalar clamp exactly because both saturation points lie
// outside [0, 255].
#include <emmintrin.h>

#include <algorithm>
#include <cstring>

#include "arch/idct_consts.h"
#include "arch/kernels.h"
#include "image/color.h"

namespace pcr::arch {

namespace {

// Eight int64 lanes: v[p] holds lanes 2p and 2p+1.
struct V8 {
  __m128i v[4];
};

inline V8 Add(const V8& a, const V8& b) {
  V8 r;
  for (int p = 0; p < 4; ++p) r.v[p] = _mm_add_epi64(a.v[p], b.v[p]);
  return r;
}

inline V8 Sub(const V8& a, const V8& b) {
  V8 r;
  for (int p = 0; p < 4; ++p) r.v[p] = _mm_sub_epi64(a.v[p], b.v[p]);
  return r;
}

template <int n>
inline V8 Shl(const V8& a) {
  V8 r;
  for (int p = 0; p < 4; ++p) r.v[p] = _mm_slli_epi64(a.v[p], n);
  return r;
}

// Exact low-64 product with a positive 32-bit constant (see file comment).
inline __m128i Mul64(__m128i a, __m128i c) {
  const __m128i lo = _mm_mul_epu32(a, c);
  const __m128i hi =
      _mm_mul_epu32(_mm_shuffle_epi32(a, _MM_SHUFFLE(3, 3, 1, 1)), c);
  return _mm_add_epi64(lo, _mm_slli_epi64(hi, 32));
}

inline V8 Mul(const V8& a, int64_t c) {
  const __m128i cv = _mm_set1_epi64x(c);
  V8 r;
  for (int p = 0; p < 4; ++p) r.v[p] = Mul64(a.v[p], cv);
  return r;
}

// (x + 2^(n-1)) >> n arithmetically, via logical shift of a 2^62-biased
// value (|x| stays far below 2^62 in both passes).
template <int n>
inline V8 DescaleV(const V8& a) {
  const __m128i bias =
      _mm_set1_epi64x((int64_t{1} << (n - 1)) + (int64_t{1} << 62));
  const __m128i unbias = _mm_set1_epi64x(int64_t{1} << (62 - n));
  V8 r;
  for (int p = 0; p < 4; ++p) {
    r.v[p] =
        _mm_sub_epi64(_mm_srli_epi64(_mm_add_epi64(a.v[p], bias), n), unbias);
  }
  return r;
}

// Eight consecutive int32, sign-extended to int64 lanes.
inline V8 LoadRow(const int32_t* p) {
  const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 4));
  const __m128i sa = _mm_srai_epi32(a, 31);
  const __m128i sb = _mm_srai_epi32(b, 31);
  V8 r;
  r.v[0] = _mm_unpacklo_epi32(a, sa);
  r.v[1] = _mm_unpackhi_epi32(a, sa);
  r.v[2] = _mm_unpacklo_epi32(b, sb);
  r.v[3] = _mm_unpackhi_epi32(b, sb);
  return r;
}

// The scalar Loeffler butterfly, elementwise over 8 lanes, descaling by
// kShift. Scalar's `+ x * (-kFix...)` terms are subtractions here.
template <int kShift>
inline void Butterfly(const V8 in[8], V8 out[8]) {
  using namespace idct;  // NOLINT(build/namespaces)
  const V8 z1 = Mul(Add(in[2], in[6]), kFix0_541196100);
  const V8 tmp2 = Sub(z1, Mul(in[6], kFix1_847759065));
  const V8 tmp3 = Add(z1, Mul(in[2], kFix0_765366865));
  const V8 tmp0 = Shl<kConstBits>(Add(in[0], in[4]));
  const V8 tmp1 = Shl<kConstBits>(Sub(in[0], in[4]));
  const V8 tmp10 = Add(tmp0, tmp3);
  const V8 tmp13 = Sub(tmp0, tmp3);
  const V8 tmp11 = Add(tmp1, tmp2);
  const V8 tmp12 = Sub(tmp1, tmp2);

  V8 t0 = in[7];
  V8 t1 = in[5];
  V8 t2 = in[3];
  V8 t3 = in[1];
  const V8 z1o = Add(t0, t3);
  const V8 z2o = Add(t1, t2);
  const V8 z3o = Add(t0, t2);
  const V8 z4o = Add(t1, t3);
  const V8 z5 = Mul(Add(z3o, z4o), kFix1_175875602);
  t0 = Mul(t0, kFix0_298631336);
  t1 = Mul(t1, kFix2_053119869);
  t2 = Mul(t2, kFix3_072711026);
  t3 = Mul(t3, kFix1_501321110);
  const V8 z1m = Mul(z1o, kFix0_899976223);  // Subtracted below.
  const V8 z2m = Mul(z2o, kFix2_562915447);
  const V8 z3m = Sub(z5, Mul(z3o, kFix1_961570560));
  const V8 z4m = Sub(z5, Mul(z4o, kFix0_390180644));
  t0 = Sub(Add(t0, z3m), z1m);
  t1 = Sub(Add(t1, z4m), z2m);
  t2 = Sub(Add(t2, z3m), z2m);
  t3 = Sub(Add(t3, z4m), z1m);

  out[0] = DescaleV<kShift>(Add(tmp10, t3));
  out[7] = DescaleV<kShift>(Sub(tmp10, t3));
  out[1] = DescaleV<kShift>(Add(tmp11, t2));
  out[6] = DescaleV<kShift>(Sub(tmp11, t2));
  out[2] = DescaleV<kShift>(Add(tmp12, t1));
  out[5] = DescaleV<kShift>(Sub(tmp12, t1));
  out[3] = DescaleV<kShift>(Add(tmp13, t0));
  out[4] = DescaleV<kShift>(Sub(tmp13, t0));
}

// 8x8 int64 transpose: o[j].lane(r) = w[r].lane(j).
inline void Transpose(const V8 w[8], V8 o[8]) {
  for (int p = 0; p < 4; ++p) {
    for (int q = 0; q < 4; ++q) {
      o[2 * p].v[q] = _mm_unpacklo_epi64(w[2 * q].v[p], w[2 * q + 1].v[p]);
      o[2 * p + 1].v[q] = _mm_unpackhi_epi64(w[2 * q].v[p], w[2 * q + 1].v[p]);
    }
  }
}

// Narrows int64 lanes (known to fit int32) to packed int32: [l0 l1 l2 l3].
inline __m128i Narrow2(__m128i a, __m128i b) {
  const __m128i sa = _mm_shuffle_epi32(a, _MM_SHUFFLE(0, 0, 2, 0));
  const __m128i sb = _mm_shuffle_epi32(b, _MM_SHUFFLE(0, 0, 2, 0));
  return _mm_unpacklo_epi64(sa, sb);
}

// One output row: +128 level shift and saturating clamp to 8 bytes.
inline void StoreRow(const V8& row, uint8_t* dst) {
  const __m128i shift = _mm_set1_epi32(128);
  const __m128i left = _mm_add_epi32(Narrow2(row.v[0], row.v[1]), shift);
  const __m128i right = _mm_add_epi32(Narrow2(row.v[2], row.v[3]), shift);
  const __m128i p16 = _mm_packs_epi32(left, right);
  const __m128i p8 = _mm_packus_epi16(p16, p16);
  _mm_storel_epi64(reinterpret_cast<__m128i*>(dst), p8);
}

}  // namespace

void IdctSse2(const int32_t coeff[64], uint8_t* out, int out_stride) {
  V8 in[8], w[8], cols[8], res[8], rows[8];
  for (int r = 0; r < 8; ++r) in[r] = LoadRow(coeff + r * 8);
  Butterfly<idct::kConstBits - idct::kPass1Bits>(in, w);
  Transpose(w, cols);
  Butterfly<idct::kFinalShift>(cols, res);
  Transpose(res, rows);
  for (int r = 0; r < 8; ++r) StoreRow(rows[r], out + r * out_stride);
}

namespace {

// Low 32 bits of the lane-wise product — SSE2 has no _mm_mullo_epi32. The
// unsigned dword products agree with the signed ones mod 2^32.
inline __m128i Mullo32(__m128i a, __m128i b) {
  const __m128i even = _mm_mul_epu32(a, b);
  const __m128i odd =
      _mm_mul_epu32(_mm_srli_si128(a, 4), _mm_srli_si128(b, 4));
  const __m128i evens = _mm_shuffle_epi32(even, _MM_SHUFFLE(0, 0, 2, 0));
  const __m128i odds = _mm_shuffle_epi32(odd, _MM_SHUFFLE(0, 0, 2, 0));
  return _mm_unpacklo_epi32(evens, odds);
}

// Four bytes zero-extended to int32 lanes.
inline __m128i Load4U8(const uint8_t* p) {
  int32_t tmp;
  std::memcpy(&tmp, p, 4);
  const __m128i zero = _mm_setzero_si128();
  return _mm_unpacklo_epi16(_mm_unpacklo_epi8(_mm_cvtsi32_si128(tmp), zero),
                            zero);
}

}  // namespace

void YcbcrRowSse2(const uint8_t* y, const uint8_t* cb, const uint8_t* cr,
                  uint8_t* rgb, int n) {
  // The ycc:: formulas on int32 lanes. Every biased sum is non-negative by
  // construction of kShiftBias, so the arithmetic shift equals the scalar
  // `>>` on a non-negative value.
  const __m128i k128 = _mm_set1_epi32(128);
  const __m128i bias = _mm_set1_epi32(ycc::kHalf + ycc::kShiftBias);
  const __m128i back = _mm_set1_epi32(256);
  const __m128i c_cr_r = _mm_set1_epi32(ycc::kCrToR);
  const __m128i c_cb_g = _mm_set1_epi32(ycc::kCbToG);
  const __m128i c_cr_g = _mm_set1_epi32(ycc::kCrToG);
  const __m128i c_cb_b = _mm_set1_epi32(ycc::kCbToB);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i yv = Load4U8(y + i);
    const __m128i cbm = _mm_sub_epi32(Load4U8(cb + i), k128);
    const __m128i crm = _mm_sub_epi32(Load4U8(cr + i), k128);
    const __m128i r32 = _mm_add_epi32(
        yv, _mm_sub_epi32(
                _mm_srai_epi32(
                    _mm_add_epi32(Mullo32(crm, c_cr_r), bias), ycc::kScaleBits),
                back));
    const __m128i gsum = _mm_sub_epi32(
        _mm_sub_epi32(bias, Mullo32(cbm, c_cb_g)), Mullo32(crm, c_cr_g));
    const __m128i g32 = _mm_add_epi32(
        yv, _mm_sub_epi32(_mm_srai_epi32(gsum, ycc::kScaleBits), back));
    const __m128i b32 = _mm_add_epi32(
        yv, _mm_sub_epi32(
                _mm_srai_epi32(
                    _mm_add_epi32(Mullo32(cbm, c_cb_b), bias), ycc::kScaleBits),
                back));
    // Saturating pack == ClampToByte; bytes land as [r0..3 g0..3 b0..3 x4].
    const __m128i p8 = _mm_packus_epi16(_mm_packs_epi32(r32, g32),
                                        _mm_packs_epi32(b32, b32));
    alignas(16) uint8_t tmp[16];
    _mm_store_si128(reinterpret_cast<__m128i*>(tmp), p8);
    uint8_t* dst = rgb + 3 * i;
    for (int k = 0; k < 4; ++k) {
      dst[3 * k + 0] = tmp[k];
      dst[3 * k + 1] = tmp[4 + k];
      dst[3 * k + 2] = tmp[8 + k];
    }
  }
  if (i < n) YcbcrRowScalar(y + i, cb + i, cr + i, rgb + 3 * i, n - i);
}

bool DequantizeSse2(const int16_t coeff[64], const uint16_t quant[64],
                    int32_t out[64]) {
  // Exact int16 x uint16 -> int32 products from 16-bit halves: the high
  // half of the unsigned product over-counts by quant wherever coeff < 0.
  const __m128i hi_limit = _mm_set1_epi32(kMaxDequantized);
  const __m128i lo_limit = _mm_set1_epi32(-kMaxDequantized);
  const auto clamp = [&](__m128i v) {
    const __m128i above = _mm_cmpgt_epi32(v, hi_limit);
    v = _mm_or_si128(_mm_and_si128(above, hi_limit),
                     _mm_andnot_si128(above, v));
    const __m128i below = _mm_cmpgt_epi32(lo_limit, v);
    return _mm_or_si128(_mm_and_si128(below, lo_limit),
                        _mm_andnot_si128(below, v));
  };
  const __m128i no_dc = _mm_setr_epi16(0, -1, -1, -1, -1, -1, -1, -1);
  __m128i ac = _mm_setzero_si128();
  for (int i = 0; i < 64; i += 8) {
    const __m128i c =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(coeff + i));
    const __m128i q =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(quant + i));
    const __m128i lo = _mm_mullo_epi16(c, q);
    const __m128i hi = _mm_sub_epi16(
        _mm_mulhi_epu16(c, q), _mm_and_si128(q, _mm_srai_epi16(c, 15)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     clamp(_mm_unpacklo_epi16(lo, hi)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 4),
                     clamp(_mm_unpackhi_epi16(lo, hi)));
    ac = _mm_or_si128(ac, i == 0 ? _mm_and_si128(c, no_dc) : c);
  }
  return _mm_movemask_epi8(_mm_cmpeq_epi8(ac, _mm_setzero_si128())) !=
         0xffff;
}

void UpsampleRowSse2(const uint8_t* r0, const uint8_t* r1, int wy1,
                     uint8_t* out, int out_w, int chroma_w) {
  constexpr int kV = 8;  // Chroma positions per step (2*kV outputs).
  // For outputs 2k'/2k'+1 the taps are k'-1, k', k'+1 — unclamped while k'
  // stays in [1, chroma_w - 2]. A step at k covers k' in [k, k + kV), so
  // the last step that stays unclamped and inside the row starts here.
  const int k_last = std::min(chroma_w - 1, out_w / 2) - kV;
  int i = 0;
  if (k_last >= 1) {
    detail::UpsampleRowSpanScalar(r0, r1, wy1, out, 0, 2, chroma_w);
    const __m128i zero = _mm_setzero_si128();
    const __m128i w0 = _mm_set1_epi16(static_cast<short>(4 - wy1));
    const __m128i w1 = _mm_set1_epi16(static_cast<short>(wy1));
    const __m128i three = _mm_set1_epi16(3);
    const __m128i eight = _mm_set1_epi16(8);
    const auto blend = [&](int k) {
      const __m128i a = _mm_unpacklo_epi8(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(r0 + k)), zero);
      const __m128i b = _mm_unpacklo_epi8(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(r1 + k)), zero);
      return _mm_add_epi16(_mm_mullo_epi16(a, w0), _mm_mullo_epi16(b, w1));
    };
    const auto step = [&](int k) {
      const __m128i ta = blend(k - 1);
      const __m128i tb = blend(k);
      const __m128i tc = blend(k + 1);
      const __m128i tb3 = _mm_mullo_epi16(tb, three);
      const __m128i even = _mm_srli_epi16(
          _mm_add_epi16(_mm_add_epi16(ta, tb3), eight), 4);
      const __m128i odd = _mm_srli_epi16(
          _mm_add_epi16(_mm_add_epi16(tb3, tc), eight), 4);
      const __m128i p = _mm_packus_epi16(even, odd);
      const __m128i inter = _mm_unpacklo_epi8(p, _mm_srli_si128(p, 8));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 2 * k), inter);
    };
    int k = 1;
    for (; k < k_last; k += kV) step(k);
    step(k_last);  // Overlaps the previous step rather than going scalar.
    i = 2 * (k_last + kV);
  }
  detail::UpsampleRowSpanScalar(r0, r1, wy1, out, i, out_w, chroma_w);
}

size_t FindFfSse2(const uint8_t* data, size_t n) {
  const __m128i ff = _mm_set1_epi8(static_cast<char>(0xff));
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    const int m = _mm_movemask_epi8(_mm_cmpeq_epi8(v, ff));
    if (m != 0) return i + static_cast<size_t>(__builtin_ctz(m));
  }
  return i + FindFfScalar(data + i, n - i);
}

}  // namespace pcr::arch
