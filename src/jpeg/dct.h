// 8x8 forward and inverse DCT (type II / III).
//
// Two inverse implementations live here:
//  - InverseDct8x8: double-precision separable reference. Precision over
//    speed; it is the accuracy oracle the fixed-point path is tested
//    against, and the encoder's ForwardDct8x8 companion.
//  - InverseDct8x8Fixed: the decode hot path. A fixed-point integer
//    Loeffler-style separable butterfly IDCT (the libjpeg "islow"
//    structure, widened to 64-bit intermediates with 18-bit constants for
//    headroom and accuracy) that takes dequantized coefficients and writes
//    clamped 8-bit samples directly, with per-column and all-AC-zero
//    short-circuits that are bit-exact with the general path.
#pragma once

#include <cstdint>

#include "arch/arch.h"

namespace pcr::jpeg {

/// Forward DCT of an 8x8 spatial block (level-shifted samples, i.e. centered
/// on 0) into coefficients. in/out may not alias.
void ForwardDct8x8(const double in[64], double out[64]);

/// Inverse DCT of an 8x8 coefficient block into (level-shifted) samples.
void InverseDct8x8(const double in[64], double out[64]);

/// Largest dequantized coefficient magnitude the fixed-point path accepts;
/// inputs beyond this must be clamped by the caller (DequantizeBlock and
/// arch::Kernels::dequantize do).
/// Any legitimate 8-bit JPEG stays far below it: |coefficient| <= 2048 + q/2
/// < 2^16 even with 16-bit quantizers, so only corrupt streams clamp.
inline constexpr int32_t kMaxDequantizedCoeff = arch::kMaxDequantized;

/// Fixed-point inverse DCT of one dequantized coefficient block (natural
/// row-major order, every entry within +/-kMaxDequantizedCoeff) straight to
/// 8-bit samples: +128 level shift and [0, 255] clamp applied, rounding
/// half up like the double path's `+ 0.5` convention. Output rows are
/// written at `out_stride` samples apart.
void InverseDct8x8Fixed(const int32_t coeff[64], uint8_t* out, int out_stride);

}  // namespace pcr::jpeg
