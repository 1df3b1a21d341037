// Production JPEG decode path: DecoderT instantiated with the buffered
// 64-bit BitReader (table-driven Huffman via HuffTable::DecodeSymbol) and an
// allocation-free renderer — dispatched dequantization that flags DC-only
// blocks for a flat fill, fixed-point IDCT, integer chroma upsample and
// table-driven color conversion.
// The spec state machine itself lives in decoder_impl.h, shared with the
// reference decoder (reference_codec.cc) that the parity tests diff against.
#include <algorithm>
#include <cstring>

#include "arch/arch.h"
#include "jpeg/codec.h"
#include "jpeg/decoder_impl.h"

namespace pcr::jpeg {

namespace {

using FastDecoder = internal::DecoderT<BitReader>;

// Renders one component plane from its coefficient blocks. Interior blocks
// IDCT straight into the plane at its stride; edge blocks go through an
// 8x8 staging buffer; all-AC-zero blocks flat-fill without a transform
// (bit-exact with the general path by construction of InverseDct8x8Fixed).
// The dequantize kernel matches the reference renderer's DequantizeBlock.
void RenderComponent(const ComponentInfo& info, const QuantTable& qtbl,
                     const CoeffImage& coeffs, int comp, Plane* plane) {
  const arch::Kernels& k = arch::Active();
  const int stride = plane->width();
  alignas(32) int32_t dq[64];
  alignas(32) uint8_t staged[64];
  for (int by = 0; by < info.height_blocks; ++by) {
    const int y0 = by * 8;
    const int y_limit = std::min(8, info.height - y0);
    for (int bx = 0; bx < info.width_blocks; ++bx) {
      const int x0 = bx * 8;
      const int x_limit = std::min(8, info.width - x0);
      const CoeffBlock& block = coeffs.block(comp, bx, by);
      uint8_t* dst = plane->data() + static_cast<size_t>(y0) * stride + x0;

      if (!k.dequantize(block.data(), qtbl.data(), dq)) {
        // DC-only block: one descale, flat fill. Equals what the IDCT
        // produces for this input, so the fast path changes no pixel.
        const int32_t level = ((dq[0] + 4) >> 3) + 128;
        const uint8_t v =
            level < 0 ? 0 : (level > 255 ? 255 : static_cast<uint8_t>(level));
        for (int y = 0; y < y_limit; ++y) {
          std::memset(dst + static_cast<size_t>(y) * stride, v,
                      static_cast<size_t>(x_limit));
        }
        continue;
      }

      if (x_limit == 8 && y_limit == 8) {
        k.idct8x8(dq, dst, stride);
      } else {
        k.idct8x8(dq, staged, 8);
        for (int y = 0; y < y_limit; ++y) {
          std::memcpy(dst + static_cast<size_t>(y) * stride, staged + y * 8,
                      static_cast<size_t>(x_limit));
        }
      }
    }
  }
}

Image RenderFromCoefficients(const FrameInfo& frame, const QuantTable* qtables,
                             const CoeffImage& coeffs,
                             DecodeScratch* scratch) {
  PlanarImage own_planar;
  PlanarImage& planar = scratch != nullptr ? scratch->planar : own_planar;
  planar.full_width = frame.width;
  planar.full_height = frame.height;
  planar.planes.resize(frame.components.size());

  for (size_t c = 0; c < frame.components.size(); ++c) {
    const auto& info = frame.components[c];
    planar.planes[c].Reset(info.width, info.height);
    RenderComponent(info, qtables[info.quant_tbl], coeffs,
                    static_cast<int>(c), &planar.planes[c]);
  }
  return YcbcrToRgb(planar, scratch != nullptr ? &scratch->color : nullptr);
}

}  // namespace

Image RenderCoefficients(const JpegData& data, DecodeScratch* scratch) {
  return RenderFromCoefficients(data.frame, data.quant_tables.data(),
                                data.coefficients, scratch);
}

Result<DecodeResult> DecodeFull(Slice data, DecodeScratch* scratch) {
  FastDecoder decoder(data, scratch);
  PCR_RETURN_IF_ERROR(decoder.Parse());
  if (!decoder.have_frame()) {
    return Status::Corruption("no frame header before end of data");
  }
  DecodeResult result;
  result.frame = decoder.frame();
  result.scans_decoded = decoder.scans_decoded();
  result.complete = decoder.complete();
  result.kernel_isa = arch::Active().name;
  result.image =
      RenderFromCoefficients(decoder.frame(), decoder.quant_tables(),
                             decoder.coefficients(), scratch);
  return result;
}

Result<Image> Decode(Slice data, DecodeScratch* scratch) {
  PCR_ASSIGN_OR_RETURN(DecodeResult result, DecodeFull(data, scratch));
  return std::move(result.image);
}

Result<JpegData> DecodeToCoefficients(Slice data) {
  FastDecoder decoder(data);
  PCR_RETURN_IF_ERROR(decoder.Parse());
  if (!decoder.have_frame()) {
    return Status::Corruption("no frame header before end of data");
  }
  return decoder.TakeJpegData();
}

Result<std::string> TranscodeToProgressive(Slice data) {
  PCR_ASSIGN_OR_RETURN(JpegData jdata, DecodeToCoefficients(data));
  return EncodeFromData(jdata, /*progressive=*/true);
}

}  // namespace pcr::jpeg
