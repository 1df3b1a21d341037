// Fast-vs-reference codec parity: the production decode path (buffered
// 64-bit BitReader, table-driven Huffman, short-circuiting fixed-point
// render with reusable scratch) must be bit-exact — coefficients AND pixels
// — with the ReferenceCodec oracle (byte-at-a-time bit reader, bit-by-bit
// canonical Huffman walk, straight-line per-pixel render) on every scan
// script and subsampling mode, for complete streams, every scan prefix,
// byte-granular truncations, and seeded corrupt mutants.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "image/procedural.h"
#include "jpeg/codec.h"
#include "jpeg/reference_codec.h"
#include "jpeg/scan_parser.h"
#include "jpeg/scan_script.h"
#include "util/random.h"

namespace pcr::jpeg {
namespace {

Image MakeTestImage(int w, int h, bool color, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> luma;
  BackgroundParams params;
  RenderBackground(w, h, params, &rng, &luma);
  auto blobs = SampleBlobs(8, 10.0, 40.0, &rng);
  RenderBlobs(w, h, blobs, 0, 0, &luma);
  AddNoise(3.0, &rng, &luma);
  return LumaToImage(w, h, luma, color, &rng);
}

// A progressive script exercising spectral selection without successive
// approximation (unlike the default libjpeg script).
std::vector<ScanSpec> SpectralOnlyScript(int num_components) {
  std::vector<ScanSpec> script;
  ScanSpec dc;
  for (int c = 0; c < num_components; ++c) dc.component_indices.push_back(c);
  dc.ss = 0;
  dc.se = 0;
  script.push_back(dc);
  for (int c = 0; c < num_components; ++c) {
    ScanSpec low;
    low.component_indices = {c};
    low.ss = 1;
    low.se = 5;
    script.push_back(low);
    ScanSpec high;
    high.component_indices = {c};
    high.ss = 6;
    high.se = 63;
    script.push_back(high);
  }
  return script;
}

// A script with a deep successive-approximation ladder on luma AC.
std::vector<ScanSpec> DeepRefinementScript(int num_components) {
  std::vector<ScanSpec> script;
  ScanSpec dc;
  for (int c = 0; c < num_components; ++c) dc.component_indices.push_back(c);
  dc.ss = 0;
  dc.se = 0;
  dc.al = 2;
  script.push_back(dc);
  ScanSpec dc_ref1 = dc;
  dc_ref1.ah = 2;
  dc_ref1.al = 1;
  script.push_back(dc_ref1);
  ScanSpec dc_ref2 = dc;
  dc_ref2.ah = 1;
  dc_ref2.al = 0;
  script.push_back(dc_ref2);
  for (int c = 0; c < num_components; ++c) {
    ScanSpec ac;
    ac.component_indices = {c};
    ac.ss = 1;
    ac.se = 63;
    ac.al = 3;
    script.push_back(ac);
    for (int al = 2; al >= 0; --al) {
      ScanSpec ref = ac;
      ref.ah = al + 1;
      ref.al = al;
      script.push_back(ref);
    }
  }
  return script;
}

void ExpectCoefficientsEqual(const JpegData& fast, const JpegData& ref,
                             const std::string& label) {
  ASSERT_EQ(fast.frame.components.size(), ref.frame.components.size())
      << label;
  for (size_t c = 0; c < fast.frame.components.size(); ++c) {
    const auto& info = fast.frame.components[c];
    for (int by = 0; by < info.height_blocks_padded; ++by) {
      for (int bx = 0; bx < info.width_blocks_padded; ++bx) {
        ASSERT_EQ(fast.coefficients.block(static_cast<int>(c), bx, by),
                  ref.coefficients.block(static_cast<int>(c), bx, by))
            << label << " comp " << c << " block (" << bx << "," << by << ")";
      }
    }
  }
}

void ExpectPixelsEqual(const Image& fast, const Image& ref,
                       const std::string& label) {
  ASSERT_TRUE(fast.SameShape(ref)) << label;
  ASSERT_EQ(0, std::memcmp(fast.data(), ref.data(), fast.size_bytes()))
      << label;
}

void ExpectParity(Slice stream, const std::string& label,
                  DecodeScratch* scratch = nullptr) {
  auto fast = DecodeFull(stream, scratch);
  auto ref = ReferenceCodec::DecodeFull(stream);
  ASSERT_EQ(fast.ok(), ref.ok()) << label << " fast=" << fast.status()
                                 << " ref=" << ref.status();
  if (!fast.ok()) return;
  EXPECT_EQ(fast->scans_decoded, ref->scans_decoded) << label;
  EXPECT_EQ(fast->complete, ref->complete) << label;
  ExpectPixelsEqual(fast->image, ref->image, label);

  auto fast_coeffs = DecodeToCoefficients(stream);
  auto ref_coeffs = ReferenceCodec::DecodeToCoefficients(stream);
  ASSERT_EQ(fast_coeffs.ok(), ref_coeffs.ok()) << label;
  if (fast_coeffs.ok()) {
    ExpectCoefficientsEqual(*fast_coeffs, *ref_coeffs, label);
  }
}

struct ScriptCase {
  const char* name;
  bool progressive;
  std::vector<ScanSpec> (*script)(int);  // Null = default for the mode.
};

const ScriptCase kScripts[] = {
    {"baseline", false, nullptr},
    {"default-progressive", true, nullptr},
    {"spectral-only", true, &SpectralOnlyScript},
    {"deep-refinement", true, &DeepRefinementScript},
};

// Randomized encode->decode parity across every scan script x subsampling x
// geometry combination, both color and grayscale.
TEST(CodecParity, AllScriptsAndSubsamplingModesBitExact) {
  const struct {
    int w, h;
    bool color;
  } shapes[] = {
      {64, 64, true},  {97, 55, true},   {17, 9, true},
      {80, 40, false}, {121, 33, false},
  };
  uint64_t seed = 7000;
  for (const auto& shape : shapes) {
    const Image img = MakeTestImage(shape.w, shape.h, shape.color, ++seed);
    for (ChromaSubsampling sub :
         {ChromaSubsampling::k444, ChromaSubsampling::k420}) {
      if (!shape.color && sub == ChromaSubsampling::k420) continue;
      for (const ScriptCase& sc : kScripts) {
        EncodeOptions options;
        options.quality = 88;
        options.subsampling = sub;
        options.progressive = sc.progressive;
        const int comps = shape.color ? 3 : 1;
        if (sc.script != nullptr) {
          options.scan_script = sc.script(comps);
          ASSERT_TRUE(ValidateProgressiveScript(options.scan_script, comps))
              << sc.name;
        }
        auto encoded = Encode(img, options);
        ASSERT_TRUE(encoded.ok()) << encoded.status();
        const std::string label =
            std::string(sc.name) + (shape.color ? "/color" : "/gray") +
            (sub == ChromaSubsampling::k420 ? "/420" : "/444") + "/" +
            std::to_string(shape.w) + "x" + std::to_string(shape.h);
        ExpectParity(*encoded, label);
      }
    }
  }
}

// Every scan prefix of a progressive stream decodes identically on both
// paths — the PCR partial-read case.
TEST(CodecParity, EveryScanPrefixBitExact) {
  const Image img = MakeTestImage(96, 72, true, 4242);
  EncodeOptions options;
  options.progressive = true;
  const std::string encoded = Encode(img, options).MoveValue();
  const auto index = IndexScans(encoded).MoveValue();
  for (int scans = 1; scans <= static_cast<int>(index.scans.size());
       ++scans) {
    const std::string prefix = AssemblePrefix(encoded, index, scans);
    ExpectParity(prefix, "prefix scans=" + std::to_string(scans));
  }
}

// Byte-granular truncation: wherever the stream is cut — mid-marker,
// mid-Huffman-code, mid-refinement-bit — both paths agree on the outcome
// (error or identical partial image), and neither crashes.
TEST(CodecParity, ByteGranularTruncationAgrees) {
  const Image img = MakeTestImage(48, 40, true, 555);
  EncodeOptions options;
  options.progressive = true;
  const std::string encoded = Encode(img, options).MoveValue();
  // Every cut in a sparse sweep plus a dense sweep over one entropy region.
  std::vector<size_t> cuts;
  for (size_t n = 0; n < encoded.size(); n += 97) cuts.push_back(n);
  const size_t mid = encoded.size() / 2;
  for (size_t n = mid; n < std::min(encoded.size(), mid + 64); ++n) {
    cuts.push_back(n);
  }
  for (size_t n : cuts) {
    ExpectParity(Slice(encoded.data(), n),
                 "truncated at " + std::to_string(n));
  }
}

// Seeded mutants of progressive streams: bit flips, byte truncations, and
// rewritten SOS Ss/Se/Ah/Al bytes (refinement scans over the wrong history,
// bands that overlap or skip). Both paths must agree on every outcome; the
// fast path decodes through one DecodeScratch reused across all mutants.
// This guards the fast path's per-block nonzero masks on corrupt input.
TEST(CodecParity, SeededMutantsAgree) {
  const Image img = MakeTestImage(40, 32, true, 2024);
  std::vector<std::string> bases;
  for (const auto& script :
       {std::vector<ScanSpec>{}, DeepRefinementScript(3)}) {
    EncodeOptions options;
    options.quality = 75;
    options.progressive = true;
    options.scan_script = script;
    bases.push_back(Encode(img, options).MoveValue());
  }
  DecodeScratch scratch;
  Rng rng(0x5eed);
  constexpr int kMutantsPerBase = 1000;
  for (size_t b = 0; b < bases.size(); ++b) {
    const std::string& base = bases[b];
    // Offset of the Ss byte of every SOS segment; Se and Ah/Al follow it.
    std::vector<size_t> sos_ss;
    for (size_t i = 0; i + 4 < base.size(); ++i) {
      const size_t ss = i + 5 + 2 * static_cast<uint8_t>(base[i + 4]);
      if (static_cast<uint8_t>(base[i]) == 0xff &&
          static_cast<uint8_t>(base[i + 1]) == 0xda && ss + 2 < base.size()) {
        sos_ss.push_back(ss);
      }
    }
    ASSERT_FALSE(sos_ss.empty());
    for (int m = 0; m < kMutantsPerBase; ++m) {
      std::string s = base;
      switch (rng.Uniform(3)) {
        case 0:
          for (uint64_t n = 1 + rng.Uniform(3); n > 0; --n) {
            s[rng.Uniform(s.size())] ^= static_cast<char>(1 << rng.Uniform(8));
          }
          break;
        case 1: {
          const size_t at = sos_ss[rng.Uniform(sos_ss.size())];
          const uint64_t which = rng.Uniform(3);
          // Half the Al values are 12..15, where v << Al wraps an int16
          // coefficient to 0 for v a multiple of 2^(16 - Al).
          const uint64_t al =
              rng.Uniform(2) ? rng.Uniform(4) : 12 + rng.Uniform(4);
          s[at + which] = static_cast<char>(
              which < 2 ? rng.Uniform(64) : (rng.Uniform(4) << 4) | al);
          break;
        }
        default:
          s.resize(rng.Uniform(s.size()));
          break;
      }
      if (rng.Uniform(4) == 0) s.resize(rng.Uniform(s.size() + 1));
      ExpectParity(s, "base " + std::to_string(b) + " mutant " +
                          std::to_string(m), &scratch);
      if (HasFailure()) return;
    }
  }
}

// Reusing one DecodeScratch across decodes of different shapes must not
// change any output relative to fresh-scratch decodes.
TEST(CodecParity, ScratchReuseIsDeterministic) {
  DecodeScratch scratch;
  uint64_t seed = 900;
  const struct {
    int w, h;
    bool color;
  } shapes[] = {{64, 48, true}, {32, 32, false}, {97, 55, true},
                {64, 48, true}, {8, 8, true}};
  for (const auto& shape : shapes) {
    const Image img = MakeTestImage(shape.w, shape.h, shape.color, ++seed);
    EncodeOptions options;
    options.progressive = true;
    const std::string encoded = Encode(img, options).MoveValue();
    const Image with_scratch = Decode(encoded, &scratch).MoveValue();
    const Image fresh = Decode(encoded).MoveValue();
    ExpectPixelsEqual(with_scratch, fresh,
                      "scratch reuse " + std::to_string(shape.w) + "x" +
                          std::to_string(shape.h));
  }
}

// RenderCoefficients parity on partially assembled records (the
// coefficient-level entry point the PCR reader uses).
TEST(CodecParity, RenderCoefficientsMatchesReference) {
  const Image img = MakeTestImage(72, 56, true, 31);
  EncodeOptions options;
  options.progressive = true;
  const std::string encoded = Encode(img, options).MoveValue();
  auto data = DecodeToCoefficients(encoded).MoveValue();
  const Image fast = RenderCoefficients(data);
  const Image ref = ReferenceCodec::RenderCoefficients(data);
  ExpectPixelsEqual(fast, ref, "RenderCoefficients");
}

}  // namespace
}  // namespace pcr::jpeg
