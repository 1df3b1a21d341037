// Shared JPEG decode state machine: marker parsing, baseline and progressive
// entropy decoding (including successive-approximation refinement), and
// graceful handling of truncated / early-EOI streams (the PCR partial-read
// case).
//
// DecoderT is templated over the entropy reader so the production decoder
// (BitReader: buffered 64-bit accumulator + table-driven Huffman) and the
// reference decoder (ReferenceBitReader: the seed's byte-at-a-time reader +
// bit-by-bit canonical Huffman walk) run the exact same spec logic and can
// be diffed block by block in the parity tests. Internal header: include
// from jpeg/*.cc only.
//
// One part differs by reader: the BitReader instantiation keeps a per-block
// mask of nonzero coefficients (zigzag order) and runs the AC refinement
// scans from it — rank-select to the insertion point, bulk correction bits —
// while every other reader keeps the spec's per-position walk, so the parity
// suite still diffs two independent refinement implementations.
#pragma once

#include <algorithm>
#include <array>
#include <type_traits>
#include <vector>

#include "jpeg/bit_io.h"
#include "jpeg/codec.h"
#include "jpeg/constants.h"
#include "jpeg/dct.h"
#include "jpeg/huffman.h"
#include "util/logging.h"

namespace pcr::jpeg::internal {

/// Symbol decode dispatch: the fast reader takes the LUT path, any other
/// reader the canonical bit-by-bit walk. Overload resolution prefers the
/// exact non-template match for BitReader.
inline int DecodeHuffSymbol(const HuffTable& table, BitReader* reader) {
  return table.DecodeSymbol(reader);
}
template <class Reader>
int DecodeHuffSymbol(const HuffTable& table, Reader* reader) {
  return table.DecodeSymbolBitwise(reader);
}

/// Dequantizes one block into natural order, clamping into the fixed-point
/// IDCT's safe input range (only corrupt streams ever clamp). The reference
/// renderer's definition; the fast one calls arch::Kernels::dequantize,
/// which must match it.
inline void DequantizeBlock(const CoeffBlock& block, const QuantTable& qtbl,
                            int32_t out[64]) {
  for (int i = 0; i < 64; ++i) {
    const int32_t v =
        static_cast<int32_t>(block[i]) * static_cast<int32_t>(qtbl[i]);
    out[i] = std::clamp(v, -kMaxDequantizedCoeff, kMaxDequantizedCoeff);
  }
}

template <class Reader>
int ReceiveExtend(Reader* reader, int s) {
  const int v = static_cast<int>(reader->ReadBits(s));
  if (v < (1 << (s - 1))) return v - (1 << s) + 1;
  return v;
}

template <class EntropyReader>
class DecoderT {
 public:
  static constexpr int kMaxComponents = 4;
  static constexpr bool kMasked = std::is_same_v<EntropyReader, BitReader>;

  /// `scratch` may be null (self-owned coefficient storage). With scratch,
  /// coefficient planes live in scratch->coeffs and are reused across
  /// decodes with no allocation when shapes repeat.
  explicit DecoderT(Slice data, DecodeScratch* scratch = nullptr)
      : data_(data), scratch_(scratch) {}

  Status Parse();

  bool have_frame() const { return have_frame_; }
  const FrameInfo& frame() const { return frame_; }
  int scans_decoded() const { return scans_decoded_; }
  bool complete() const;
  const CoeffImage& coefficients() const { return *coeffs_; }
  const QuantTable* quant_tables() const { return qtables_; }

  JpegData TakeJpegData() {
    JpegData out;
    out.frame = frame_;
    out.quant_tables.assign(qtables_, qtables_ + 4);
    out.coefficients = std::move(*coeffs_);
    return out;
  }

 private:
  // -- Marker-level parsing ------------------------------------------------

  uint8_t Byte(size_t i) const { return static_cast<uint8_t>(data_[i]); }

  // Reads the next marker byte (after 0xFF, skipping fill bytes). Returns
  // -1 on end of data.
  int NextMarker() {
    while (pos_ + 1 < data_.size()) {
      if (Byte(pos_) != 0xff) {
        // Garbage between segments; tolerate by skipping.
        ++pos_;
        continue;
      }
      size_t p = pos_ + 1;
      while (p < data_.size() && Byte(p) == 0xff) ++p;  // Fill bytes.
      if (p >= data_.size()) return -1;
      const uint8_t marker = Byte(p);
      if (marker == 0x00) {  // Stuffed byte, not a marker; shouldn't happen
        pos_ = p + 1;        // outside entropy data, but skip defensively.
        continue;
      }
      pos_ = p + 1;
      return marker;
    }
    return -1;
  }

  // Reads a 16-bit big-endian length (which includes itself) and returns the
  // payload slice, advancing past it.
  Result<Slice> ReadSegment() {
    if (pos_ + 2 > data_.size()) return Status::Corruption("truncated segment");
    const uint16_t len =
        static_cast<uint16_t>((Byte(pos_) << 8) | Byte(pos_ + 1));
    if (len < 2 || pos_ + len > data_.size()) {
      return Status::Corruption("bad segment length");
    }
    Slice payload(data_.data() + pos_ + 2, len - 2);
    pos_ += len;
    return payload;
  }

  Status ParseDqt(Slice payload);
  Status ParseDht(Slice payload);
  Status ParseSof(Slice payload, bool progressive);
  Status ParseSos(Slice payload, ScanSpec* scan);
  Status DecodeScanData(const ScanSpec& scan);

  // -- Entropy decoding ----------------------------------------------------

  // All Decode*Block return false on truncation (reader exhausted), which
  // aborts the scan without error; corrupt symbols return a Status via
  // scan_error_.
  bool DecodeBaselineBlock(EntropyReader* reader, const ScanSpec& scan, int ci,
                           CoeffBlock* block);
  bool DecodeDcFirst(EntropyReader* reader, const ScanSpec& scan, int ci,
                     CoeffBlock* block);
  bool DecodeDcRefine(EntropyReader* reader, const ScanSpec& scan,
                      CoeffBlock* block);
  bool DecodeAcFirst(EntropyReader* reader, const ScanSpec& scan, int ci,
                     CoeffBlock* block, uint64_t* nonzero);
  bool DecodeAcRefine(EntropyReader* reader, const ScanSpec& scan, int ci,
                      CoeffBlock* block);
  bool DecodeAcRefineMasked(EntropyReader* reader, const ScanSpec& scan,
                            int ci, CoeffBlock* block, uint64_t* nonzero);
  bool DecodeBlock(EntropyReader* reader, const ScanSpec& scan, int ci,
                   int bx, int by);

  // Nonzero mask of block (bx, by) of component ci; null without masks.
  uint64_t* NonzeroMask(int ci, int bx, int by) {
    if constexpr (kMasked) {
      return masks_->data() + mask_base_[ci] +
             static_cast<size_t>(by) *
                 frame_.components[ci].width_blocks_padded +
             bx;
    } else {
      return nullptr;
    }
  }

  const HuffTable* DcTable(int ci) const {
    const int slot = dc_slot_[ci];
    return (dc_valid_ & (1 << slot)) ? &dc_tables_[slot] : nullptr;
  }
  const HuffTable* AcTable(int ci) const {
    const int slot = ac_slot_[ci];
    return (ac_valid_ & (1 << slot)) ? &ac_tables_[slot] : nullptr;
  }

  // Tracks successive-approximation progress for completeness reporting.
  void NoteScanProgress(const ScanSpec& scan) {
    for (int ci : scan.component_indices) {
      for (int k = scan.ss; k <= scan.se; ++k) {
        coeff_al_[ci][k] = scan.al;
        coeff_seen_[ci][k] = true;
      }
    }
  }

  Slice data_;
  DecodeScratch* scratch_;
  size_t pos_ = 0;

  bool have_frame_ = false;
  FrameInfo frame_;
  QuantTable qtables_[4] = {};
  // Huffman tables live in fixed slots (no per-stream allocation); the
  // valid bitmasks track which slots a DHT has populated.
  HuffTable dc_tables_[4];
  HuffTable ac_tables_[4];
  uint8_t dc_valid_ = 0;
  uint8_t ac_valid_ = 0;
  CoeffImage own_coeffs_;          // Used when no scratch is supplied.
  CoeffImage* coeffs_ = nullptr;   // Active storage (scratch or own).
  // Nonzero masks (kMasked only), one per block, laid out like coeffs_.
  std::vector<uint64_t> own_masks_;
  std::vector<uint64_t>* masks_ = nullptr;
  std::array<size_t, kMaxComponents> mask_base_{};

  std::array<int, kMaxComponents> dc_slot_{};  // From the current SOS.
  std::array<int, kMaxComponents> ac_slot_{};
  std::array<int, kMaxComponents> dc_pred_{};
  int eob_run_ = 0;
  Status scan_error_;

  int scans_decoded_ = 0;
  bool saw_eoi_ = false;
  bool truncated_ = false;
  std::array<std::array<int, 64>, kMaxComponents> coeff_al_{};
  std::array<std::array<bool, 64>, kMaxComponents> coeff_seen_{};
};

template <class EntropyReader>
Status DecoderT<EntropyReader>::ParseDqt(Slice payload) {
  while (!payload.empty()) {
    const uint8_t pq_tq = static_cast<uint8_t>(payload[0]);
    payload.RemovePrefix(1);
    const int precision = pq_tq >> 4;
    const int slot = pq_tq & 0x0f;
    if (slot > 3) return Status::Corruption("DQT: bad slot");
    const size_t need = precision ? 128 : 64;
    if (payload.size() < need) return Status::Corruption("DQT: truncated");
    for (int i = 0; i < 64; ++i) {
      uint16_t v;
      if (precision) {
        v = static_cast<uint16_t>((static_cast<uint8_t>(payload[2 * i]) << 8) |
                                  static_cast<uint8_t>(payload[2 * i + 1]));
      } else {
        v = static_cast<uint8_t>(payload[i]);
      }
      qtables_[slot][kZigzag[i]] = v;
    }
    payload.RemovePrefix(need);
  }
  return Status::OK();
}

template <class EntropyReader>
Status DecoderT<EntropyReader>::ParseDht(Slice payload) {
  while (!payload.empty()) {
    if (payload.size() < 17) return Status::Corruption("DHT: truncated");
    const uint8_t tc_th = static_cast<uint8_t>(payload[0]);
    const int table_class = tc_th >> 4;
    const int slot = tc_th & 0x0f;
    if (table_class > 1 || slot > 3) {
      return Status::Corruption("DHT: bad class/slot");
    }
    uint8_t bits[16];
    int total = 0;
    for (int i = 0; i < 16; ++i) {
      bits[i] = static_cast<uint8_t>(payload[1 + i]);
      total += bits[i];
    }
    if (payload.size() < static_cast<size_t>(17 + total)) {
      return Status::Corruption("DHT: truncated values");
    }
    PCR_ASSIGN_OR_RETURN(auto table,
                         HuffTable::FromSpec(bits, payload.udata() + 17,
                                             total));
    if (table_class == 0) {
      dc_tables_[slot] = table;
      dc_valid_ |= static_cast<uint8_t>(1 << slot);
    } else {
      ac_tables_[slot] = table;
      ac_valid_ |= static_cast<uint8_t>(1 << slot);
    }
    payload.RemovePrefix(17 + total);
  }
  return Status::OK();
}

template <class EntropyReader>
Status DecoderT<EntropyReader>::ParseSof(Slice payload, bool progressive) {
  if (have_frame_) return Status::Corruption("multiple SOF markers");
  if (payload.size() < 6) return Status::Corruption("SOF: truncated");
  const int precision = static_cast<uint8_t>(payload[0]);
  if (precision != 8) return Status::NotSupported("only 8-bit JPEG supported");
  frame_.height = (static_cast<uint8_t>(payload[1]) << 8) |
                  static_cast<uint8_t>(payload[2]);
  frame_.width = (static_cast<uint8_t>(payload[3]) << 8) |
                 static_cast<uint8_t>(payload[4]);
  const int num_comps = static_cast<uint8_t>(payload[5]);
  if (frame_.width == 0 || frame_.height == 0) {
    return Status::Corruption("SOF: zero dimensions");
  }
  if (num_comps != 1 && num_comps != 3) {
    return Status::NotSupported("only 1- or 3-component JPEG supported");
  }
  if (payload.size() < static_cast<size_t>(6 + 3 * num_comps)) {
    return Status::Corruption("SOF: truncated components");
  }
  frame_.progressive = progressive;
  for (int c = 0; c < num_comps; ++c) {
    ComponentInfo info;
    info.id = static_cast<uint8_t>(payload[6 + 3 * c]);
    const uint8_t hv = static_cast<uint8_t>(payload[7 + 3 * c]);
    info.h_samp = hv >> 4;
    info.v_samp = hv & 0x0f;
    info.quant_tbl = static_cast<uint8_t>(payload[8 + 3 * c]);
    if (info.h_samp < 1 || info.h_samp > 4 || info.v_samp < 1 ||
        info.v_samp > 4 || info.quant_tbl > 3) {
      return Status::Corruption("SOF: bad component params");
    }
    frame_.components.push_back(info);
  }
  frame_.ComputeGeometry();
  coeffs_ = scratch_ != nullptr ? &scratch_->coeffs : &own_coeffs_;
  coeffs_->Reset(frame_);
  if constexpr (kMasked) {
    masks_ = scratch_ != nullptr ? &scratch_->nonzero_masks : &own_masks_;
    size_t total = 0;
    for (int c = 0; c < num_comps; ++c) {
      mask_base_[c] = total;
      total += static_cast<size_t>(frame_.components[c].width_blocks_padded) *
               frame_.components[c].height_blocks_padded;
    }
    masks_->assign(total, 0);
  }
  for (int c = 0; c < num_comps; ++c) {
    coeff_al_[c].fill(99);
    coeff_seen_[c].fill(false);
  }
  have_frame_ = true;
  return Status::OK();
}

template <class EntropyReader>
Status DecoderT<EntropyReader>::ParseSos(Slice payload, ScanSpec* scan) {
  if (!have_frame_) return Status::Corruption("SOS before SOF");
  if (payload.size() < 4) return Status::Corruption("SOS: truncated");
  const int ns = static_cast<uint8_t>(payload[0]);
  if (ns < 1 || ns > 4 ||
      payload.size() < static_cast<size_t>(1 + 2 * ns + 3)) {
    return Status::Corruption("SOS: bad component count");
  }
  for (size_t c = 0; c < frame_.components.size(); ++c) {
    dc_slot_[c] = 0;
    ac_slot_[c] = 0;
  }
  for (int i = 0; i < ns; ++i) {
    const int comp_id = static_cast<uint8_t>(payload[1 + 2 * i]);
    const uint8_t td_ta = static_cast<uint8_t>(payload[2 + 2 * i]);
    int ci = -1;
    for (size_t c = 0; c < frame_.components.size(); ++c) {
      if (frame_.components[c].id == comp_id) {
        ci = static_cast<int>(c);
        break;
      }
    }
    if (ci < 0) return Status::Corruption("SOS: unknown component id");
    scan->component_indices.push_back(ci);
    dc_slot_[ci] = td_ta >> 4;
    ac_slot_[ci] = td_ta & 0x0f;
    if (dc_slot_[ci] > 3 || ac_slot_[ci] > 3) {
      return Status::Corruption("SOS: bad table slot");
    }
  }
  scan->ss = static_cast<uint8_t>(payload[1 + 2 * ns]);
  scan->se = static_cast<uint8_t>(payload[2 + 2 * ns]);
  const uint8_t ahl = static_cast<uint8_t>(payload[3 + 2 * ns]);
  scan->ah = ahl >> 4;
  scan->al = ahl & 0x0f;
  if (scan->ss > 63 || scan->se > 63 || scan->ss > scan->se) {
    return Status::Corruption("SOS: bad spectral selection");
  }
  if (!frame_.progressive && (scan->ss != 0 || scan->se != 63 ||
                              scan->ah != 0 || scan->al != 0)) {
    return Status::Corruption("SOS: progressive params in baseline frame");
  }
  return Status::OK();
}

template <class EntropyReader>
bool DecoderT<EntropyReader>::DecodeBaselineBlock(EntropyReader* reader,
                                                  const ScanSpec&, int ci,
                                                  CoeffBlock* block) {
  const HuffTable* dc = DcTable(ci);
  const HuffTable* ac = AcTable(ci);
  if (dc == nullptr || ac == nullptr) {
    scan_error_ = Status::Corruption("scan references undefined table");
    return false;
  }
  const int s = DecodeHuffSymbol(*dc, reader);
  if (s < 0) {
    if (!reader->Exhausted()) {
      scan_error_ = Status::Corruption("bad DC symbol");
    }
    return false;
  }
  int diff = 0;
  if (s > 0) {
    if (s > 15) {
      scan_error_ = Status::Corruption("bad DC category");
      return false;
    }
    diff = ReceiveExtend(reader, s);
  }
  if (reader->Exhausted()) return false;
  dc_pred_[ci] += diff;
  (*block)[0] = static_cast<int16_t>(dc_pred_[ci]);

  int k = 1;
  while (k <= 63) {
    const int rs = DecodeHuffSymbol(*ac, reader);
    if (rs < 0) {
      if (!reader->Exhausted()) {
        scan_error_ = Status::Corruption("bad AC symbol");
      }
      return false;
    }
    const int r = rs >> 4;
    const int size = rs & 15;
    if (size == 0) {
      if (r == 15) {
        k += 16;
        continue;
      }
      break;  // EOB.
    }
    k += r;
    if (k > 63) {
      scan_error_ = Status::Corruption("AC index out of range");
      return false;
    }
    const int v = ReceiveExtend(reader, size);
    if (reader->Exhausted()) return false;
    (*block)[kZigzag[k]] = static_cast<int16_t>(v);
    ++k;
  }
  return true;
}

template <class EntropyReader>
bool DecoderT<EntropyReader>::DecodeDcFirst(EntropyReader* reader,
                                            const ScanSpec& scan, int ci,
                                            CoeffBlock* block) {
  const HuffTable* dc = DcTable(ci);
  if (dc == nullptr) {
    scan_error_ = Status::Corruption("scan references undefined DC table");
    return false;
  }
  const int s = DecodeHuffSymbol(*dc, reader);
  if (s < 0) {
    if (!reader->Exhausted()) scan_error_ = Status::Corruption("bad DC symbol");
    return false;
  }
  int diff = 0;
  if (s > 0) {
    if (s > 15) {
      scan_error_ = Status::Corruption("bad DC category");
      return false;
    }
    diff = ReceiveExtend(reader, s);
  }
  if (reader->Exhausted()) return false;
  dc_pred_[ci] += diff;
  (*block)[0] = static_cast<int16_t>(dc_pred_[ci] * (1 << scan.al));
  return true;
}

template <class EntropyReader>
bool DecoderT<EntropyReader>::DecodeDcRefine(EntropyReader* reader,
                                             const ScanSpec& scan,
                                             CoeffBlock* block) {
  const int bit = reader->ReadBit();
  if (reader->Exhausted()) return false;
  if (bit) (*block)[0] = static_cast<int16_t>((*block)[0] | (1 << scan.al));
  return true;
}

template <class EntropyReader>
bool DecoderT<EntropyReader>::DecodeAcFirst(EntropyReader* reader,
                                            const ScanSpec& scan, int ci,
                                            CoeffBlock* block,
                                            uint64_t* nonzero) {
  if (eob_run_ > 0) {
    --eob_run_;
    return true;
  }
  const HuffTable* ac = AcTable(ci);
  if (ac == nullptr) {
    scan_error_ = Status::Corruption("scan references undefined AC table");
    return false;
  }
  int k = scan.ss;
  while (k <= scan.se) {
    const int rs = DecodeHuffSymbol(*ac, reader);
    if (rs < 0) {
      if (!reader->Exhausted()) {
        scan_error_ = Status::Corruption("bad AC symbol");
      }
      return false;
    }
    const int r = rs >> 4;
    const int size = rs & 15;
    if (size != 0) {
      k += r;
      if (k > scan.se) {
        scan_error_ = Status::Corruption("AC first: index out of band");
        return false;
      }
      const int v = ReceiveExtend(reader, size);
      if (reader->Exhausted()) return false;
      const int16_t stored = static_cast<int16_t>(v * (1 << scan.al));
      (*block)[kZigzag[k]] = stored;
      if constexpr (kMasked) {
        // From the stored value: in a corrupt stream v << al can wrap to 0.
        const uint64_t bit = uint64_t{1} << k;
        *nonzero = (*nonzero & ~bit) | (stored != 0 ? bit : 0);
      }
      ++k;
    } else {
      if (r == 15) {
        k += 16;
        continue;
      }
      eob_run_ = (1 << r) - 1;
      if (r > 0) {
        eob_run_ += static_cast<int>(reader->ReadBits(r));
        if (reader->Exhausted()) return false;
      }
      break;
    }
  }
  return true;
}

template <class EntropyReader>
bool DecoderT<EntropyReader>::DecodeAcRefine(EntropyReader* reader,
                                             const ScanSpec& scan, int ci,
                                             CoeffBlock* block) {
  const int p1 = 1 << scan.al;
  const int m1 = -(1 << scan.al);
  int k = scan.ss;

  auto refine_nonzero = [&](int16_t* coef) -> bool {
    const int bit = reader->ReadBit();
    if (reader->Exhausted()) return false;
    if (bit && (*coef & p1) == 0) {
      *coef = static_cast<int16_t>(*coef + (*coef >= 0 ? p1 : m1));
    }
    return true;
  };

  if (eob_run_ == 0) {
    const HuffTable* ac = AcTable(ci);
    if (ac == nullptr) {
      scan_error_ = Status::Corruption("scan references undefined AC table");
      return false;
    }
    for (; k <= scan.se; ++k) {
      const int rs = DecodeHuffSymbol(*ac, reader);
      if (rs < 0) {
        if (!reader->Exhausted()) {
          scan_error_ = Status::Corruption("bad AC refine symbol");
        }
        return false;
      }
      int r = rs >> 4;
      const int size = rs & 15;
      int pending = 0;
      if (size != 0) {
        if (size != 1) {
          scan_error_ = Status::Corruption("AC refine: size != 1");
          return false;
        }
        const int bit = reader->ReadBit();
        if (reader->Exhausted()) return false;
        pending = bit ? p1 : m1;
      } else {
        if (r != 15) {
          eob_run_ = 1 << r;
          if (r > 0) {
            eob_run_ += static_cast<int>(reader->ReadBits(r));
            if (reader->Exhausted()) return false;
          }
          break;
        }
        // ZRL: skip 16 zero-history positions, refining set ones passed.
      }
      // Advance to the insertion point: skip r zero-history coefficients,
      // emitting correction bits for nonzero ones encountered.
      while (k <= scan.se) {
        int16_t* coef = &(*block)[kZigzag[k]];
        if (*coef != 0) {
          if (!refine_nonzero(coef)) return false;
        } else {
          if (r == 0) break;
          --r;
        }
        ++k;
      }
      if (pending != 0 && k <= scan.se) {
        (*block)[kZigzag[k]] = static_cast<int16_t>(pending);
      }
    }
  }

  if (eob_run_ > 0) {
    // Remainder of the band: correction bits for nonzero coefficients only.
    for (; k <= scan.se; ++k) {
      int16_t* coef = &(*block)[kZigzag[k]];
      if (*coef != 0) {
        if (!refine_nonzero(coef)) return false;
      }
    }
    --eob_run_;
  }
  return true;
}

// Broadword rank/select for the nonzero masks. The jpeg layer builds for
// baseline x86-64, where neither POPCNT nor BMI2 (pdep) can be assumed and
// __builtin_popcountll is a libgcc call, so both are spelled in plain
// 64-bit arithmetic (Vigna, "Broadword implementation of rank/select
// queries").
inline constexpr uint64_t kBytesOf1 = 0x0101010101010101ull;

/// Byte i of the result holds the number of set bits in bytes 0..i of x.
inline uint64_t RunningByteCounts(uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  return ((x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full) * kBytesOf1;
}

inline int PopCount64(uint64_t x) {
  return static_cast<int>(RunningByteCounts(x) >> 56);
}

/// kSelectInByte[k * 256 + b]: position of the (k+1)-th set bit of byte b.
struct SelectInByteTable {
  uint8_t pos[8 * 256] = {};
  constexpr SelectInByteTable() {
    for (int b = 0; b < 256; ++b) {
      int k = 0;
      for (int bit = 0; bit < 8; ++bit) {
        if ((b >> bit) & 1) pos[k++ * 256 + b] = static_cast<uint8_t>(bit);
      }
    }
  }
};
inline constexpr SelectInByteTable kSelectInByte;

/// The (k+1)-th lowest set bit of x as a one-bit mask, or 0 when x has at
/// most k set bits. k in [0, 63]. Branch-free but for the overflow test.
inline uint64_t SelectBit(uint64_t x, int k) {
  const uint64_t counts = RunningByteCounts(x);
  if (static_cast<int>(counts >> 56) <= k) return 0;
  // High bit of byte i set <=> the wanted bit lies beyond byte i.
  const uint64_t beyond =
      ((static_cast<uint64_t>(k) * kBytesOf1) | (kBytesOf1 << 7)) - counts;
  const int byte_shift =
      static_cast<int>((((beyond >> 7) & kBytesOf1) * kBytesOf1) >> 56) * 8;
  const int rank_in_byte =
      k - static_cast<int>(((counts << 8) >> byte_shift) & 0xff);
  const int byte = static_cast<int>((x >> byte_shift) & 0xff);
  return uint64_t{1}
         << (byte_shift + kSelectInByte.pos[rank_in_byte * 256 + byte]);
}

/// Applies one correction bit to each coefficient at the zigzag positions
/// set in `positions` (all nonzero), lowest position first, the same bits
/// and order as the spec walk. Bits come in words of up to kMaxPeekBits
/// while the reader holds them; once it is drained they come one at a time,
/// so a truncated stream stops after the same correction as the spec walk.
/// Returns false on exhaustion.
inline bool ApplyCorrectionBits(BitReader* reader, uint64_t positions,
                                int p1, CoeffBlock* block) {
  const auto correct = [&](int bit) {
    int16_t& coef = (*block)[kZigzag[__builtin_ctzll(positions)]];
    positions &= positions - 1;
    // coef += bit && !(coef & p1) ? (coef >= 0 ? p1 : -p1) : 0, branchless.
    const int v = coef;
    const int sign = v >> 31;
    const int apply = bit & static_cast<int>((v & p1) == 0);
    coef = static_cast<int16_t>(v + (((p1 ^ sign) - sign) & -apply));
  };
  if (positions == 0) return true;
  int n = PopCount64(positions);
  while (n > 0) {
    const int chunk = std::min(n, BitReader::kMaxPeekBits);
    if (reader->BitsAvailable() < chunk) {
      while (positions != 0) {
        const int bit = reader->ReadBit();
        if (reader->Exhausted()) return false;
        correct(bit);
      }
      return true;
    }
    const uint32_t bits = reader->ReadBits(chunk);
    for (int i = chunk - 1; i >= 0; --i) {
      correct(static_cast<int>((bits >> i) & 1));
    }
    n -= chunk;
  }
  return true;
}

// DecodeAcRefine over the block's nonzero mask: `ahead` holds the band
// positions at or past the cursor, the insertion point after a run of r is
// the (r+1)-th zero-history position ahead, and the nonzero positions passed
// on the way take their correction bits in bulk. An EOB-run block costs
// O(nonzeros) instead of a walk over the whole band.
template <class EntropyReader>
bool DecoderT<EntropyReader>::DecodeAcRefineMasked(EntropyReader* reader,
                                                   const ScanSpec& scan,
                                                   int ci, CoeffBlock* block,
                                                   uint64_t* nonzero) {
  const int p1 = 1 << scan.al;
  uint64_t ahead =
      (~uint64_t{0} >> (63 - scan.se)) & (~uint64_t{0} << scan.ss);

  if (eob_run_ == 0) {
    const HuffTable* ac = AcTable(ci);
    if (ac == nullptr) {
      scan_error_ = Status::Corruption("scan references undefined AC table");
      return false;
    }
    while (ahead != 0) {
      int bit = -1;
      const int rs = ac->DecodeRefineSymbol(reader, &bit);
      if (rs < 0) {
        if (!reader->Exhausted()) {
          scan_error_ = Status::Corruption("bad AC refine symbol");
        }
        return false;
      }
      const int r = rs >> 4;
      const int size = rs & 15;
      int pending = 0;
      if (size != 0) {
        if (size != 1) {
          scan_error_ = Status::Corruption("AC refine: size != 1");
          return false;
        }
        if (bit < 0) {
          bit = reader->ReadBit();
          if (reader->Exhausted()) return false;
        }
        pending = bit ? p1 : -p1;
      } else if (r != 15) {
        eob_run_ = 1 << r;
        if (r > 0) {
          eob_run_ += static_cast<int>(reader->ReadBits(r));
          if (reader->Exhausted()) return false;
        }
        break;
      }
      // Skip r zero-history positions (a ZRL skips 16: r = 15 plus the
      // stop); `stop` is the position after them, 0 when the band ends
      // first, in which case every position ahead is passed.
      const uint64_t stop = SelectBit(ahead & ~*nonzero, r);
      const uint64_t passed = ahead & (stop - 1);
      if (!ApplyCorrectionBits(reader, *nonzero & passed, p1, block)) {
        return false;
      }
      if (pending != 0 && stop != 0) {
        (*block)[kZigzag[__builtin_ctzll(stop)]] =
            static_cast<int16_t>(pending);
        *nonzero |= stop;
      }
      ahead &= ~(passed | stop);
    }
  }

  if (eob_run_ > 0) {
    if (!ApplyCorrectionBits(reader, *nonzero & ahead, p1, block)) {
      return false;
    }
    --eob_run_;
  }
  return true;
}

template <class EntropyReader>
bool DecoderT<EntropyReader>::DecodeBlock(EntropyReader* reader,
                                          const ScanSpec& scan, int ci,
                                          int bx, int by) {
  CoeffBlock* block = &coeffs_->block(ci, bx, by);
  if (!frame_.progressive) {
    return DecodeBaselineBlock(reader, scan, ci, block);
  }
  if (scan.IsDcScan()) {
    return scan.ah == 0 ? DecodeDcFirst(reader, scan, ci, block)
                        : DecodeDcRefine(reader, scan, block);
  }
  if (scan.ah == 0) {
    return DecodeAcFirst(reader, scan, ci, block, NonzeroMask(ci, bx, by));
  }
  if constexpr (kMasked) {
    return DecodeAcRefineMasked(reader, scan, ci, block,
                                NonzeroMask(ci, bx, by));
  } else {
    return DecodeAcRefine(reader, scan, ci, block);
  }
}

template <class EntropyReader>
Status DecoderT<EntropyReader>::DecodeScanData(const ScanSpec& scan) {
  Slice entropy(data_.data() + pos_, data_.size() - pos_);
  EntropyReader reader(entropy);
  for (size_t c = 0; c < frame_.components.size(); ++c) dc_pred_[c] = 0;
  eob_run_ = 0;
  scan_error_ = Status::OK();

  bool ok = true;
  if (scan.component_indices.size() > 1) {
    const int mcus_x = frame_.mcus_x();
    const int mcus_y = frame_.mcus_y();
    for (int my = 0; my < mcus_y && ok; ++my) {
      for (int mx = 0; mx < mcus_x && ok; ++mx) {
        for (size_t s = 0; s < scan.component_indices.size() && ok; ++s) {
          const int ci = scan.component_indices[s];
          const auto& comp = frame_.components[ci];
          for (int v = 0; v < comp.v_samp && ok; ++v) {
            for (int h = 0; h < comp.h_samp && ok; ++h) {
              ok = DecodeBlock(&reader, scan, ci, mx * comp.h_samp + h,
                               my * comp.v_samp + v);
            }
          }
        }
      }
    }
  } else {
    const int ci = scan.component_indices[0];
    const auto& comp = frame_.components[ci];
    for (int by = 0; by < comp.height_blocks && ok; ++by) {
      for (int bx = 0; bx < comp.width_blocks && ok; ++bx) {
        ok = DecodeBlock(&reader, scan, ci, bx, by);
      }
    }
  }

  if (!scan_error_.ok()) return scan_error_;
  if (!ok) {
    truncated_ = true;  // Ran off the end of the entropy data.
  } else {
    ++scans_decoded_;
    NoteScanProgress(scan);
  }

  // Advance to the next marker, whether or not the scan completed. The
  // reader stops at a marker and passes only data bytes and stuffed 0xFF00
  // pairs, so no marker lies before its position.
  size_t p = pos_ + reader.position();
  while (p + 1 < data_.size()) {
    if (Byte(p) == 0xff && Byte(p + 1) != 0x00) break;
    ++p;
  }
  if (p + 1 >= data_.size()) {
    pos_ = data_.size();
    truncated_ = true;
  } else {
    pos_ = p;
  }
  return Status::OK();
}

template <class EntropyReader>
Status DecoderT<EntropyReader>::Parse() {
  if (data_.size() < 2 || Byte(0) != 0xff || Byte(1) != kSOI) {
    return Status::InvalidArgument("not a JPEG (missing SOI)");
  }
  pos_ = 2;
  for (;;) {
    const int marker = NextMarker();
    if (marker < 0) {
      truncated_ = true;
      break;
    }
    if (marker == kEOI) {
      saw_eoi_ = true;
      break;
    }
    switch (marker) {
      case kSOI:
        return Status::Corruption("nested SOI");
      case kDQT: {
        PCR_ASSIGN_OR_RETURN(Slice payload, ReadSegment());
        PCR_RETURN_IF_ERROR(ParseDqt(payload));
        break;
      }
      case kDHT: {
        PCR_ASSIGN_OR_RETURN(Slice payload, ReadSegment());
        PCR_RETURN_IF_ERROR(ParseDht(payload));
        break;
      }
      case kSOF0:
      case kSOF2: {
        PCR_ASSIGN_OR_RETURN(Slice payload, ReadSegment());
        PCR_RETURN_IF_ERROR(ParseSof(payload, marker == kSOF2));
        break;
      }
      case kDRI: {
        PCR_ASSIGN_OR_RETURN(Slice payload, ReadSegment());
        if (payload.size() >= 2 &&
            ((static_cast<uint8_t>(payload[0]) << 8) |
             static_cast<uint8_t>(payload[1])) != 0) {
          return Status::NotSupported("restart intervals not supported");
        }
        break;
      }
      case kSOS: {
        PCR_ASSIGN_OR_RETURN(Slice payload, ReadSegment());
        ScanSpec scan;
        PCR_RETURN_IF_ERROR(ParseSos(payload, &scan));
        PCR_RETURN_IF_ERROR(DecodeScanData(scan));
        if (pos_ >= data_.size()) return Status::OK();
        break;
      }
      default: {
        if (marker >= 0xC0 && marker <= 0xCF && marker != kDHT) {
          return Status::NotSupported("unsupported SOF type");
        }
        if (marker >= kRST0 && marker <= kRST0 + 7) {
          break;  // Parameterless; skip.
        }
        // APPn / COM / anything else with a length: skip.
        PCR_ASSIGN_OR_RETURN(Slice payload, ReadSegment());
        (void)payload;
        break;
      }
    }
  }
  return Status::OK();
}

template <class EntropyReader>
bool DecoderT<EntropyReader>::complete() const {
  if (!saw_eoi_ || truncated_ || !have_frame_) return false;
  if (!frame_.progressive) return scans_decoded_ >= 1;
  for (size_t c = 0; c < frame_.components.size(); ++c) {
    for (int k = 0; k < 64; ++k) {
      if (!coeff_seen_[c][k] || coeff_al_[c][k] != 0) return false;
    }
  }
  return true;
}

}  // namespace pcr::jpeg::internal
