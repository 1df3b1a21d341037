// LoadedBatch: one record as the loader delivers it — decoded pixels, or the
// assembled JPEG streams when decode is off. LoaderPipeline (pipeline.h)
// produces it; the decode cache (decode_cache.h) stores it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "image/image.h"
#include "util/slice.h"

namespace pcr {

/// One loaded (and optionally decoded) record.
struct LoadedBatch {
  int record_index = -1;
  int scan_group = 0;
  std::vector<int64_t> labels;
  std::vector<Image> images;  // Decoded pixels (the default).
  // When the pipeline runs with decode off, the assembled JPEG streams are
  // carried as spans into the moved RecordBatch backing (no extra copy).
  std::vector<ByteSpan> jpeg_spans;
  std::string jpeg_backing;
  uint64_t bytes_read = 0;

  int size() const { return static_cast<int>(labels.size()); }
  int num_jpegs() const { return static_cast<int>(jpeg_spans.size()); }
  Slice jpeg(int i) const {
    return Slice(jpeg_backing.data() + jpeg_spans[i].offset,
                 jpeg_spans[i].length);
  }
};

}  // namespace pcr
