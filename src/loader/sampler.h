// Epoch-based shuffled sampling of record indices.
#pragma once

#include <cstdint>
#include <numeric>
#include <vector>

#include "util/random.h"

namespace pcr {

/// Yields every record index exactly once per epoch, reshuffling between
/// epochs (matching record-level shuffling in TFRecord/DALI pipelines; finer
/// in-memory shuffling happens at minibatch assembly).
class RecordSampler {
 public:
  RecordSampler(int num_records, bool shuffle, uint64_t seed)
      : shuffle_(shuffle), rng_(seed), order_(num_records) {
    std::iota(order_.begin(), order_.end(), 0);
    if (shuffle_) rng_.Shuffle(&order_);
  }

  /// Next record index; advances the epoch when the pass completes.
  int Next() {
    if (cursor_ >= order_.size()) {
      cursor_ = 0;
      ++epoch_;
      if (shuffle_) rng_.Shuffle(&order_);
    }
    return order_[cursor_++];
  }

  int epoch() const { return epoch_; }
  /// Records remaining before the current epoch ends.
  size_t remaining_in_epoch() const { return order_.size() - cursor_; }

 private:
  bool shuffle_;
  Rng rng_;
  std::vector<int> order_;
  size_t cursor_ = 0;
  int epoch_ = 0;
};

}  // namespace pcr
