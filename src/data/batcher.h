// Mini-batch iteration over a Dataset.
#pragma once

#include <vector>

#include "data/dataset.h"
#include "tensor/rng.h"

namespace cn::data {

/// One mini-batch: images (B,C,H,W) + labels.
struct Batch {
  Tensor images;
  std::vector<int> labels;
  int64_t size() const { return images.empty() ? 0 : images.dim(0); }
};

/// Deterministic shuffling batcher. Call `reshuffle(rng)` between epochs.
class Batcher {
 public:
  /// Throws std::invalid_argument when batch_size < 1.
  Batcher(const Dataset& ds, int64_t batch_size);

  int64_t num_batches() const;
  /// Materializes batch `b` (last batch may be smaller).
  Batch get(int64_t b) const;
  void reshuffle(Rng& rng);

 private:
  const Dataset& ds_;
  int64_t batch_size_;
  std::vector<int64_t> order_;
};

/// Gathers arbitrary indices into a batch (used by evaluation subsets).
Batch gather(const Dataset& ds, const std::vector<int64_t>& idx);

}  // namespace cn::data
