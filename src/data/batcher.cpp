#include "data/batcher.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace cn::data {

Batcher::Batcher(const Dataset& ds, int64_t batch_size)
    : ds_(ds), batch_size_(batch_size), order_(static_cast<size_t>(ds.size())) {
  if (batch_size < 1) throw std::invalid_argument("Batcher: batch_size must be >= 1");
  std::iota(order_.begin(), order_.end(), 0);
}

int64_t Batcher::num_batches() const {
  return (ds_.size() + batch_size_ - 1) / batch_size_;
}

Batch Batcher::get(int64_t b) const {
  const int64_t lo = b * batch_size_;
  const int64_t hi = std::min(ds_.size(), lo + batch_size_);
  std::vector<int64_t> idx(order_.begin() + lo, order_.begin() + hi);
  return gather(ds_, idx);
}

void Batcher::reshuffle(Rng& rng) { rng.shuffle(order_); }

Batch gather(const Dataset& ds, const std::vector<int64_t>& idx) {
  const int64_t n = static_cast<int64_t>(idx.size());
  const int64_t sz = ds.channels() * ds.height() * ds.width();
  Batch batch;
  batch.images = Tensor({n, ds.channels(), ds.height(), ds.width()});
  batch.labels.resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const int64_t src = idx[static_cast<size_t>(i)];
    std::copy(ds.images.data() + src * sz, ds.images.data() + (src + 1) * sz,
              batch.images.data() + i * sz);
    batch.labels[static_cast<size_t>(i)] = ds.labels[static_cast<size_t>(src)];
  }
  return batch;
}

}  // namespace cn::data
