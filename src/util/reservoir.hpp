// Seeded reservoir sampling (Vitter's Algorithm R): a uniform sample of
// fixed capacity k over a stream of unknown length, in O(k) memory.
//
// The streaming metrics layer keeps a reservoir of WorkflowReports so a
// 10M-task run still yields a representative set of per-workflow records for
// inspection, without retaining them all. Sampling is driven by a util::Rng,
// so a fixed seed gives a bit-identical reservoir for a fixed stream — the
// property the determinism tests pin — and the per-item inclusion
// probability is exactly k/n, which the chi-squared uniformity test checks
// across seeds.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace dpjit::util {

template <typename T>
class ReservoirSampler {
 public:
  /// `capacity` k must be >= 1. The rng is owned (copied in) so the sampler's
  /// draw sequence cannot be perturbed by other consumers of a shared stream.
  ReservoirSampler(std::size_t capacity, Rng rng) : capacity_(capacity), rng_(std::move(rng)) {
    items_.reserve(capacity_);
  }

  /// Offers one stream element. The first k fill the reservoir; element n
  /// (1-based) then replaces a uniform slot with probability k/n.
  void add(T item) {
    ++seen_;
    if (items_.size() < capacity_) {
      items_.push_back(std::move(item));
      return;
    }
    // Draw over [0, n): indices < k keep the item, in slot j.
    const std::size_t j = rng_.index(seen_);
    if (j < capacity_) items_[j] = std::move(item);
  }

  /// Elements currently held: all offered so far, up to the capacity.
  [[nodiscard]] const std::vector<T>& items() const { return items_; }
  [[nodiscard]] std::size_t size() const { return items_.size(); }

 private:
  std::size_t capacity_;
  Rng rng_;
  std::vector<T> items_;
  std::uint64_t seen_ = 0;
};

}  // namespace dpjit::util
