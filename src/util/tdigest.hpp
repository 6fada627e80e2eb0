// t-digest quantile sketch (Dunning & Ertl, "Computing extremely accurate
// quantiles using t-digests"), merging variant.
//
// The metrics collector's streaming mode (exp::MetricsCollector) needs
// completion-time quantiles over millions of observations without retaining
// them. A t-digest keeps a bounded set of centroids whose sizes follow the
// k1 scale function: centroids near the median are large, centroids near the
// tails shrink toward single points, so p95/p99 stay accurate where a plain
// histogram would smear them. Memory is O(compression), independent of the
// number of observations.
//
// Determinism: the insert/query interleaving + compression fully determine
// the centroid set (a query flushes buffered points into the clustering;
// ties in the internal sort are broken by insertion sequence), so two runs
// feeding identical streams with identical query points produce bit-identical
// quantiles — the property the golden-digest and differential tests rely on.
// Queries on an unchanged digest are idempotent: compress() only runs when
// fresh mass arrived, so re-querying never shifts an answer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dpjit::util {

class TDigest {
 public:
  /// `compression` (delta) bounds the centroid count: after a merge the
  /// digest holds at most ~ceil(compression) centroids. Larger compression =
  /// more memory, tighter quantiles. Must be >= 10 (throws otherwise).
  explicit TDigest(double compression = 100.0);

  /// Adds one observation with weight 1. Amortized O(1); triggers an
  /// O(b log b) buffer merge every max(64, 5 * compression) additions.
  void add(double x);

  /// Total observations added.
  [[nodiscard]] std::uint64_t count() const { return total_weight_ + buffer_.size(); }

  /// Quantile estimate for q in [0, 1] (clamped). NaN when empty. q=0 / q=1
  /// return the exact min / max. Interpolates linearly between centroid
  /// means. Non-const-looking but logically const: flushes the insert buffer
  /// first (mutable internals).
  [[nodiscard]] double quantile(double q) const;

  /// Exact running min/max (independent of the sketch). NaN when empty.
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Folds another digest into this one (deterministic: other's centroids
  /// are appended in order, then one merge pass runs).
  void merge(const TDigest& other);

 private:
  struct Centroid {
    double mean = 0.0;
    double weight = 0.0;
  };

  /// Sorts the buffer + centroids and re-clusters against the k1 scale
  /// function. Leaves buffer_ empty.
  void compress() const;

  double compression_;
  std::size_t max_centroids_;
  std::size_t buffer_capacity_;
  // Mutable: quantile() flushes pending inserts; the observable state
  // (the distribution sketched) is unchanged by compress().
  mutable std::vector<Centroid> centroids_;  // sorted by mean after compress()
  mutable std::vector<double> buffer_;
  mutable std::uint64_t total_weight_ = 0;  // merged observations (excl. buffer)
  mutable bool needs_cluster_ = false;      // merge() appended raw centroids
  double min_ = 0.0;
  double max_ = 0.0;
  bool any_ = false;
};

}  // namespace dpjit::util
