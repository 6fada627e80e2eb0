#include "util/tdigest.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

namespace dpjit::util {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

}  // namespace

TDigest::TDigest(double compression) : compression_(compression) {
  if (!(compression >= 10.0)) {
    throw std::invalid_argument("TDigest: compression must be >= 10");
  }
  // The k1 merge rule keeps at most ~ceil(compression) centroids; the bound
  // below is deliberately slack (asserted, never reached in practice) so a
  // future scale-function tweak cannot silently overflow a tight vector.
  max_centroids_ = 2 * static_cast<std::size_t>(std::ceil(compression)) + 16;
  buffer_capacity_ = std::max<std::size_t>(64, 5 * static_cast<std::size_t>(compression));
  centroids_.reserve(max_centroids_);
  buffer_.reserve(buffer_capacity_);
}

void TDigest::add(double x) {
  if (!any_) {
    min_ = max_ = x;
    any_ = true;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  buffer_.push_back(x);
  if (buffer_.size() >= buffer_capacity_) compress();
}

void TDigest::compress() const {
  // Clustering an already-clustered set is NOT a no-op (adjacent clusters can
  // merge further after re-normalization), so compress() must run only when
  // new mass arrived — otherwise results would depend on the query pattern.
  if (buffer_.empty() && !needs_cluster_) return;
  needs_cluster_ = false;
  std::vector<Centroid> all;
  all.reserve(centroids_.size() + buffer_.size());
  all.insert(all.end(), centroids_.begin(), centroids_.end());
  for (double x : buffer_) all.push_back(Centroid{x, 1.0});
  total_weight_ += buffer_.size();
  buffer_.clear();
  if (all.empty()) return;
  // Stable: equal means keep their (existing-centroids-first, then insertion)
  // order, so the merge result is a pure function of the value stream.
  std::stable_sort(all.begin(), all.end(),
                   [](const Centroid& a, const Centroid& b) { return a.mean < b.mean; });

  const double total = static_cast<double>(total_weight_);
  // k1 scale function: k(q) = (delta / 2pi) * asin(2q - 1). A centroid may
  // absorb its successor only while the merged cluster spans < 1 k-unit.
  const double norm = compression_ / (2.0 * std::numbers::pi);
  auto k_of = [norm](double q) { return norm * std::asin(2.0 * std::clamp(q, 0.0, 1.0) - 1.0); };

  centroids_.clear();
  Centroid cur = all.front();
  double w_before = 0.0;  // weight strictly before `cur`
  double k_lo = k_of(0.0);
  for (std::size_t i = 1; i < all.size(); ++i) {
    const Centroid& next = all[i];
    const double q_hi = (w_before + cur.weight + next.weight) / total;
    if (k_of(q_hi) - k_lo <= 1.0) {
      // Absorb: weighted running mean, numerically stable form.
      cur.mean += (next.weight / (cur.weight + next.weight)) * (next.mean - cur.mean);
      cur.weight += next.weight;
    } else {
      centroids_.push_back(cur);
      w_before += cur.weight;
      k_lo = k_of(w_before / total);
      cur = next;
    }
  }
  centroids_.push_back(cur);
  // Merging can leave means out of order only through floating-point noise in
  // the running-mean update; re-sorting keeps quantile()'s walk monotone.
  std::stable_sort(centroids_.begin(), centroids_.end(),
                   [](const Centroid& a, const Centroid& b) { return a.mean < b.mean; });
  if (centroids_.size() > max_centroids_) {
    throw std::logic_error("TDigest: centroid bound exceeded (scale function bug)");
  }
}

double TDigest::min() const { return any_ ? min_ : kNaN; }
double TDigest::max() const { return any_ ? max_ : kNaN; }

double TDigest::quantile(double q) const {
  compress();
  if (centroids_.empty()) return kNaN;
  q = std::clamp(q, 0.0, 1.0);
  const double total = static_cast<double>(total_weight_);
  const double index = q * total;
  // Each centroid is anchored at the midpoint of the weight it covers;
  // between anchors the distribution is treated as linear.
  double cum = 0.0;
  double prev_anchor = 0.0;
  double prev_mean = min_;
  for (const Centroid& c : centroids_) {
    const double anchor = cum + 0.5 * c.weight;
    if (index < anchor) {
      const double span = anchor - prev_anchor;
      const double t = span > 0.0 ? (index - prev_anchor) / span : 0.0;
      return prev_mean + t * (c.mean - prev_mean);
    }
    cum += c.weight;
    prev_anchor = anchor;
    prev_mean = c.mean;
  }
  // Above the last anchor: interpolate toward the exact max.
  const double span = total - prev_anchor;
  const double t = span > 0.0 ? (index - prev_anchor) / span : 1.0;
  return prev_mean + std::min(t, 1.0) * (max_ - prev_mean);
}

void TDigest::merge(const TDigest& other) {
  other.compress();
  if (!other.any_) return;
  // Weighted centroids enter through the centroid list directly: append in
  // order, then one clustering pass restores the bound. Deterministic — the
  // result is a pure function of (this stream, other stream).
  centroids_.insert(centroids_.end(), other.centroids_.begin(), other.centroids_.end());
  total_weight_ += other.total_weight_;
  if (!any_) {
    min_ = other.min_;
    max_ = other.max_;
    any_ = true;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  needs_cluster_ = true;
  compress();
}

}  // namespace dpjit::util
