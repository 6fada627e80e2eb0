// Property and differential tests for util::TDigest: quantile estimates are
// compared against exact sort-based quantiles on 10k+ draws from several
// distributions, with an error bound per compression setting; determinism
// and merge() behavior are pinned exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/tdigest.hpp"

namespace dpjit::util {
namespace {

std::vector<double> draw(std::size_t n, int dist, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (dist) {
      case 0: xs.push_back(rng.uniform(0.0, 1000.0)); break;
      case 1: xs.push_back(rng.exponential(250.0)); break;
      case 2: xs.push_back(rng.lognormal(3.0, 1.5)); break;   // heavy tail
      default: xs.push_back(rng.pareto(10.0, 1.2)); break;    // heavier tail
    }
  }
  return xs;
}

/// Rank error of an estimate: |cdf_exact(estimate) - q|, the metric the
/// t-digest paper bounds (value-space error is unbounded on heavy tails).
double rank_error(const std::vector<double>& sorted, double estimate, double q) {
  const auto lo =
      std::lower_bound(sorted.begin(), sorted.end(), estimate) - sorted.begin();
  const auto hi =
      std::upper_bound(sorted.begin(), sorted.end(), estimate) - sorted.begin();
  const double n = static_cast<double>(sorted.size());
  const double r_lo = static_cast<double>(lo) / n;
  const double r_hi = static_cast<double>(hi) / n;
  if (q < r_lo) return r_lo - q;
  if (q > r_hi) return q - r_hi;
  return 0.0;
}

TEST(TDigest, EmptyAndSmall) {
  TDigest d;
  EXPECT_TRUE(std::isnan(d.quantile(0.5)));
  EXPECT_TRUE(std::isnan(d.min()));
  EXPECT_EQ(d.count(), 0u);

  d.add(42.0);
  EXPECT_EQ(d.count(), 1u);
  EXPECT_DOUBLE_EQ(d.quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(d.quantile(1.0), 42.0);
}

TEST(TDigest, RejectsTinyCompression) {
  EXPECT_THROW(TDigest(5.0), std::invalid_argument);
  EXPECT_NO_THROW(TDigest(10.0));
}

TEST(TDigest, ExactMinMax) {
  TDigest d(50.0);
  auto xs = draw(20000, 2, 7);
  for (double x : xs) d.add(x);
  std::sort(xs.begin(), xs.end());
  EXPECT_DOUBLE_EQ(d.min(), xs.front());
  EXPECT_DOUBLE_EQ(d.max(), xs.back());
  EXPECT_DOUBLE_EQ(d.quantile(0.0), xs.front());
  EXPECT_DOUBLE_EQ(d.quantile(1.0), xs.back());
}

// Differential vs exact sort-based quantiles on 10k+ draws, across
// distributions and compressions. The k1 scale function concentrates
// accuracy at the tails; rank error <= ~1.5/compression mid-range is a
// conservative envelope (the paper's bound is tighter at the extremes).
TEST(TDigest, RankErrorBoundPerCompression) {
  const double quantiles[] = {0.01, 0.05, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99};
  for (double compression : {20.0, 50.0, 100.0, 200.0}) {
    const double bound = 1.5 / compression;
    for (int dist = 0; dist < 4; ++dist) {
      TDigest d(compression);
      auto xs = draw(10000, dist, 1234 + static_cast<std::uint64_t>(dist));
      for (double x : xs) d.add(x);
      std::sort(xs.begin(), xs.end());
      for (double q : quantiles) {
        const double est = d.quantile(q);
        EXPECT_LE(rank_error(xs, est, q), bound)
            << "dist=" << dist << " q=" << q << " compression=" << compression;
      }
    }
  }
}

// Tail quantiles must also be close in *value* space for well-behaved
// distributions — p99 of a uniform must not smear the way a histogram would.
TEST(TDigest, TailValueAccuracyUniform) {
  TDigest d(100.0);
  auto xs = draw(50000, 0, 99);
  for (double x : xs) d.add(x);
  for (double q : {0.95, 0.99, 0.999}) {
    const double exact = percentile(xs, q);
    EXPECT_NEAR(d.quantile(q), exact, 10.0) << "q=" << q;  // 1% of the range
  }
}

TEST(TDigest, MonotoneQuantiles) {
  TDigest d(50.0);
  for (double x : draw(15000, 3, 5)) d.add(x);
  double prev = d.quantile(0.0);
  for (int i = 1; i <= 100; ++i) {
    const double cur = d.quantile(i / 100.0);
    EXPECT_GE(cur, prev) << "q=" << i / 100.0;
    prev = cur;
  }
}

// Identical insert/query interleavings give bit-identical digests, and
// querying without new mass is idempotent: compress() runs only when the
// buffer holds fresh points, so repeated/extra queries never perturb state.
// (A query mid-stream DOES flush the buffer early, which may legitimately
// shift cluster boundaries vs. an unqueried digest — both stay within the
// rank-error bound; only the interleaving-for-interleaving determinism and
// query idempotence are exact guarantees.)
TEST(TDigest, DeterministicAndQueriesIdempotent) {
  const auto xs = draw(30000, 2, 42);
  TDigest a(100.0), b(100.0);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    a.add(xs[i]);
    b.add(xs[i]);
    if (i % 997 == 0) {  // same interleaved queries on both
      (void)a.quantile(0.5);
      (void)b.quantile(0.5);
    }
  }
  for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(a.quantile(q), b.quantile(q)) << "q=" << q;
  }
  // No new mass: any number of further queries leaves every answer fixed.
  const double p50 = a.quantile(0.5);
  const double p99 = a.quantile(0.99);
  for (int r = 0; r < 5; ++r) {
    (void)a.quantile(0.75);
    (void)a.quantile(0.01);
    EXPECT_EQ(a.quantile(0.5), p50);
    EXPECT_EQ(a.quantile(0.99), p99);
  }
}

TEST(TDigest, MergePreservesCountAndAccuracy) {
  auto xs = draw(12000, 1, 21);
  TDigest whole(100.0), left(100.0), right(100.0);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    whole.add(xs[i]);
    (i < xs.size() / 2 ? left : right).add(xs[i]);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
  std::sort(xs.begin(), xs.end());
  for (double q : {0.05, 0.5, 0.95, 0.99}) {
    EXPECT_LE(rank_error(xs, left.quantile(q), q), 2.0 / 100.0) << "q=" << q;
  }
}

TEST(TDigest, MergeEmptyIsNoOp) {
  TDigest d(50.0), empty(50.0);
  for (double x : draw(1000, 0, 3)) d.add(x);
  const double before = d.quantile(0.5);
  d.merge(empty);
  EXPECT_EQ(d.quantile(0.5), before);
  empty.merge(d);
  EXPECT_EQ(empty.quantile(0.5), d.quantile(0.5));
  EXPECT_EQ(empty.count(), d.count());
}

// Memory is O(compression): the centroid bound holds even for 10^6 inserts
// of an adversarially sorted stream (compress() throws when it does not).
TEST(TDigest, BoundedCentroidsOnSortedStream) {
  TDigest d(50.0);
  for (int i = 0; i < 1000000; ++i) d.add(static_cast<double>(i));
  EXPECT_EQ(d.count(), 1000000u);
  // Sorted input is the histogram worst case; rank accuracy must survive.
  EXPECT_NEAR(d.quantile(0.5) / 1000000.0, 0.5, 0.02);
  EXPECT_NEAR(d.quantile(0.99) / 1000000.0, 0.99, 0.01);
}

}  // namespace
}  // namespace dpjit::util
