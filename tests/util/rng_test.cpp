#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <set>
#include <utility>

namespace dpjit::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(7);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform(10.0, 20.0);
    EXPECT_GE(v, 10.0);
    EXPECT_LT(v, 20.0);
  }
}

TEST(Rng, UniformIntCoversFullInclusiveRange) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(1, 5));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 1);
  EXPECT_EQ(*seen.rbegin(), 5);
}

TEST(Rng, UniformIntSingleValue) {
  Rng rng(9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(7, 7), 7);
}

TEST(Rng, UniformIntUnbiasedish) {
  Rng rng(123);
  int counts[10] = {};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_int(0, 9)];
  for (int c : counts) EXPECT_NEAR(c, n / 10, n / 100);
}

/// uniform_int as it was with two divisions per draw: the rejection limit is
/// computed as (2^64-1) - (2^64-1) % span.
std::int64_t two_division_uniform_int(Rng& rng, std::int64_t lo, std::int64_t hi) {
  const std::uint64_t span = static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(rng());
  const std::uint64_t limit = (~0ULL) - (~0ULL) % span;
  std::uint64_t v;
  do {
    v = rng();
  } while (v >= limit);
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + v % span);
}

TEST(Rng, RejectionTestMatchesTwoDivisionLimitAtEdges) {
  constexpr std::uint64_t kMax = ~0ULL;
  for (const std::uint64_t span : {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
                                   std::uint64_t{8}, std::uint64_t{23}, std::uint64_t{24},
                                   std::uint64_t{1} << 63, (std::uint64_t{1} << 63) + 1, kMax}) {
    const std::uint64_t limit = kMax - kMax % span;
    for (const std::uint64_t v : {limit - 1, limit, limit - span, kMax, std::uint64_t{0}}) {
      SCOPED_TRACE(testing::Message() << "span " << span << " v " << v);
      EXPECT_EQ(detail::rejects_draw(v, v % span, span), v >= limit);
    }
  }
}

TEST(Rng, UniformIntMatchesTwoDivisionStream) {
  // Small spans (the view shuffle's), spans that reject often, and both ends
  // of the signed range; the generators must also stay in step.
  const std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::pair<std::int64_t, std::int64_t> ranges[] = {
      {0, 0}, {0, 1}, {0, 2}, {0, 22}, {-5, 18}, {0, 29}, {0, kMax}, {-1, kMax}, {kMin, kMax - 1}};
  Rng fast(77);
  Rng reference(77);
  for (int i = 0; i < 1'000'000; ++i) {
    const auto& [lo, hi] = ranges[static_cast<std::size_t>(i) % std::size(ranges)];
    ASSERT_EQ(fast.uniform_int(lo, hi), two_division_uniform_int(reference, lo, hi)) << i;
  }
  EXPECT_EQ(fast(), reference());
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRate) {
  Rng rng(5);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  Rng parent(77);
  Rng a = parent.fork("alpha");
  Rng b = parent.fork("alpha");
  Rng c = parent.fork("beta");
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  // A different label must produce a different stream.
  Rng a2 = parent.fork("alpha");
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a2() == c()) ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkWithIndexDiffers) {
  Rng parent(77);
  Rng a = parent.fork("node", 1);
  Rng b = parent.fork("node", 2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkIndependentOfParentConsumption) {
  Rng p1(5);
  Rng p2(5);
  p2();
  p2();  // consuming the parent must not change children
  Rng c1 = p1.fork("x");
  Rng c2 = p2.fork("x");
  for (int i = 0; i < 50; ++i) EXPECT_EQ(c1(), c2());
}

TEST(Rng, IndexWithinBounds) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.index(17), 17u);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(21);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SampleIndicesDistinctAndBounded) {
  Rng rng(31);
  auto s = rng.sample_indices(100, 10);
  EXPECT_EQ(s.size(), 10u);
  std::set<std::size_t> set(s.begin(), s.end());
  EXPECT_EQ(set.size(), 10u);
  for (auto i : s) EXPECT_LT(i, 100u);
}

TEST(Rng, SampleIndicesKGreaterThanN) {
  Rng rng(31);
  auto s = rng.sample_indices(5, 50);
  EXPECT_EQ(s.size(), 5u);
}

TEST(Rng, NormalMatchesMomentsAndIsDeterministic) {
  Rng rng(7);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.normal(0, 1), b.normal(0, 1));
}

TEST(Rng, LognormalIsPositiveWithHeavyRightTail) {
  Rng rng(11);
  const int n = 50000;
  int above_geo_mean = 0;
  double max_seen = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.lognormal(std::log(100.0), 1.5);
    ASSERT_GT(x, 0.0);
    if (x > 100.0) ++above_geo_mean;
    max_seen = std::max(max_seen, x);
  }
  // The median of exp(N(mu, s)) is exp(mu); the tail reaches far above it.
  EXPECT_NEAR(above_geo_mean / static_cast<double>(n), 0.5, 0.02);
  EXPECT_GT(max_seen, 100.0 * 50);
}

TEST(Rng, ParetoRespectsScaleAndTailIndex) {
  Rng rng(13);
  const int n = 50000;
  int beyond_double = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.pareto(5.0, 2.0);
    ASSERT_GE(x, 5.0);
    if (x > 10.0) ++beyond_double;
  }
  // P(X > 2*xm) = (1/2)^alpha = 1/4 for alpha = 2.
  EXPECT_NEAR(beyond_double / static_cast<double>(n), 0.25, 0.02);
}

TEST(Rng, WeibullShapeOneIsExponential) {
  // Weibull(1, lambda) IS Exponential(lambda): P(X > lambda) = 1/e.
  Rng rng(17);
  const int n = 50000;
  int beyond_scale = 0;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.weibull(1.0, 300.0);
    ASSERT_GT(x, 0.0);
    sum += x;
    if (x > 300.0) ++beyond_scale;
  }
  EXPECT_NEAR(sum / n, 300.0, 10.0);
  EXPECT_NEAR(beyond_scale / static_cast<double>(n), std::exp(-1.0), 0.01);
}

TEST(Rng, WeibullMatchesMeanAcrossShapes) {
  // E[Weibull(k, lambda)] = lambda * Gamma(1 + 1/k); shape < 1 is the bursty
  // interarrival regime the trace fitter targets, shape > 1 the regular one.
  for (double shape : {0.6, 1.5, 3.0}) {
    Rng rng(19);
    const int n = 100000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) sum += rng.weibull(shape, 100.0);
    const double expected = 100.0 * std::exp(std::lgamma(1.0 + 1.0 / shape));
    EXPECT_NEAR(sum / n, expected, 0.03 * expected) << "shape " << shape;
  }
}

TEST(Rng, WeibullDeterministicForSameSeed) {
  Rng a(23), b(23);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.weibull(0.7, 50.0), b.weibull(0.7, 50.0));
  }
}

}  // namespace
}  // namespace dpjit::util
