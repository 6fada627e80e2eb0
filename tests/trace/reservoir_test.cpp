// util::ReservoirSampler: chi-squared uniformity of inclusion over seeds,
// exact k/n inclusion probability, and bit-identical reservoirs for a fixed
// seed (the determinism the streaming collector's sample reports rely on).
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "util/reservoir.hpp"
#include "util/rng.hpp"

namespace dpjit::util {
namespace {

TEST(Reservoir, FillPhaseKeepsEverything) {
  ReservoirSampler<int> r(8, Rng(1));
  for (int i = 0; i < 5; ++i) r.add(i);
  EXPECT_EQ(r.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(r.items()[static_cast<std::size_t>(i)], i);
}

TEST(Reservoir, CapacityBoundHolds) {
  ReservoirSampler<int> r(16, Rng(2));
  for (int i = 0; i < 100000; ++i) r.add(i);
  EXPECT_EQ(r.size(), 16u);
}

TEST(Reservoir, FixedSeedBitIdentical) {
  ReservoirSampler<int> a(32, Rng(77)), b(32, Rng(77));
  for (int i = 0; i < 50000; ++i) {
    a.add(i);
    b.add(i);
  }
  EXPECT_EQ(a.items(), b.items());
}

// Every stream element must land in the reservoir with probability exactly
// k/n. Run many independently seeded samplers over the same stream and
// chi-squared-test the per-element inclusion counts against uniform.
TEST(Reservoir, ChiSquaredUniformityOverSeeds) {
  constexpr std::size_t kN = 200;      // stream length
  constexpr std::size_t kK = 20;       // reservoir capacity
  constexpr int kTrials = 4000;        // independent seeds
  std::vector<int> hits(kN, 0);
  for (int t = 0; t < kTrials; ++t) {
    ReservoirSampler<std::size_t> r(kK, Rng(static_cast<std::uint64_t>(t) * 2654435761ULL + 1));
    for (std::size_t i = 0; i < kN; ++i) r.add(i);
    for (std::size_t kept : r.items()) ++hits[kept];
  }
  // Expected inclusions per element: trials * k/n.
  const double expected = static_cast<double>(kTrials) * kK / kN;
  double chi2 = 0.0;
  for (std::size_t i = 0; i < kN; ++i) {
    const double d = static_cast<double>(hits[i]) - expected;
    chi2 += d * d / expected;
  }
  // 199 dof: mean 199, stddev ~ sqrt(2*199) ~ 20. 300 is ~ +5 sigma — a
  // deterministic test (fixed seeds) with a generous-but-meaningful margin:
  // an off-by-one in the acceptance draw shifts chi2 by thousands.
  EXPECT_LT(chi2, 300.0);
  // And no element may be systematically starved or favoured.
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_GT(hits[i], expected * 0.5) << "element " << i << " starved";
    EXPECT_LT(static_cast<double>(hits[i]), expected * 1.5) << "element " << i << " favoured";
  }
}

TEST(Reservoir, OwnedRngIsolation) {
  // The sampler copies its Rng: draws on the original must not perturb it.
  Rng shared(5);
  ReservoirSampler<int> a(8, shared);
  for (int i = 0; i < 1000; ++i) (void)shared();  // consume the original
  ReservoirSampler<int> b(8, Rng(5));
  for (int i = 0; i < 10000; ++i) {
    a.add(i);
    b.add(i);
  }
  EXPECT_EQ(a.items(), b.items());
}

}  // namespace
}  // namespace dpjit::util
