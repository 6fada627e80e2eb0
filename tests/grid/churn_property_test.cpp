// Property tests for ChurnModel: invariants that must hold for ANY seed and
// parameter draw, checked across many randomized configurations and long
// runs - per-step leave/join balance in steady state, stable-node immunity,
// counter monotonicity, and the correlated-wave extension's balance sheet.
#include "grid/churn.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace dpjit::grid {
namespace {

struct Harness {
  Harness(int n, ChurnModel::Params params, std::uint64_t seed)
      : alive(static_cast<std::size_t>(n), 1) {
    model = std::make_unique<ChurnModel>(
        engine, params, n, util::Rng(seed), alive,
        [this](NodeId id) {
          alive[static_cast<std::size_t>(id.get())] = 0;
          step_leaves.back().push_back(id);
        },
        [this](NodeId id) {
          alive[static_cast<std::size_t>(id.get())] = 1;
          step_joins.back().push_back(id);
        });
  }

  void step() {
    step_leaves.emplace_back();
    step_joins.emplace_back();
    model->step();
  }

  [[nodiscard]] int alive_count() const {
    int c = 0;
    for (std::uint8_t a : alive) c += a;
    return c;
  }

  sim::Engine engine;
  std::vector<std::uint8_t> alive;
  std::vector<std::vector<NodeId>> step_leaves, step_joins;
  std::unique_ptr<ChurnModel> model;
};

TEST(ChurnProperty, SteadyStateLeavesEqualJoinsPerStep) {
  for (std::uint64_t seed : {1ULL, 7ULL, 23ULL, 99ULL}) {
    // Precondition for exact steady state: the dynamic pool (140 nodes) must
    // hold at least 2x the per-step churn count, so neither the alive nor the
    // dead side ever caps a step (df 0.3 -> 60 churners, 120 <= 140).
    for (double df : {0.05, 0.1, 0.25, 0.3}) {
      ChurnModel::Params params;
      params.dynamic_factor = df;
      params.stable_count = 60;
      Harness h(200, params, seed);
      const auto expected = static_cast<std::size_t>(df * 200);
      for (int s = 0; s < 50; ++s) {
        h.step();
        SCOPED_TRACE("seed " + std::to_string(seed) + " df " + std::to_string(df) + " step " +
                     std::to_string(s));
        EXPECT_EQ(h.step_leaves.back().size(), expected);
        // The join pool is the dead set at step start, so the very first step
        // has nobody to rejoin; from the second step on the model is in
        // steady state and joins balance leaves exactly.
        EXPECT_EQ(h.step_joins.back().size(), s == 0 ? 0u : expected);
      }
    }
  }
}

TEST(ChurnProperty, StableNodesNeverChurnUnderAnySeed) {
  for (std::uint64_t seed : {3ULL, 11ULL, 31ULL}) {
    ChurnModel::Params params;
    params.dynamic_factor = 0.4;
    params.stable_count = 77;
    params.wave_every = 3;  // waves must respect stability too
    params.wave_multiplier = 2.0;
    Harness h(150, params, seed);
    for (int s = 0; s < 60; ++s) h.step();
    for (const auto& stepv : h.step_leaves) {
      for (NodeId n : stepv) EXPECT_GE(n.get(), 77);
    }
    for (const auto& stepv : h.step_joins) {
      for (NodeId n : stepv) EXPECT_GE(n.get(), 77);
    }
    for (int i = 0; i < 77; ++i) EXPECT_TRUE(h.alive[static_cast<std::size_t>(i)]);
  }
}

TEST(ChurnProperty, CountersAreMonotoneAndConsistentUnderLongRuns) {
  ChurnModel::Params params;
  params.dynamic_factor = 0.2;
  params.stable_count = 100;
  Harness h(300, params, 5);
  std::uint64_t prev_leaves = 0;
  std::uint64_t prev_joins = 0;
  std::uint64_t sum_leaves = 0;
  std::uint64_t sum_joins = 0;
  for (int s = 0; s < 500; ++s) {
    h.step();
    // Monotone non-decreasing, and growing by exactly what the callbacks saw.
    EXPECT_GE(h.model->total_leaves(), prev_leaves);
    EXPECT_GE(h.model->total_joins(), prev_joins);
    sum_leaves += h.step_leaves.back().size();
    sum_joins += h.step_joins.back().size();
    EXPECT_EQ(h.model->total_leaves(), sum_leaves);
    EXPECT_EQ(h.model->total_joins(), sum_joins);
    prev_leaves = h.model->total_leaves();
    prev_joins = h.model->total_joins();
    // A node can never be double-left or double-joined within a step.
    EXPECT_LE(h.model->total_joins(), h.model->total_leaves());
  }
  EXPECT_EQ(h.model->total_steps(), 500u);
}

TEST(ChurnProperty, WaveStepsChurnTheMultiplierAndRecover) {
  ChurnModel::Params params;
  params.dynamic_factor = 0.1;
  params.stable_count = 100;
  params.wave_every = 4;
  params.wave_multiplier = 3.0;
  Harness h(400, params, 13);
  const std::size_t base = 40;  // 0.1 * 400
  // While the dynamic pool (300 nodes) is still deep, wave steps depart the
  // full 3x multiple and ordinary steps the base count.
  for (int s = 1; s <= 8; ++s) {
    h.step();
    if (s % 4 == 0) {
      EXPECT_EQ(h.step_leaves.back().size(), 3 * base) << "step " << s;
    } else if (s > 1) {
      EXPECT_EQ(h.step_leaves.back().size(), base) << "step " << s;
    }
  }
  // Long run: waves drain the pool toward a base-rate-sustained equilibrium,
  // where departures are capped by whoever is still alive. Joins never exceed
  // the base rate - waves drain, recovery is gradual.
  for (int s = 9; s <= 40; ++s) {
    h.step();
    EXPECT_LE(h.step_leaves.back().size(), 3 * base);
    EXPECT_LE(h.step_joins.back().size(), base);
  }
  // Waves drain the dynamic pool toward a base-rate-sustained equilibrium,
  // not to zero: stable nodes plus a recovering dynamic remnant stay alive.
  EXPECT_GE(h.alive_count(), 100 + static_cast<int>(base) / 2);
  EXPECT_LT(h.alive_count(), 400);
}

TEST(ChurnProperty, ValidatesWaveParameters) {
  sim::Engine engine;
  auto noop = [](NodeId) {};
  const std::vector<std::uint8_t> alive(10, 1);
  ChurnModel::Params bad;
  bad.dynamic_factor = 0.1;
  bad.wave_every = -1;
  EXPECT_THROW(ChurnModel(engine, bad, 10, util::Rng(1), alive, noop, noop),
               std::invalid_argument);
  bad.wave_every = 2;
  bad.wave_multiplier = 0.5;
  EXPECT_THROW(ChurnModel(engine, bad, 10, util::Rng(1), alive, noop, noop),
               std::invalid_argument);
}

}  // namespace
}  // namespace dpjit::grid
