#include "grid/churn.hpp"

#include <gtest/gtest.h>

#include <set>

namespace dpjit::grid {
namespace {

struct Harness {
  explicit Harness(int n, double df, int stable) : alive(static_cast<std::size_t>(n), 1) {
    ChurnModel::Params params;
    params.dynamic_factor = df;
    params.stable_count = stable;
    model = std::make_unique<ChurnModel>(
        engine, params, n, util::Rng(7), alive,
        [this](NodeId id) {
          alive[static_cast<std::size_t>(id.get())] = 0;
          leaves.push_back(id);
        },
        [this](NodeId id) {
          alive[static_cast<std::size_t>(id.get())] = 1;
          joins.push_back(id);
        });
  }
  sim::Engine engine;
  std::vector<std::uint8_t> alive;
  std::vector<NodeId> leaves, joins;
  std::unique_ptr<ChurnModel> model;
};

TEST(Churn, StepChurnsExactlyDfTimesN) {
  Harness h(100, 0.1, 50);
  h.model->step();
  EXPECT_EQ(h.leaves.size(), 10u);
  // First step: every dynamic node alive, so nothing dead can join yet...
  EXPECT_EQ(h.joins.size(), 0u);
  h.model->step();
  // ...second step: 10 dead nodes available, 10 join.
  EXPECT_EQ(h.joins.size(), 10u);
}

TEST(Churn, StableNodesNeverChurn) {
  Harness h(100, 0.4, 50);
  for (int i = 0; i < 20; ++i) h.model->step();
  for (NodeId n : h.leaves) EXPECT_GE(n.get(), 50);
  for (NodeId n : h.joins) EXPECT_GE(n.get(), 50);
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(h.alive[static_cast<std::size_t>(i)]);
}

TEST(Churn, PopulationStaysRoughlyConstant) {
  Harness h(200, 0.2, 100);
  for (int i = 0; i < 30; ++i) h.model->step();
  int alive_count = 0;
  for (std::uint8_t a : h.alive) alive_count += a;
  // 100 stable + dynamic pool oscillating; at least the stable half remains
  // and the dynamic half keeps a sizeable alive population.
  EXPECT_GE(alive_count, 100);
  EXPECT_LE(alive_count, 200);
  EXPECT_EQ(h.model->total_leaves(), h.model->total_joins() + (h.model->total_leaves() -
                                                               h.model->total_joins()));
}

TEST(Churn, ZeroFactorIsNoOp) {
  Harness h(50, 0.0, 25);
  h.model->start();
  h.engine.run_until(10000.0);
  EXPECT_TRUE(h.leaves.empty());
  EXPECT_TRUE(h.joins.empty());
}

TEST(Churn, PeriodicStepsViaEngine) {
  Harness h(100, 0.1, 50);
  h.model->start();
  h.engine.run_until(3 * 900.0 + 1.0);
  EXPECT_EQ(h.model->total_leaves(), 30u);
}

TEST(Churn, LeaveCountCappedByAliveDynamic) {
  Harness h(100, 0.5, 50);  // wants 50 churns but only 50 dynamic nodes
  h.model->step();
  EXPECT_EQ(h.leaves.size(), 50u);
  h.model->step();  // all dynamic dead: 0 leaves, 50 joins
  EXPECT_EQ(h.leaves.size(), 50u);
  EXPECT_EQ(h.joins.size(), 50u);
}

TEST(Churn, ReadsLivenessChangesItDidNotMake) {
  // A node that goes down between steps without the model's doing (a fault
  // plan's crash through GridSystem::inject_node_failure) is read from the
  // shared array: the next step never takes it down again, and it is the
  // one dead node there is to bring back.
  for (int victim = 0; victim < 10; ++victim) {
    Harness h(10, 0.5, 0);
    h.alive[static_cast<std::size_t>(victim)] = 0;
    h.model->step();
    EXPECT_EQ(h.leaves.size(), 5u);
    for (NodeId n : h.leaves) EXPECT_NE(n.get(), victim);
    ASSERT_EQ(h.joins.size(), 1u);
    EXPECT_EQ(h.joins.front().get(), victim);
    EXPECT_EQ(h.alive[static_cast<std::size_t>(victim)], 1);
  }
}

TEST(Churn, ValidatesParams) {
  sim::Engine engine;
  ChurnModel::Params bad;
  bad.dynamic_factor = 1.5;
  auto noop = [](NodeId) {};
  const std::vector<std::uint8_t> alive(10, 1);
  EXPECT_THROW(ChurnModel(engine, bad, 10, util::Rng(1), alive, noop, noop),
               std::invalid_argument);
  ChurnModel::Params bad2;
  bad2.stable_count = 20;
  EXPECT_THROW(ChurnModel(engine, bad2, 10, util::Rng(1), alive, noop, noop),
               std::invalid_argument);
  // One liveness byte per node.
  EXPECT_THROW(ChurnModel(engine, ChurnModel::Params{}, 11, util::Rng(1), alive, noop, noop),
               std::invalid_argument);
}

TEST(Churn, IsStable) {
  Harness h(10, 0.1, 4);
  EXPECT_TRUE(h.model->is_stable(NodeId{3}));
  EXPECT_FALSE(h.model->is_stable(NodeId{4}));
}

}  // namespace
}  // namespace dpjit::grid
