// End-to-end runs of the full stack (topology + gossip + dual-phase
// scheduling + transfers) at small scale, across all eight algorithms.
#include <gtest/gtest.h>

#include "core/policy_registry.hpp"
#include "exp/experiment.hpp"

namespace dpjit::exp {
namespace {

ExperimentConfig small_config(const std::string& algorithm, std::uint64_t seed = 5) {
  ExperimentConfig cfg;
  cfg.algorithm = algorithm;
  cfg.nodes = 24;
  cfg.workflows_per_node = 1;
  cfg.seed = seed;
  // Small DAGs and light data so every workflow finishes well inside 36 h.
  cfg.workflow.max_tasks = 10;
  cfg.workflow.min_data_mb = 10;
  cfg.workflow.max_data_mb = 100;
  return cfg;
}

class AllAlgorithms : public ::testing::TestWithParam<std::string> {};

TEST_P(AllAlgorithms, AllWorkflowsFinishInStaticEnvironment) {
  const auto result = run_experiment(small_config(GetParam()));
  EXPECT_EQ(result.workflows_finished, result.workflows_submitted) << GetParam();
  EXPECT_EQ(result.workflows_submitted, 24u);
  EXPECT_EQ(result.tasks_failed, 0u);
}

TEST_P(AllAlgorithms, MetricsAreSane) {
  const auto result = run_experiment(small_config(GetParam()));
  EXPECT_GT(result.act, 0.0);
  EXPECT_GT(result.ae, 0.0);
  EXPECT_LE(result.ae, 5.0);  // eft/ct stays in a physical range
  EXPECT_GE(result.mean_response, result.act);  // response includes initial wait
  EXPECT_GT(result.gossip_messages, 0u);
}

TEST_P(AllAlgorithms, DeterministicAcrossRuns) {
  const auto a = run_experiment(small_config(GetParam(), 17));
  const auto b = run_experiment(small_config(GetParam(), 17));
  EXPECT_EQ(a.workflows_finished, b.workflows_finished);
  EXPECT_DOUBLE_EQ(a.act, b.act);
  EXPECT_DOUBLE_EQ(a.ae, b.ae);
  EXPECT_EQ(a.tasks_dispatched, b.tasks_dispatched);
}

TEST_P(AllAlgorithms, SeedChangesOutcome) {
  const auto a = run_experiment(small_config(GetParam(), 1));
  const auto b = run_experiment(small_config(GetParam(), 2));
  // Different worlds: the exact ACT almost surely differs.
  EXPECT_NE(a.act, b.act);
}

INSTANTIATE_TEST_SUITE_P(Paper, AllAlgorithms,
                         ::testing::ValuesIn(dpjit::core::paper_algorithms()),
                         [](const auto& info) { return info.param; });

TEST(EndToEnd, ThroughputCurveIsMonotone) {
  const auto result = run_experiment(small_config("dsmf"));
  double prev = 0.0;
  for (const auto& p : result.throughput) {
    EXPECT_GE(p.value, prev);
    prev = p.value;
  }
  EXPECT_DOUBLE_EQ(prev, static_cast<double>(result.workflows_finished));
}

TEST(EndToEnd, FairSharingAblationStillCompletes) {
  auto cfg = small_config("dsmf");
  cfg.system.network_mode = net::NetworkMode::kFluidFair;
  cfg.nodes = 16;
  const auto result = run_experiment(cfg);
  EXPECT_EQ(result.workflows_finished, result.workflows_submitted);
  // Contention can only slow transfers down, never speed them up; ACT should
  // be at least that of the uncontended run.
  auto cfg2 = small_config("dsmf");
  cfg2.nodes = 16;
  const auto base = run_experiment(cfg2);
  EXPECT_GE(result.act, base.act * 0.999);
}

TEST(EndToEnd, HigherLoadFactorRaisesCompletionTime) {
  auto light = small_config("dsmf");
  auto heavy = small_config("dsmf");
  heavy.workflows_per_node = 6;
  const auto l = run_experiment(light);
  const auto h = run_experiment(heavy);
  EXPECT_GT(h.act, l.act);
}

TEST(EndToEnd, RssSizeBoundedByCache) {
  const auto result = run_experiment(small_config("dsmf"));
  EXPECT_GT(result.converged_rss_size, 1.0);
  EXPECT_LE(result.converged_rss_size, 30.0);
}

TEST(EndToEnd, ZeroWorkflowsIsValid) {
  auto cfg = small_config("dsmf");
  cfg.workflows_per_node = 0;
  const auto result = run_experiment(cfg);
  EXPECT_EQ(result.workflows_submitted, 0u);
  EXPECT_EQ(result.workflows_finished, 0u);
}

TEST(EndToEnd, UnknownAlgorithmThrows) {
  auto cfg = small_config("wat");
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace dpjit::exp
