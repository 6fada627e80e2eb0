// summarize() reads every run-explaining counter from its source, and reads 0
// where the source is not attached: no fault plan when the faults are all
// zero, no failure detector under idealized gossip, no barriers outside the
// quantised-fair network.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "exp/experiment.hpp"
#include "exp/scenario.hpp"

namespace dpjit::exp {
namespace {

ExperimentResult run_summarized(const ExperimentConfig& cfg) {
  World world(cfg);
  world.run();
  return summarize(world, 0.0);
}

TEST(CounterSources, IdealizedBottleneckWorldReadsZero) {
  const ExperimentConfig cfg =
      conformance_preset(scenario_registry().at("paper/static-n200").config());
  World world(cfg);
  world.run();
  ASSERT_EQ(world.fault_plan(), nullptr);
  ASSERT_EQ(world.system().gossip_service().detector(), nullptr);
  const ExperimentResult r = summarize(world, 0.0);
  ASSERT_GT(r.workflows_finished, 0u);
  const std::uint64_t counters[] = {
      r.fault_messages_lost,    r.fault_messages_duplicated, r.fault_messages_delayed,
      r.fault_link_failures,    r.fault_link_recoveries,     r.fault_node_crashes,
      r.fault_node_restarts,    r.detector_suspicions,       r.detector_refutations,
      r.detector_declared_dead, r.gossip_messages_suppressed, r.churn_steps,
      r.churn_leaves,           r.churn_joins,               r.quantised_barriers,
      r.routing_repaired_rows};
  for (std::size_t i = 0; i < std::size(counters); ++i) {
    EXPECT_EQ(counters[i], 0u) << "counter " << i;
  }
}

TEST(CounterSources, MessageGossipFaultsAndChurnCount) {
  // realism/crash-recovery (message-level gossip, crash waves, churn) plus
  // the lossy network of realism/lossy-gossip and the link waves of
  // realism/link-waves.
  ExperimentConfig cfg =
      conformance_preset(scenario_registry().at("realism/crash-recovery").config());
  cfg.faults.msg_loss_p = 0.10;
  cfg.faults.msg_dup_p = 0.05;
  cfg.faults.msg_delay_p = 0.20;
  cfg.faults.msg_delay_max_s = 60.0;
  cfg.faults.link_wave_period_s = 3600.0;
  cfg.faults.link_first_wave_s = 1800.0;
  cfg.faults.link_fail_fraction = 0.05;
  cfg.faults.link_downtime_s = 900.0;
  const ExperimentResult r = run_summarized(cfg);
  EXPECT_GT(r.fault_messages_lost, 0u);
  EXPECT_GT(r.fault_messages_duplicated, 0u);
  EXPECT_GT(r.fault_messages_delayed, 0u);
  EXPECT_GT(r.fault_link_failures, 0u);
  EXPECT_GT(r.fault_link_recoveries, 0u);
  EXPECT_GT(r.fault_node_crashes, 0u);
  EXPECT_GT(r.fault_node_restarts, 0u);
  EXPECT_GT(r.detector_suspicions, 0u);
  EXPECT_GT(r.detector_refutations, 0u);
  EXPECT_GT(r.detector_declared_dead, 0u);
  EXPECT_GT(r.gossip_messages_suppressed, 0u);
  EXPECT_GT(r.churn_steps, 0u);
  EXPECT_GT(r.churn_leaves, 0u);
  EXPECT_GT(r.churn_joins, 0u);
  EXPECT_GT(r.routing_repaired_rows, 0u);
  EXPECT_EQ(r.quantised_barriers, 0u);
  // One churn step per 15-minute interval of the horizon.
  EXPECT_EQ(r.churn_steps, static_cast<std::uint64_t>(cfg.system.horizon_s / 900.0));
}

TEST(CounterSources, QuantisedFairCountsBarriers) {
  const ExperimentConfig cfg =
      conformance_preset(scenario_registry().at("quantised/fair-epoch60").config());
  const ExperimentResult r = run_summarized(cfg);
  // Barriers at t = 0, E, 2E, ... <= horizon.
  EXPECT_EQ(r.quantised_barriers,
            static_cast<std::uint64_t>(std::floor(cfg.system.horizon_s / 60.0)) + 1);
  EXPECT_EQ(r.fault_link_failures, 0u);
  EXPECT_EQ(r.detector_suspicions, 0u);
  EXPECT_EQ(r.churn_steps, 0u);
}

}  // namespace
}  // namespace dpjit::exp
