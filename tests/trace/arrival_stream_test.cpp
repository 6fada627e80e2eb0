// Arrival streams keep one pending event, not one per arrival. A trace world
// at N and 4N jobs and a Poisson world at 4 and 16 workflows per home must
// hold an event queue far shallower than the stream and not growing with it,
// while running exactly the events that one pending event per arrival ran:
// the `events_processed` pins below were recorded from that eager form, whose
// pending_max was 503 / 2003 (trace) and 134 / 376 (Poisson).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "exp/experiment.hpp"
#include "exp/scenario.hpp"

namespace dpjit::exp {
namespace {

constexpr int kNodes = 20;

/// trace/open-stream-1m shrunk to 20 nodes, a 6 h horizon and `jobs` jobs.
ExperimentConfig trace_world(std::size_t jobs) {
  ExperimentConfig cfg = scenario_registry().at("trace/open-stream-1m").config();
  cfg.nodes = kNodes;
  cfg.routing_threads = 1;
  cfg.system.horizon_s = 6.0 * 3600.0;
  cfg.trace.synth_jobs = jobs;
  cfg.trace.synth_span_s = 0.8 * cfg.system.horizon_s;
  return cfg;
}

/// open/poisson-arrivals shrunk to 20 nodes and a 6 h horizon.
ExperimentConfig poisson_world(int workflows_per_node) {
  ExperimentConfig cfg = scenario_registry().at("open/poisson-arrivals").config();
  cfg.nodes = kNodes;
  cfg.routing_threads = 1;
  cfg.system.horizon_s = 6.0 * 3600.0;
  cfg.workflows_per_node = workflows_per_node;
  return cfg;
}

TEST(ArrivalStream, TraceQueueDepthDoesNotGrowWithTheStream) {
  constexpr std::size_t kJobs = 500;
  const auto small = run_experiment(trace_world(kJobs));
  const auto large = run_experiment(trace_world(4 * kJobs));
  ASSERT_EQ(small.workflows_submitted, kJobs);
  ASSERT_EQ(large.workflows_submitted, 4 * kJobs);
  EXPECT_EQ(small.events_processed, 9345u);
  EXPECT_EQ(large.events_processed, 14573u);

  EXPECT_LT(small.pending_max, kJobs / 4);
  EXPECT_LT(large.pending_max, 4 * kJobs / 4);
  // Three times more arrivals add some in-flight work, not a queued event
  // each.
  EXPECT_LT(large.pending_max - small.pending_max, 3 * kJobs / 8);
}

TEST(ArrivalStream, PoissonQueueDepthDoesNotGrowWithTheStream) {
  const auto small = run_experiment(poisson_world(4));
  const auto large = run_experiment(poisson_world(16));
  EXPECT_EQ(small.events_processed, 10243u);
  EXPECT_EQ(large.events_processed, 10249u);

  EXPECT_LT(large.pending_max, 16u * kNodes / 2);
  // 12 more arrivals per home; less than one more pending event per home.
  EXPECT_LT(large.pending_max, small.pending_max + kNodes);
}

}  // namespace
}  // namespace dpjit::exp
