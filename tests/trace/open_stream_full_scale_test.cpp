// The heavy-traffic open stream at full scale: trace/open-stream-1m submits
// 125k fitted jobs of >= 8 tasks (a million-task arrival stream) to 200
// nodes. Run once per metrics collector, the whole world must produce the
// same result digest, and the streaming collector must hold a bounded report
// set while the retaining one holds every finished workflow. The
// conformance preset shrinks this scenario; this is the only test of the
// collector contract at the scale it exists for.
#include <gtest/gtest.h>

#include <cstddef>

#include "exp/experiment.hpp"
#include "exp/metrics.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"

namespace dpjit::exp {
namespace {

TEST(OpenStreamFullScale, CollectorsAgreeOnAMillionTaskStream) {
  const ExperimentConfig cfg = scenario_registry().at("trace/open-stream-1m").config();
  ASSERT_TRUE(cfg.streaming_metrics);
  ExperimentConfig retaining_cfg = cfg;
  retaining_cfg.streaming_metrics = false;
  // Run both worlds in parallel: each takes seconds in Release, minutes
  // under the sanitizers.
  const auto results = run_sweep({cfg, retaining_cfg});
  const ExperimentResult& streaming = results[0];
  const ExperimentResult& retaining = results[1];

  EXPECT_EQ(result_digest(streaming), result_digest(retaining));
  EXPECT_LE(streaming.live_reports, StreamingMetricsCollector::kDefaultReservoir);
  EXPECT_EQ(retaining.live_reports, retaining.workflows_finished);
  EXPECT_GE(streaming.workflows_submitted * static_cast<std::size_t>(cfg.trace.min_tasks_per_job),
            std::size_t{1'000'000});
}

}  // namespace
}  // namespace dpjit::exp
