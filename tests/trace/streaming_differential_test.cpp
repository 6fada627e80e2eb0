// The collector-mode contract, end-to-end: replaying the exact report and
// cycle streams of a real conformance-preset run into a streaming-mode
// MetricsCollector reproduces every digested summary bitwise, for EVERY
// classic scenario in the registry — and full A/B World runs with
// streaming_metrics toggled produce the same result_digest, so streaming
// can never move a golden.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/metrics.hpp"
#include "exp/scenario.hpp"
#include "util/rng.hpp"

namespace dpjit::exp {
namespace {

std::vector<std::string> classic_scenario_names() {
  // scale/* scenarios run the sharded scale model, not a World with a
  // metrics collector; everything else goes through the MetricsSink seam.
  std::vector<std::string> names;
  for (const auto& s : scenario_registry().all()) {
    if (!s.sharded) names.push_back(s.name);
  }
  return names;
}

void expect_curves_equal(const std::vector<CurvePoint>& a, const std::vector<CurvePoint>& b,
                         const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time) << what << " bucket " << i;
    EXPECT_EQ(a[i].value, b[i].value) << what << " bucket " << i;
  }
}

class StreamingReplayDifferential : public ::testing::TestWithParam<std::string> {};

// Run the scenario once retaining records, then replay them through a
// streaming collector: every digested field and every curve must match
// bitwise (both modes read the same running sums).
TEST_P(StreamingReplayDifferential, ReplayMatchesBitwise) {
  auto cfg = conformance_preset(scenario_registry().at(GetParam()).config());
  cfg.streaming_metrics = false;  // we need the raw records to replay
  World world(cfg);
  world.run();
  const MetricsCollector& retaining = world.metrics();

  // World's collector plots at the default bucket, and so does this one.
  MetricsCollector streaming(cfg.system.horizon_s, util::Rng(12345));
  for (const auto& r : retaining.reports()) streaming.on_workflow_finished(r);
  for (const auto& s : retaining.samples()) streaming.on_cycle(s);

  EXPECT_EQ(streaming.finished(), retaining.finished());
  EXPECT_EQ(streaming.act(), retaining.act());
  EXPECT_EQ(streaming.ae(), retaining.ae());
  EXPECT_EQ(streaming.mean_response(), retaining.mean_response());
  expect_curves_equal(streaming.throughput_curve(), retaining.throughput_curve(), "throughput");
  expect_curves_equal(streaming.act_curve(), retaining.act_curve(), "act");
  expect_curves_equal(streaming.ae_curve(), retaining.ae_curve(), "ae");
  // Bounded live state even after replaying the whole run.
  EXPECT_LE(streaming.live_reports(), MetricsCollector::kDefaultReservoir);
  // Converged view sizes use a time-based tail instead of the retained
  // index-based quarter: close but not digested, so only sanity-check them.
  if (!retaining.samples().empty() && retaining.converged_rss_size() > 0.0) {
    EXPECT_GT(streaming.converged_rss_size(), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllClassic, StreamingReplayDifferential,
                         ::testing::ValuesIn(classic_scenario_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '/' || c == '-') c = '_';
                           }
                           return name;
                         });

// Full A/B: two complete World runs differing ONLY in streaming_metrics must
// produce the same result_digest (the golden-digest guarantee), while the
// streaming run's live report count stays bounded. A handful of scenarios
// spanning the workload models: closed (paper), open arrivals, trace replay,
// fitted trace synthesis, and the quantised network mode.
class StreamingWorldAB : public ::testing::TestWithParam<std::string> {};

TEST_P(StreamingWorldAB, SameDigestEitherCollector) {
  auto cfg = conformance_preset(scenario_registry().at(GetParam()).config());

  auto retaining_cfg = cfg;
  retaining_cfg.streaming_metrics = false;
  const auto retaining = run_experiment(retaining_cfg);

  auto streaming_cfg = cfg;
  streaming_cfg.streaming_metrics = true;
  const auto streaming = run_experiment(streaming_cfg);

  EXPECT_EQ(result_digest(streaming), result_digest(retaining))
      << GetParam() << ": the collector mode moved the digest";
  EXPECT_EQ(streaming.workflows_finished, retaining.workflows_finished);
  EXPECT_EQ(streaming.act, retaining.act);
  EXPECT_EQ(streaming.ae, retaining.ae);
  EXPECT_EQ(streaming.mean_response, retaining.mean_response);
  EXPECT_EQ(streaming.events_processed, retaining.events_processed);
  EXPECT_EQ(retaining.live_reports, retaining.workflows_finished);
  EXPECT_LE(streaming.live_reports, MetricsCollector::kDefaultReservoir);
  // Quantile estimates are mode-dependent (exact vs t-digest) but must
  // land in the same ballpark when anything finished.
  if (retaining.workflows_finished > 0) {
    EXPECT_NEAR(streaming.ct_p50, retaining.ct_p50, 0.1 * retaining.ct_p50 + 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(WorkloadModels, StreamingWorldAB,
                         ::testing::Values("paper/static-n200", "open/poisson-arrivals",
                                           "trace/gwa-replay", "trace/fitted-burst",
                                           "quantised/fair-epoch60"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '/' || c == '-') c = '_';
                           }
                           return name;
                         });

// The raw records are a retaining-only API and must refuse loudly under
// streaming rather than returning an empty vector; the summaries work in
// either mode.
TEST(StreamingWorld, RawMetricsAccessorThrowsUnderStreaming) {
  auto cfg = conformance_preset(scenario_registry().at("trace/gwa-replay").config());
  cfg.streaming_metrics = true;
  World world(cfg);
  EXPECT_THROW((void)world.metrics().reports(), std::logic_error);
  EXPECT_THROW((void)world.metrics().samples(), std::logic_error);
  EXPECT_EQ(world.metrics().act(), 0.0);
}

}  // namespace
}  // namespace dpjit::exp
