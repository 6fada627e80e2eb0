// MetricsCollector's two modes on hand-fed report streams: retaining (every
// record kept) vs streaming (t-digest, reservoir, time-based tail). Pins the
// bitwise-equal summaries and curves, the bounded live_reports guarantee,
// t-digest quantile accuracy, the answers that legitimately differ between
// the modes, and the horizon-boundary bucket regression (a finish at exactly
// the horizon must land in the last bucket, including when the horizon is
// not a bucket multiple).
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "core/metrics_sink.hpp"
#include "exp/metrics.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/tdigest.hpp"

namespace dpjit::exp {
namespace {

core::WorkflowReport make_report(int id, double submit, double entry_start, double finish,
                                 double eft) {
  core::WorkflowReport r;
  r.id = WorkflowId{id};
  r.home = NodeId{0};
  r.submit_time = submit;
  r.entry_start_time = entry_start;
  r.finish_time = finish;
  r.eft = eft;
  return r;
}

/// A deterministic pseudo-random report stream resembling a real run:
/// arrival-ordered finishes with jittered completion times and efficiencies.
std::vector<core::WorkflowReport> synthetic_reports(std::size_t n, double horizon,
                                                    std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<core::WorkflowReport> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double submit = rng.uniform(0.0, horizon * 0.9);
    const double entry_start = submit + rng.exponential(120.0);
    const double ct = 60.0 + rng.lognormal(6.0, 1.0);
    const double finish = entry_start + ct;
    out.push_back(make_report(static_cast<int>(i), submit, entry_start, finish,
                              ct * rng.uniform(0.3, 1.0)));
  }
  return out;
}

void feed(MetricsCollector& m, const std::vector<core::WorkflowReport>& reports) {
  for (const auto& r : reports) m.on_workflow_finished(r);
}

void expect_curves_bitwise_equal(const std::vector<CurvePoint>& a,
                                 const std::vector<CurvePoint>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time) << what << " bucket " << i;
    EXPECT_EQ(a[i].value, b[i].value) << what << " bucket " << i;
  }
}

TEST(StreamingMetrics, EmptyCollectorsAgree) {
  const double h = 129600.0;
  MetricsCollector retaining(h);
  MetricsCollector streaming(h, util::Rng(1));
  EXPECT_EQ(streaming.finished(), retaining.finished());
  EXPECT_EQ(streaming.act(), retaining.act());
  EXPECT_EQ(streaming.ae(), retaining.ae());
  EXPECT_EQ(streaming.mean_response(), retaining.mean_response());
  EXPECT_TRUE(std::isnan(streaming.ct_quantile(0.5)));
  EXPECT_TRUE(std::isnan(retaining.ct_quantile(0.5)));
  EXPECT_EQ(streaming.live_reports(), 0u);
  expect_curves_bitwise_equal(streaming.throughput_curve(), retaining.throughput_curve(),
                              "throughput");
}

// The load-bearing property: identical report streams give BITWISE identical
// summaries and curves in both modes, because both read the same running
// sums. This is what lets streaming_metrics=true leave every golden digest
// alone.
TEST(StreamingMetrics, BitwiseEqualSummariesAndCurves) {
  const double h = 129600.0;  // the default experiment horizon (36 buckets)
  const auto reports = synthetic_reports(20000, h, 42);
  MetricsCollector retaining(h);
  MetricsCollector streaming(h, util::Rng(99));
  feed(retaining, reports);
  feed(streaming, reports);

  EXPECT_EQ(streaming.finished(), retaining.finished());
  EXPECT_EQ(streaming.act(), retaining.act());  // EXPECT_EQ, not NEAR: bitwise
  EXPECT_EQ(streaming.ae(), retaining.ae());
  EXPECT_EQ(streaming.mean_response(), retaining.mean_response());
  expect_curves_bitwise_equal(streaming.throughput_curve(), retaining.throughput_curve(),
                              "throughput");
  expect_curves_bitwise_equal(streaming.act_curve(), retaining.act_curve(), "act");
  expect_curves_bitwise_equal(streaming.ae_curve(), retaining.ae_curve(), "ae");
}

TEST(StreamingMetrics, LiveReportsBoundedByReservoir) {
  const double h = 129600.0;
  const auto reports = synthetic_reports(50000, h, 7);
  MetricsCollector retaining(h);
  MetricsCollector streaming(h, util::Rng(3));
  feed(retaining, reports);
  feed(streaming, reports);
  EXPECT_EQ(retaining.live_reports(), 50000u);  // grows with the workload
  EXPECT_EQ(streaming.live_reports(), MetricsCollector::kDefaultReservoir);
  EXPECT_EQ(streaming.finished(), 50000u);  // ...while the counters see it all
  // And a custom, tighter bound holds too.
  MetricsCollector tight(h, util::Rng(4), 3600.0,
                                  MetricsCollector::kDefaultCompression, 8);
  feed(tight, reports);
  EXPECT_EQ(tight.live_reports(), 8u);
}

TEST(StreamingMetrics, QuantilesTrackExact) {
  const double h = 129600.0;
  const auto reports = synthetic_reports(30000, h, 21);
  MetricsCollector retaining(h);
  MetricsCollector streaming(h, util::Rng(5));
  feed(retaining, reports);
  feed(streaming, reports);
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    const double exact = retaining.ct_quantile(q);
    const double est = streaming.ct_quantile(q);
    // Rank-accurate, so compare in value space with a few percent of the
    // local scale (completion times are lognormal, spanning decades).
    EXPECT_NEAR(est, exact, 0.05 * exact) << "q=" << q;
  }
  // Extremes are exact: the digest pins min/max.
  EXPECT_EQ(streaming.ct_quantile(0.0), retaining.ct_quantile(0.0));
  EXPECT_EQ(streaming.ct_quantile(1.0), retaining.ct_quantile(1.0));
}

// Regression for the horizon-bucket edge case: with a horizon that is NOT a
// multiple of the bucket width, a workflow finishing at exactly the horizon
// used to fall into an interior bucket (floor(h / bucket)) instead of the
// final one. Both modes route through curve_bucket_index.
TEST(StreamingMetrics, FinishAtHorizonLandsInLastBucket) {
  const double h = 5000.0, bucket = 3600.0;  // buckets = ceil(5000/3600) = 2
  const std::size_t buckets = curve_bucket_count(h, bucket);
  ASSERT_EQ(buckets, 2u);
  EXPECT_EQ(curve_bucket_index(0.0, h, bucket, buckets), 0u);
  EXPECT_EQ(curve_bucket_index(4999.0, h, bucket, buckets), 1u);  // interior
  EXPECT_EQ(curve_bucket_index(5000.0, h, bucket, buckets), 2u);  // == horizon
  EXPECT_EQ(curve_bucket_index(9999.0, h, bucket, buckets), 2u);  // past it

  const auto at_horizon = make_report(1, 0.0, 100.0, h, 500.0);
  MetricsCollector retaining(h, bucket);
  MetricsCollector streaming(h, util::Rng(6), bucket);
  retaining.on_workflow_finished(at_horizon);
  streaming.on_workflow_finished(at_horizon);
  const auto rc = retaining.throughput_curve();
  const auto sc = streaming.throughput_curve();
  ASSERT_EQ(rc.size(), buckets + 1);
  // The finish shows up only in the cumulative count of the LAST point, in
  // both modes identically.
  EXPECT_EQ(rc[0].value, 0.0);
  EXPECT_EQ(rc[1].value, 0.0);
  EXPECT_EQ(rc[2].value, 1.0);
  expect_curves_bitwise_equal(sc, rc, "throughput at horizon");
}

TEST(StreamingMetrics, ConvergedTailMatchesOnUniformCycles) {
  // With uniformly spaced cycle samples the streaming time-based tail
  // (t >= 3/4 horizon) selects exactly the retaining index-based last
  // quarter, so the converged view sizes agree exactly.
  const double h = 8000.0;
  MetricsCollector retaining(h);
  MetricsCollector streaming(h, util::Rng(8));
  for (int i = 0; i < 8; ++i) {
    core::CycleSample s;
    s.time = h * static_cast<double>(i) / 8.0;  // i = 6, 7 are >= 0.75 h
    s.mean_rss_size = 10.0 + i;
    s.mean_idle_known = 5.0 + 2.0 * i;
    retaining.on_cycle(s);
    streaming.on_cycle(s);
  }
  EXPECT_DOUBLE_EQ(streaming.converged_rss_size(), retaining.converged_rss_size());
  EXPECT_DOUBLE_EQ(streaming.converged_idle_known(), retaining.converged_idle_known());
  EXPECT_DOUBLE_EQ(streaming.converged_rss_size(), 16.5);  // mean of 16, 17
}

// The answers retention decides, on a stream where the two definitions
// differ: a merge that quietly sent retaining mode through the sketches (or
// the time-based tail) fails here.
TEST(StreamingMetrics, RetentionDecidesQuantilesTailsAndRecords) {
  const double h = 8000.0;  // the time-based tail starts at 6000 s
  const auto reports = synthetic_reports(5000, h, 31);  // lognormal: skewed
  MetricsCollector retaining(h);
  MetricsCollector streaming(h, util::Rng(9));
  feed(retaining, reports);
  feed(streaming, reports);
  std::vector<double> cts;
  util::TDigest digest(MetricsCollector::kDefaultCompression);
  for (const auto& r : reports) {
    cts.push_back(r.completion_time());
    digest.add(r.completion_time());
  }
  for (double q : {0.5, 0.95, 0.99}) {
    const double exact = util::percentile(cts, q);
    ASSERT_NE(digest.quantile(q), exact) << "q=" << q << ": the stream must separate the modes";
    EXPECT_EQ(retaining.ct_quantile(q), exact) << "q=" << q;
    EXPECT_EQ(streaming.ct_quantile(q), digest.quantile(q)) << "q=" << q;
  }

  // Ten samples before 0.75 h and two after: the last quarter by index is
  // samples 9..11, the tail by time only 10 and 11.
  for (int i = 0; i < 12; ++i) {
    core::CycleSample s;
    s.time = i < 10 ? 500.0 * i : 6000.0 + 1000.0 * (i - 10);
    s.mean_rss_size = i;
    s.mean_idle_known = 2.0 * i;
    retaining.on_cycle(s);
    streaming.on_cycle(s);
  }
  EXPECT_DOUBLE_EQ(retaining.converged_rss_size(), 10.0);    // (9 + 10 + 11) / 3
  EXPECT_DOUBLE_EQ(retaining.converged_idle_known(), 20.0);
  EXPECT_DOUBLE_EQ(streaming.converged_rss_size(), 10.5);    // (10 + 11) / 2
  EXPECT_DOUBLE_EQ(streaming.converged_idle_known(), 21.0);

  EXPECT_EQ(retaining.live_reports(), reports.size());
  EXPECT_EQ(streaming.live_reports(), MetricsCollector::kDefaultReservoir);
  EXPECT_EQ(retaining.reports().size(), reports.size());
  EXPECT_EQ(retaining.samples().size(), 12u);
  EXPECT_THROW((void)streaming.reports(), std::logic_error);
  EXPECT_THROW((void)streaming.samples(), std::logic_error);
}

// The sample's contents are private (Reservoir.FixedSeedBitIdentical pins
// the sampler's own draws); what a caller sees of it is its size, and that
// its seed never reaches a summary.
TEST(StreamingMetrics, ReservoirSampleIsDeterministic) {
  const double h = 129600.0;
  const auto reports = synthetic_reports(5000, h, 13);
  MetricsCollector a(h, util::Rng(55)), b(h, util::Rng(55)), other(h, util::Rng(56));
  feed(a, reports);
  feed(b, reports);
  feed(other, reports);
  EXPECT_EQ(a.live_reports(), b.live_reports());
  EXPECT_EQ(a.live_reports(), other.live_reports());
  for (const MetricsCollector* m : {&b, &other}) {
    EXPECT_EQ(m->act(), a.act());
    EXPECT_EQ(m->ae(), a.ae());
    for (double q : {0.5, 0.95, 0.99}) EXPECT_EQ(m->ct_quantile(q), a.ct_quantile(q)) << q;
  }
}

}  // namespace
}  // namespace dpjit::exp
