// Metrics collection: the quantities the paper's evaluation plots.
//
//  - ACT, Eq. (2): average completion time over finished workflows;
//  - AE,  Eq. (3): average execution efficiency e(f) = eft(f)/ct(f);
//  - throughput: cumulative workflows finished over time (Figs. 4, 12);
//  - running ACT / AE curves over time (Figs. 5, 6, 13, 14);
//  - gossip view sizes per cycle (Fig. 11a).
//
// One collector, two modes that differ only in whether they keep the raw
// records:
//
//  - retaining (the default; examples and post-hoc analyses read the raw
//    records) keeps every WorkflowReport/CycleSample, so memory grows with
//    the workload;
//  - streaming keeps no record: a t-digest stands in for the completion
//    times, a seeded reservoir holds a bounded sample of reports and a
//    time-based tail sum stands in for the cycle samples, so a 1M-task
//    heavy-traffic run holds a bounded number of live reports.
//
// Both modes fold every report into the same running sums and per-bucket
// accumulators, in arrival order, and act/ae/mean_response and the curves
// read only those — so every digested field is the same in either mode.
// Only the answers that come from the records differ: ct_quantile (exact vs
// t-digest estimate), converged_* (index-based vs time-based tail) and
// live_reports.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/metrics_sink.hpp"
#include "util/reservoir.hpp"
#include "util/rng.hpp"
#include "util/tdigest.hpp"

namespace dpjit::exp {

/// One point of a "metric vs time" series.
struct CurvePoint {
  SimTime time = 0.0;
  double value = 0.0;
};

/// Number of curve buckets for a horizon/bucket pair; curves carry an extra
/// overflow point, buckets + 1 in total.
[[nodiscard]] std::size_t curve_bucket_count(double horizon_s, double bucket_s);

/// Bucket index for a finish time. Interior times map to floor(t / bucket);
/// anything at or past the horizon lands in the overflow bucket `buckets` —
/// including t == horizon exactly, even when the horizon is not a multiple of
/// the bucket width (the regression test pins the boundary).
[[nodiscard]] std::size_t curve_bucket_index(double finish_s, double horizon_s, double bucket_s,
                                             std::size_t buckets);

class MetricsCollector final : public core::MetricsSink {
 public:
  /// Default t-digest compression for streaming completion-time quantiles.
  static constexpr double kDefaultCompression = 100.0;
  /// Default reservoir capacity: the streaming live_reports() bound.
  static constexpr std::size_t kDefaultReservoir = 64;

  /// Retaining mode. `horizon_s` bounds the time axis; `bucket_s` is the
  /// plotting resolution (the paper's figures use hours).
  explicit MetricsCollector(double horizon_s, double bucket_s = 3600.0);
  /// Streaming mode. `reservoir_rng` seeds the sample reservoir (fork a
  /// dedicated stream so sampling never perturbs the simulation's draws).
  MetricsCollector(double horizon_s, util::Rng reservoir_rng, double bucket_s = 3600.0,
                   double compression = kDefaultCompression,
                   std::size_t reservoir_capacity = kDefaultReservoir);

  void on_workflow_finished(const core::WorkflowReport& report) override;
  void on_cycle(const core::CycleSample& sample) override;

  /// Workflows finished so far.
  [[nodiscard]] std::size_t finished() const { return finished_; }
  /// ACT over finished workflows (paper Eq. 2); 0 when none finished.
  [[nodiscard]] double act() const;
  /// AE over finished workflows (paper Eq. 3); 0 when none finished.
  [[nodiscard]] double ae() const;
  /// Mean response time (submission -> exit completion).
  [[nodiscard]] double mean_response() const;

  // --- curves (one point per bucket, cumulative like the paper's plots) ---
  [[nodiscard]] std::vector<CurvePoint> throughput_curve() const;
  [[nodiscard]] std::vector<CurvePoint> act_curve() const;
  [[nodiscard]] std::vector<CurvePoint> ae_curve() const;

  /// Mean RSS size / idle-known over the converged tail of the run (Fig.
  /// 11a): the last quarter of the retained samples, or, when streaming, the
  /// samples at t >= 3/4 horizon.
  [[nodiscard]] double converged_rss_size() const;
  [[nodiscard]] double converged_idle_known() const;

  /// Completion-time quantile, q in [0, 1]: the linear-interpolated
  /// percentile of the retained completion times, or, when streaming, the
  /// t-digest estimate (exact at q = 0 / 1). NaN when none finished.
  [[nodiscard]] double ct_quantile(double q) const;

  /// Per-workflow report records held in memory: one per finished workflow
  /// when retaining; the reservoir size when streaming, bounded by its
  /// capacity whatever the workload size — the O(1)-memory guarantee
  /// OpenStreamFullScale asserts on the million-task stream.
  [[nodiscard]] std::size_t live_reports() const;

  /// The raw records; throw std::logic_error when streaming.
  [[nodiscard]] const std::vector<core::WorkflowReport>& reports() const;
  [[nodiscard]] const std::vector<core::CycleSample>& samples() const;

  [[nodiscard]] double bucket() const { return bucket_; }

 private:
  /// Streaming mode's bounded stand-ins for the raw records.
  struct Sketches {
    util::TDigest ct_digest;
    util::ReservoirSampler<core::WorkflowReport> reservoir;
    // Converged view sizes over the samples at t >= 3/4 horizon.
    double tail_rss_sum = 0.0;
    double tail_idle_sum = 0.0;
    std::size_t tail_n = 0;
  };

  double horizon_;
  double bucket_;
  std::size_t buckets_;

  // Running sums in arrival order.
  std::size_t finished_ = 0;
  double ct_sum_ = 0.0;
  double eff_sum_ = 0.0;
  double resp_sum_ = 0.0;

  // Per-bucket curve accumulators (buckets_ + 1 slots, fixed at ctor time).
  std::vector<std::size_t> finished_in_;
  std::vector<double> ct_sum_in_;
  std::vector<double> eff_sum_in_;

  // Retaining mode: every record.
  std::vector<core::WorkflowReport> reports_;
  std::vector<core::CycleSample> samples_;
  // Streaming mode only; empty when retaining.
  std::optional<Sketches> sketches_;
};

// perfbench/ (frozen with the benchmark) is the last user of these two
// names; delete them in the next change that may touch it.
using WorkflowMetrics = MetricsCollector;
using StreamingMetricsCollector = MetricsCollector;

}  // namespace dpjit::exp
