// Metrics collection: the quantities the paper's evaluation plots.
//
//  - ACT, Eq. (2): average completion time over finished workflows;
//  - AE,  Eq. (3): average execution efficiency e(f) = eft(f)/ct(f);
//  - throughput: cumulative workflows finished over time (Figs. 4, 12);
//  - running ACT / AE curves over time (Figs. 5, 6, 13, 14);
//  - gossip view sizes per cycle (Fig. 11a).
//
// Two implementations share the WorkflowMetrics interface:
//
//  - MetricsCollector retains every WorkflowReport/CycleSample (the default;
//    examples and post-hoc analyses read the raw records), so memory grows
//    with the workload.
//  - StreamingMetricsCollector keeps O(1) state per metric — running sums in
//    arrival order, per-bucket curve accumulators, a t-digest for
//    completion-time quantiles and a seeded reservoir of sample reports — so
//    a 1M-task heavy-traffic run holds a bounded number of live reports.
//
// The streaming collector accumulates in exactly the floating-point order the
// retaining collector's end-of-run loops use, so act/ae/mean_response and
// every digested field are BITWISE identical between the two; selecting it
// never moves a golden digest. (converged_rss/idle use a time-based tail
// instead of the retained index-based one — close, not digested.)
#pragma once

#include <cstddef>
#include <vector>

#include "core/metrics_sink.hpp"
#include "util/reservoir.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
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
/// the bucket width (historically such a finish fell into an interior bucket
/// in one collector and the overflow bucket in the other; both collectors now
/// share this helper, and the regression test pins the boundary).
[[nodiscard]] std::size_t curve_bucket_index(double finish_s, double horizon_s, double bucket_s,
                                             std::size_t buckets);

/// The metrics surface a World exposes, whichever collector is configured.
class WorkflowMetrics : public core::MetricsSink {
 public:
  /// Workflows finished so far.
  [[nodiscard]] virtual std::size_t finished() const = 0;
  /// ACT over finished workflows (paper Eq. 2); 0 when none finished.
  [[nodiscard]] virtual double act() const = 0;
  /// AE over finished workflows (paper Eq. 3); 0 when none finished.
  [[nodiscard]] virtual double ae() const = 0;
  /// Mean response time (submission -> exit completion).
  [[nodiscard]] virtual double mean_response() const = 0;

  // --- curves (one point per bucket, cumulative like the paper's plots) ---
  [[nodiscard]] virtual std::vector<CurvePoint> throughput_curve() const = 0;
  [[nodiscard]] virtual std::vector<CurvePoint> act_curve() const = 0;
  [[nodiscard]] virtual std::vector<CurvePoint> ae_curve() const = 0;

  /// Mean RSS size / idle-known over the last quarter of the run (converged
  /// view sizes, Fig. 11a).
  [[nodiscard]] virtual double converged_rss_size() const = 0;
  [[nodiscard]] virtual double converged_idle_known() const = 0;

  /// Completion-time quantile, q in [0, 1]: exact (sorted copy) in the
  /// retaining collector, t-digest estimate in the streaming one. NaN when
  /// none finished.
  [[nodiscard]] virtual double ct_quantile(double q) const = 0;

  /// Per-workflow report records currently held in memory. Retaining: one
  /// per finished workflow. Streaming: bounded by the reservoir capacity
  /// regardless of workload size — the O(1)-memory guarantee
  /// OpenStreamFullScale asserts on the million-task stream.
  [[nodiscard]] virtual std::size_t live_reports() const = 0;

  [[nodiscard]] virtual double horizon() const = 0;
  [[nodiscard]] virtual double bucket() const = 0;
};

class MetricsCollector final : public WorkflowMetrics {
 public:
  /// `horizon_s` bounds the time axis; `bucket_s` is the plotting resolution
  /// (the paper's figures use hours).
  explicit MetricsCollector(double horizon_s, double bucket_s = 3600.0);

  void on_workflow_finished(const core::WorkflowReport& report) override;
  void on_cycle(const core::CycleSample& sample) override;

  [[nodiscard]] std::size_t finished() const override { return reports_.size(); }
  [[nodiscard]] double act() const override;
  [[nodiscard]] double ae() const override;
  [[nodiscard]] double mean_response() const override;

  [[nodiscard]] std::vector<CurvePoint> throughput_curve() const override;
  [[nodiscard]] std::vector<CurvePoint> act_curve() const override;
  [[nodiscard]] std::vector<CurvePoint> ae_curve() const override;

  [[nodiscard]] const std::vector<core::WorkflowReport>& reports() const { return reports_; }
  [[nodiscard]] const std::vector<core::CycleSample>& samples() const { return samples_; }

  [[nodiscard]] double converged_rss_size() const override;
  [[nodiscard]] double converged_idle_known() const override;

  /// Exact: linear-interpolated percentile over a sorted copy of the
  /// completion times.
  [[nodiscard]] double ct_quantile(double q) const override;
  [[nodiscard]] std::size_t live_reports() const override { return reports_.size(); }

  [[nodiscard]] double horizon() const override { return horizon_; }
  [[nodiscard]] double bucket() const override { return bucket_; }

 private:
  double horizon_;
  double bucket_;
  std::vector<core::WorkflowReport> reports_;
  std::vector<core::CycleSample> samples_;
};

/// O(1)-memory sink for open-stream heavy-traffic runs: every per-metric
/// state is a fixed-size accumulator, a bounded sketch, or a bounded sample.
class StreamingMetricsCollector final : public WorkflowMetrics {
 public:
  /// Default t-digest compression for completion-time quantiles.
  static constexpr double kDefaultCompression = 100.0;
  /// Default reservoir capacity: the live_reports() bound.
  static constexpr std::size_t kDefaultReservoir = 64;

  /// `reservoir_rng` seeds the sample reservoir (fork a dedicated stream so
  /// sampling never perturbs the simulation's draws).
  StreamingMetricsCollector(double horizon_s, util::Rng reservoir_rng, double bucket_s = 3600.0,
                            double compression = kDefaultCompression,
                            std::size_t reservoir_capacity = kDefaultReservoir);

  void on_workflow_finished(const core::WorkflowReport& report) override;
  void on_cycle(const core::CycleSample& sample) override;

  [[nodiscard]] std::size_t finished() const override { return finished_; }
  [[nodiscard]] double act() const override;
  [[nodiscard]] double ae() const override;
  [[nodiscard]] double mean_response() const override;

  [[nodiscard]] std::vector<CurvePoint> throughput_curve() const override;
  [[nodiscard]] std::vector<CurvePoint> act_curve() const override;
  [[nodiscard]] std::vector<CurvePoint> ae_curve() const override;

  [[nodiscard]] double converged_rss_size() const override;
  [[nodiscard]] double converged_idle_known() const override;

  /// t-digest estimate (exact at q = 0 / 1 via the digest's min/max).
  [[nodiscard]] double ct_quantile(double q) const override;
  /// == reservoir size <= reservoir capacity, whatever the workload size.
  [[nodiscard]] std::size_t live_reports() const override { return reservoir_.size(); }

  [[nodiscard]] double horizon() const override { return horizon_; }
  [[nodiscard]] double bucket() const override { return bucket_; }

  [[nodiscard]] const util::TDigest& ct_digest() const { return ct_digest_; }
  [[nodiscard]] const util::ReservoirSampler<core::WorkflowReport>& reservoir() const {
    return reservoir_;
  }
  /// Cycle samples observed (none are retained).
  [[nodiscard]] std::size_t cycles_seen() const { return cycles_seen_; }

 private:
  double horizon_;
  double bucket_;
  std::size_t buckets_;

  // Running sums in arrival order — the same FP sequence the retaining
  // collector's end-of-run loops produce, hence bitwise-equal summaries.
  std::size_t finished_ = 0;
  double ct_sum_ = 0.0;
  double eff_sum_ = 0.0;
  double resp_sum_ = 0.0;

  // Per-bucket curve accumulators (buckets_ + 1 slots, fixed at ctor time).
  std::vector<std::size_t> finished_in_;
  std::vector<double> ct_sum_in_;
  std::vector<double> eff_sum_in_;

  // Converged view sizes: time-based tail (samples at t >= 3/4 horizon)
  // instead of the retaining collector's index-based last quarter.
  double tail_start_;
  double tail_rss_sum_ = 0.0;
  double tail_idle_sum_ = 0.0;
  std::size_t tail_n_ = 0;
  std::size_t cycles_seen_ = 0;

  util::TDigest ct_digest_;
  util::ReservoirSampler<core::WorkflowReport> reservoir_;
};

}  // namespace dpjit::exp
