#include "exp/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/stats.hpp"

namespace dpjit::exp {

std::size_t curve_bucket_count(double horizon_s, double bucket_s) {
  return static_cast<std::size_t>(std::ceil(horizon_s / bucket_s));
}

std::size_t curve_bucket_index(double finish_s, double horizon_s, double bucket_s,
                               std::size_t buckets) {
  // A workflow finishing at (or somehow past) the horizon belongs to the
  // final bucket regardless of whether the horizon divides evenly into
  // buckets — floor(horizon / bucket) alone puts an exact-horizon finish into
  // an interior bucket whenever horizon is not a bucket multiple.
  if (finish_s >= horizon_s) return buckets;
  const auto b = static_cast<std::size_t>(std::max(finish_s, 0.0) / bucket_s);
  return std::min(b, buckets);
}

MetricsCollector::MetricsCollector(double horizon_s, double bucket_s)
    : horizon_(horizon_s), bucket_(bucket_s), buckets_(0) {
  if (horizon_s <= 0.0 || bucket_s <= 0.0) {
    throw std::invalid_argument("MetricsCollector: horizon/bucket must be > 0");
  }
  buckets_ = curve_bucket_count(horizon_, bucket_);
  finished_in_.assign(buckets_ + 1, 0);
  ct_sum_in_.assign(buckets_ + 1, 0.0);
  eff_sum_in_.assign(buckets_ + 1, 0.0);
}

MetricsCollector::MetricsCollector(double horizon_s, util::Rng reservoir_rng, double bucket_s,
                                   double compression, std::size_t reservoir_capacity)
    : MetricsCollector(horizon_s, bucket_s) {
  sketches_ = Sketches{util::TDigest(compression), {reservoir_capacity, std::move(reservoir_rng)}};
}

void MetricsCollector::on_workflow_finished(const core::WorkflowReport& report) {
  ++finished_;
  const double ct = report.completion_time();
  const double eff = report.efficiency();
  ct_sum_ += ct;
  eff_sum_ += eff;
  resp_sum_ += report.response_time();

  const std::size_t b = curve_bucket_index(report.finish_time, horizon_, bucket_, buckets_);
  ++finished_in_[b];
  ct_sum_in_[b] += ct;
  eff_sum_in_[b] += eff;

  if (sketches_) {
    sketches_->ct_digest.add(ct);
    sketches_->reservoir.add(report);
  } else {
    reports_.push_back(report);
  }
}

void MetricsCollector::on_cycle(const core::CycleSample& sample) {
  ++cycles_seen_;
  if (!sketches_) {
    samples_.push_back(sample);
  } else if (sample.time >= 0.75 * horizon_) {
    sketches_->tail_rss_sum += sample.mean_rss_size;
    sketches_->tail_idle_sum += sample.mean_idle_known;
    ++sketches_->tail_n;
  }
}

double MetricsCollector::act() const {
  return finished_ == 0 ? 0.0 : ct_sum_ / static_cast<double>(finished_);
}

double MetricsCollector::ae() const {
  return finished_ == 0 ? 0.0 : eff_sum_ / static_cast<double>(finished_);
}

double MetricsCollector::mean_response() const {
  return finished_ == 0 ? 0.0 : resp_sum_ / static_cast<double>(finished_);
}

std::vector<CurvePoint> MetricsCollector::throughput_curve() const {
  std::vector<CurvePoint> curve(finished_in_.size());
  std::size_t cum = 0;
  for (std::size_t b = 0; b < finished_in_.size(); ++b) {
    cum += finished_in_[b];
    curve[b] = CurvePoint{static_cast<SimTime>(b + 1) * bucket_, static_cast<double>(cum)};
  }
  return curve;
}

namespace {

/// Cumulative mean per bucket from per-bucket sums and counts.
std::vector<CurvePoint> mean_curve(const std::vector<double>& sum_in,
                                   const std::vector<std::size_t>& n_in, double bucket) {
  std::vector<CurvePoint> curve(sum_in.size());
  double cum_sum = 0.0;
  std::size_t cum_n = 0;
  for (std::size_t b = 0; b < sum_in.size(); ++b) {
    cum_sum += sum_in[b];
    cum_n += n_in[b];
    curve[b] = CurvePoint{static_cast<SimTime>(b + 1) * bucket,
                          cum_n == 0 ? 0.0 : cum_sum / static_cast<double>(cum_n)};
  }
  return curve;
}

/// Mean of `field` over the last quarter (at least one) of the samples.
double tail_mean(const std::vector<core::CycleSample>& samples,
                 double (core::CycleSample::*field)) {
  if (samples.empty()) return 0.0;
  const std::size_t start = samples.size() - std::max<std::size_t>(samples.size() / 4, 1);
  double sum = 0.0;
  for (std::size_t i = start; i < samples.size(); ++i) sum += samples[i].*field;
  return sum / static_cast<double>(samples.size() - start);
}

}  // namespace

std::vector<CurvePoint> MetricsCollector::act_curve() const {
  return mean_curve(ct_sum_in_, finished_in_, bucket_);
}

std::vector<CurvePoint> MetricsCollector::ae_curve() const {
  return mean_curve(eff_sum_in_, finished_in_, bucket_);
}

double MetricsCollector::converged_rss_size() const {
  if (!sketches_) return tail_mean(samples_, &core::CycleSample::mean_rss_size);
  const auto& s = *sketches_;
  return s.tail_n == 0 ? 0.0 : s.tail_rss_sum / static_cast<double>(s.tail_n);
}

double MetricsCollector::converged_idle_known() const {
  if (!sketches_) return tail_mean(samples_, &core::CycleSample::mean_idle_known);
  const auto& s = *sketches_;
  return s.tail_n == 0 ? 0.0 : s.tail_idle_sum / static_cast<double>(s.tail_n);
}

double MetricsCollector::ct_quantile(double q) const {
  if (sketches_) return sketches_->ct_digest.quantile(q);
  std::vector<double> cts;
  cts.reserve(reports_.size());
  for (const auto& r : reports_) cts.push_back(r.completion_time());
  return util::percentile(std::move(cts), q);
}

std::size_t MetricsCollector::live_reports() const {
  return sketches_ ? sketches_->reservoir.size() : reports_.size();
}

const std::vector<core::WorkflowReport>& MetricsCollector::reports() const {
  if (sketches_) {
    throw std::logic_error("MetricsCollector::reports(): streaming mode keeps no records");
  }
  return reports_;
}

const std::vector<core::CycleSample>& MetricsCollector::samples() const {
  if (sketches_) {
    throw std::logic_error("MetricsCollector::samples(): streaming mode keeps no records");
  }
  return samples_;
}

const util::ReservoirSampler<core::WorkflowReport>& MetricsCollector::reservoir() const {
  if (!sketches_) {
    throw std::logic_error("MetricsCollector::reservoir(): retaining mode has no reservoir");
  }
  return sketches_->reservoir;
}

}  // namespace dpjit::exp
