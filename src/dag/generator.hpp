// Random workflow generator following the paper's experimental setting
// (Table I): 2-30 tasks per workflow, per-task fan-out 1-5, loads 100-10000 MI,
// image sizes 10-100 Mb, dependent data 10-1000 / 100-10000 Mb.
#pragma once

#include "dag/workflow.hpp"
#include "util/rng.hpp"

namespace dpjit::dag {

/// How per-task loads and per-edge data volumes are drawn from their
/// [min, max] ranges. kUniform is the paper's Table-I setting; the heavy-tail
/// families model real grid traces, where most tasks are small and a few are
/// enormous. Heavy-tail draws are clamped back into [min, max], so the range
/// bounds stay hard invariants regardless of the distribution.
enum class SizeDistribution {
  kUniform,
  /// exp(N(mu, sigma)) with mu centered on the geometric mean of the range;
  /// the tail shape parameter is sigma (log-space standard deviation).
  kLogNormal,
  /// Pareto Type I with scale = min; the tail shape parameter is the tail
  /// index alpha (smaller alpha = heavier tail).
  kPareto,
};

/// Out-degree bounds for non-exit tasks (Table I).
inline constexpr int kMinFanout = 1;
inline constexpr int kMaxFanout = 5;
/// Task image size range in Mb (Table I).
inline constexpr double kMinImageMb = 10.0;
inline constexpr double kMaxImageMb = 100.0;

/// Parameters of the random DAG family (defaults = Table I, CCR ~ 0.16 case).
struct GeneratorParams {
  int min_tasks = 2;
  int max_tasks = 30;
  double min_load_mi = 100.0;
  double max_load_mi = 10000.0;
  double min_data_mb = 10.0;
  double max_data_mb = 1000.0;
  /// Distribution of task loads / dependent-data volumes over their ranges.
  SizeDistribution load_distribution = SizeDistribution::kUniform;
  SizeDistribution data_distribution = SizeDistribution::kUniform;
  /// Heavy-tail shape: lognormal sigma, or Pareto alpha (unused for uniform).
  double load_tail_shape = 1.0;
  double data_tail_shape = 1.5;

  /// Throws std::invalid_argument when bounds are inverted or non-positive
  /// (heavy-tail draws additionally require strictly positive minima).
  void validate() const;
};

/// Generates a normalized, validated random workflow. Deterministic in `rng`.
///
/// Construction: tasks are laid out in a random topological position order;
/// every non-first task receives at least one precedent (guaranteeing a unique
/// entry), then extra forward edges are added until each task's out-degree
/// reaches a uniform target in [kMinFanout, kMaxFanout] (capped by the number
/// of available later tasks). Multiple exits are merged by a zero-cost
/// virtual exit task, as the paper prescribes.
[[nodiscard]] Workflow generate_workflow(WorkflowId id, const GeneratorParams& params,
                                         util::Rng& rng);

}  // namespace dpjit::dag
