#include "exp/sweep.hpp"

#include "core/algorithm.hpp"
#include "util/parallel.hpp"

namespace dpjit::exp {

std::vector<ExperimentResult> run_sweep(const std::vector<ExperimentConfig>& configs,
                                        int threads) {
  std::vector<ExperimentResult> results(configs.size());
  // Work stealing balances runs of unequal cost (different scales/horizons);
  // results[i] is written by exactly one worker, and every run owns its
  // World (engine, RNG streams, metrics), so any schedule of runs onto
  // threads produces identical results.
  const bool pool_is_parallel = util::resolve_threads(threads, configs.size()) > 1;
  util::parallel_for_each(configs.size(), threads, [&](std::size_t i) {
    ExperimentConfig cfg = configs[i];
    // The sweep pool already saturates the cores; a full-width Routing build
    // inside every concurrent run would only oversubscribe them.
    if (pool_is_parallel && cfg.routing_threads == 0) cfg.routing_threads = 1;
    results[i] = run_experiment(cfg);
  });
  return results;
}

std::vector<ExperimentConfig> across_algorithms(const ExperimentConfig& base) {
  std::vector<ExperimentConfig> configs;
  for (const auto& name : core::paper_algorithms()) {
    ExperimentConfig cfg = base;
    cfg.algorithm = name;
    configs.push_back(std::move(cfg));
  }
  return configs;
}

}  // namespace dpjit::exp
