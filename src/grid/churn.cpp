#include "grid/churn.hpp"

#include <algorithm>
#include <stdexcept>

namespace dpjit::grid {

ChurnModel::ChurnModel(sim::Engine& engine, Params params, int node_count, util::Rng rng,
                       std::span<const std::uint8_t> alive, ChurnFn on_leave, ChurnFn on_join)
    : engine_(engine),
      params_(params),
      n_(node_count),
      rng_(rng),
      alive_(alive),
      on_leave_(std::move(on_leave)),
      on_join_(std::move(on_join)) {
  if (params_.dynamic_factor < 0.0 || params_.dynamic_factor > 1.0) {
    throw std::invalid_argument("ChurnModel: dynamic_factor in [0,1]");
  }
  if (static_cast<int>(alive_.size()) != node_count) {
    throw std::invalid_argument("ChurnModel: one liveness byte per node");
  }
  if (params_.stable_count < 0 || params_.stable_count > node_count) {
    throw std::invalid_argument("ChurnModel: stable_count in [0,n]");
  }
  if (params_.wave_every < 0) throw std::invalid_argument("ChurnModel: wave_every >= 0");
  if (params_.wave_every > 0 && params_.wave_multiplier < 1.0) {
    throw std::invalid_argument("ChurnModel: wave_multiplier >= 1");
  }
}

void ChurnModel::start() {
  if (params_.dynamic_factor <= 0.0) return;
  process_ = std::make_unique<sim::PeriodicProcess>(
      engine_, engine_.now() + kIntervalS, kIntervalS,
      [this](std::uint64_t) { step(); });
  process_->start();
}

void ChurnModel::stop() {
  if (process_) process_->stop();
}

void ChurnModel::step() {
  const auto churn_count = static_cast<std::size_t>(params_.dynamic_factor * n_);
  if (churn_count == 0) return;
  ++steps_;

  // On a correlated wave step, departures scale up while joins keep the base
  // rate (mass outage, gradual recovery). The cast keeps leave_target exact
  // for integer multipliers.
  std::size_t leave_target = churn_count;
  if (params_.wave_every > 0 && steps_ % static_cast<std::uint64_t>(params_.wave_every) == 0) {
    leave_target = static_cast<std::size_t>(params_.wave_multiplier *
                                            static_cast<double>(churn_count));
  }

  std::vector<NodeId> alive_dynamic;
  std::vector<NodeId> dead_dynamic;
  for (int i = params_.stable_count; i < n_; ++i) {
    (alive_[static_cast<std::size_t>(i)] != 0 ? alive_dynamic : dead_dynamic).push_back(NodeId{i});
  }

  // Departures first, then joins: the paper churns both directions per
  // interval, keeping the population roughly constant.
  rng_.shuffle(alive_dynamic);
  const std::size_t leave_n = std::min(leave_target, alive_dynamic.size());
  for (std::size_t i = 0; i < leave_n; ++i) {
    on_leave_(alive_dynamic[i]);
    ++leaves_;
  }
  rng_.shuffle(dead_dynamic);
  const std::size_t join_n = std::min(churn_count, dead_dynamic.size());
  for (std::size_t i = 0; i < join_n; ++i) {
    on_join_(dead_dynamic[i]);
    ++joins_;
  }
}

}  // namespace dpjit::grid
