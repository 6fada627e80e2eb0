// Node churn model (paper Section IV.B, dynamic environment).
//
// The dynamic factor df is the ratio of churning nodes to the total node count
// per scheduling interval: with df = 0.1 and n = 1000, every interval 100
// alive dynamic nodes disconnect and 100 departed dynamic nodes rejoin.
// Stable nodes (the home nodes holding workflows) never churn - the paper
// excludes home-node failure because checkpointing is out of scope.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "sim/engine.hpp"
#include "sim/periodic.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace dpjit::grid {

class ChurnModel {
 public:
  /// Churn step period in seconds (paper: the 15-minute task scheduling
  /// interval). Fixed, not tied to SystemConfig::scheduling_interval_s.
  static constexpr double kIntervalS = 900.0;

  struct Params {
    /// Fraction of the total node count that leaves AND joins per interval.
    double dynamic_factor = 0.0;
    /// Nodes [0, stable_count) never churn.
    int stable_count = 0;
    /// Correlated-churn extension: every `wave_every`-th step is a departure
    /// wave taking out `wave_multiplier` x the base count at once (a campus
    /// power cut, a network partition). Joins always run at the base rate, so
    /// the population drains sharply on a wave and recovers over the
    /// following steps. 0 = the paper's uncorrelated churn.
    int wave_every = 0;
    /// Departure scaling applied on wave steps (>= 1).
    double wave_multiplier = 4.0;
  };

  using ChurnFn = std::function<void(NodeId)>;

  /// `alive` holds one byte per node (nonzero = up) and must outlive the
  /// model. The model only reads it: `on_leave` / `on_join` perform the
  /// actual state changes, and anything else (a fault plan's crash) may
  /// change it between steps. The model only decides who churns and when.
  ChurnModel(sim::Engine& engine, Params params, int node_count, util::Rng rng,
             std::span<const std::uint8_t> alive, ChurnFn on_leave, ChurnFn on_join);

  /// Starts periodic churn steps (no-op when dynamic_factor == 0).
  void start();
  void stop();

  /// Executes one churn step now (tests drive this directly).
  void step();

  [[nodiscard]] bool is_stable(NodeId n) const { return n.get() < params_.stable_count; }
  [[nodiscard]] std::uint64_t total_leaves() const { return leaves_; }
  [[nodiscard]] std::uint64_t total_joins() const { return joins_; }
  [[nodiscard]] std::uint64_t total_steps() const { return steps_; }

 private:
  sim::Engine& engine_;
  Params params_;
  int n_;
  util::Rng rng_;
  std::span<const std::uint8_t> alive_;
  ChurnFn on_leave_;
  ChurnFn on_join_;
  std::unique_ptr<sim::PeriodicProcess> process_;
  std::uint64_t leaves_ = 0;
  std::uint64_t joins_ = 0;
  std::uint64_t steps_ = 0;
};

}  // namespace dpjit::grid
