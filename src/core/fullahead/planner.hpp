// Full-ahead (static) planners: HEFT [7] and the paper's self-implemented SMF.
//
// Both plan *before execution starts*, with global resource information (the
// paper grants the full-ahead baselines an oracle view: all nodes, their
// capacities and true pairwise bandwidths). The plan fixes each task's
// execution node; at run time tasks are dispatched to their planned node as
// they become ready, and resource nodes execute them FCFS (Section IV.A).
//
// A planner instance is *centralized*: one instance plans the workflows of
// every home node onto a single set of booking timelines ("the scheduling
// work of the two algorithms is centrally performed before the execution
// starts", Section IV.A). Its weakness - the one the paper's evaluation
// exposes - is rigidity: the plan never adapts to how execution actually
// unfolds, and HEFT's global rank order lets long workflows delay short ones.
#pragma once

#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/estimates.hpp"
#include "core/fullahead/timeline.hpp"
#include "dag/critical_path.hpp"
#include "dag/workflow.hpp"

namespace dpjit::core {

/// The oracle view granted to full-ahead planners.
struct PlannerOracle {
  /// Every alive node with its true capacity and current total load.
  std::vector<gossip::ResourceEntry> nodes;
  /// True system-wide averages (for ranking).
  dag::AverageEstimates averages;
  /// True pairwise bottleneck bandwidth.
  BandwidthEstimateFn bandwidth;
  /// Optional live transfer-time estimator (latency + size over the rate the
  /// network would allocate right now, as in
  /// TransferManager::expected_transfer_time_s). When set, the planners
  /// charge edge and image movement through it instead of the static
  /// `size / bandwidth` division; when empty, planning is byte-for-byte
  /// the classic static-bandwidth HEFT/SMF (the goldens of heft/smf/heft-la
  /// depend on that). The contention-aware registry entry lookahead-ca is
  /// what sets it.
  TransferTimeFn transfer_time;
};

/// One workflow to plan.
struct PlanRequest {
  WorkflowId id;
  const dag::Workflow* wf = nullptr;
  /// Home node the workflow was submitted to (image transfers originate here).
  NodeId home{};
  /// Expected makespan under true averages (SMF sorts by this).
  double expected_makespan = 0.0;
};

/// Task -> node assignment produced by a planner.
using Assignment = std::unordered_map<TaskRef, NodeId>;

class FullAheadPlanner {
 public:
  virtual ~FullAheadPlanner() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Plans all tasks of the given workflows; merges into `out`.
  virtual void plan(const std::vector<PlanRequest>& workflows, const PlannerOracle& oracle,
                    Assignment& out) = 0;
};

/// HEFT: all tasks of all submitted workflows are ordered by descending upward
/// rank (computed per workflow under average estimates) and mapped with the
/// insertion-based earliest-finish-time rule.
class HeftPlanner final : public FullAheadPlanner {
 public:
  [[nodiscard]] std::string_view name() const override { return "heft"; }
  void plan(const std::vector<PlanRequest>& workflows, const PlannerOracle& oracle,
            Assignment& out) override;

 private:
  friend class SmfPlanner;
  /// Plans one batch of (workflow, task) pairs given per-task ranks. Shared by
  /// HEFT (one global batch) and SMF (one batch per workflow).
  void plan_batch(const std::vector<PlanRequest>& workflows,
                  const std::vector<std::vector<double>>& ranks, const PlannerOracle& oracle,
                  bool per_workflow_batches, Assignment& out);

  std::unordered_map<NodeId, Timeline> timelines_;
  /// Planned finish time of every already-planned task.
  std::unordered_map<TaskRef, double> planned_ft_;
  /// Queuing backlog (load/capacity) charged before the first booking.
  std::unordered_map<NodeId, double> initial_backlog_;
  bool backlog_seeded_ = false;

  void seed_backlog(const PlannerOracle& oracle);
};

/// SMF (shortest makespan first): workflows sorted by expected makespan
/// ascending; each is planned completely (rank-descending within the
/// workflow) before the next - the paper's best-performing baseline.
class SmfPlanner final : public FullAheadPlanner {
 public:
  [[nodiscard]] std::string_view name() const override { return "smf"; }
  void plan(const std::vector<PlanRequest>& workflows, const PlannerOracle& oracle,
            Assignment& out) override;

 private:
  HeftPlanner inner_;
};

/// Lookahead HEFT (Bittencourt, Sakellariou & Madeira, PDP'10 - the paper's
/// reference [24]): like HEFT, but a node is scored not by the task's own
/// earliest finish time but by the worst earliest finish time its *children*
/// could then achieve, evaluated one level deep against the current
/// timelines. The paper's related-work section quotes up to 20% improvement
/// over plain HEFT; this is the repository's optional-extension
/// implementation (O(V * N^2 * fanout) planning cost - use at bench scale).
class LookaheadHeftPlanner final : public FullAheadPlanner {
 public:
  [[nodiscard]] std::string_view name() const override { return "heft-la"; }
  void plan(const std::vector<PlanRequest>& workflows, const PlannerOracle& oracle,
            Assignment& out) override;

 private:
  std::unordered_map<NodeId, Timeline> timelines_;
  std::unordered_map<TaskRef, double> planned_ft_;
  bool backlog_seeded_ = false;
};

}  // namespace dpjit::core
