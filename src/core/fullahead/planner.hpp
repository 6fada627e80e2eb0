// Full-ahead (static) planning: HEFT [7], the paper's self-implemented SMF and
// lookahead HEFT [24].
//
// All plan *before execution starts*, with global resource information (the
// paper grants the full-ahead baselines an oracle view: all nodes, their
// capacities and true pairwise bandwidths; lookahead-ca prices transfers at
// the live network's rates instead). The oracle carries one pricer and the
// planner charges every edge and image move through it. The plan fixes each
// task's execution node; at run time tasks are dispatched to their planned
// node as they become ready, and resource nodes execute them FCFS (Section
// IV.A).
//
// A planner instance is *centralized*: one instance plans the workflows of
// every home node onto a single set of booking timelines ("the scheduling
// work of the two algorithms is centrally performed before the execution
// starts", Section IV.A). Its weakness - the one the paper's evaluation
// exposes - is rigidity: the plan never adapts to how execution actually
// unfolds, and HEFT's global rank order lets long workflows delay short ones.
#pragma once

#include <span>
#include <unordered_map>
#include <vector>

#include "core/algorithm.hpp"
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
  /// What moving data between two nodes costs: the true pairwise bottleneck
  /// bandwidth as a static pricer (size_over_bandwidth; HEFT, SMF and
  /// heft-la) or the live network's transfer-time estimate
  /// (TransferManager::expected_transfer_time_s; lookahead-ca). GridSystem
  /// picks it from Algorithm::contended.
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

/// The one full-ahead planner: maps every task of the requested workflows in
/// the algorithm's plan order (HEFT's global rank, or SMF's per-workflow
/// batches) with its placement rule (EFT, or one-level lookahead), booking
/// each task on per-node insertion timelines. Successive plan() calls keep
/// the earlier bookings.
class FullAheadPlanner {
 public:
  explicit FullAheadPlanner(const Algorithm& algorithm)
      : order_(algorithm.plan_order), placement_(algorithm.placement) {}

  /// Plans all tasks of the given workflows; merges into `out`.
  void plan(const std::vector<PlanRequest>& workflows, const PlannerOracle& oracle,
            Assignment& out);

 private:
  /// Maps every task of `batch` onto the timelines in descending rank order.
  void plan_batch(std::span<const PlanRequest> batch, const PlannerOracle& oracle,
                  Assignment& out);

  PlanOrder order_;
  Placement placement_;
  std::unordered_map<NodeId, Timeline> timelines_;
  /// Planned finish time of every already-planned task.
  std::unordered_map<TaskRef, double> planned_ft_;
  /// The oracle's queued load (load / capacity) is booked at the start of
  /// each node's timeline by the first plan() call.
  bool backlog_seeded_ = false;
};

}  // namespace dpjit::core
