#include "core/fullahead/planner.hpp"

#include <algorithm>
#include <cassert>

namespace dpjit::core {
namespace {

/// Topological depth (longest hop count from the entry) per task; used only to
/// break rank ties so that zero-cost virtual tasks never plan before their
/// precedents.
std::vector<int> topo_depths(const dag::Workflow& wf) {
  std::vector<int> depth(wf.task_count(), 0);
  for (TaskIndex t : wf.topological_order()) {
    for (TaskIndex s : wf.successors(t)) {
      depth[static_cast<std::size_t>(s.get())] =
          std::max(depth[static_cast<std::size_t>(s.get())],
                   depth[static_cast<std::size_t>(t.get())] + 1);
    }
  }
  return depth;
}

/// A task's start and finish on a node's timeline.
struct Slot {
  double start = 0.0;
  double finish = 0.0;
};

struct RankedTask {
  std::size_t wf_pos;  // index into the batch
  TaskIndex task;
  double rank;
  int depth;
};

/// Every task of `batch` by descending upward rank under `averages`; ties by
/// depth, batch position, then task index, so the order is total.
std::vector<RankedTask> rank_order(std::span<const PlanRequest> batch,
                                   const dag::AverageEstimates& averages) {
  std::vector<RankedTask> order;
  for (std::size_t w = 0; w < batch.size(); ++w) {
    const dag::Workflow& wf = *batch[w].wf;
    const auto ranks = dag::upward_ranks(wf, averages);
    const auto depths = topo_depths(wf);
    for (std::size_t t = 0; t < wf.task_count(); ++t) {
      order.push_back({w, TaskIndex{static_cast<TaskIndex::underlying_type>(t)}, ranks[t],
                       depths[t]});
    }
  }
  std::sort(order.begin(), order.end(), [](const RankedTask& a, const RankedTask& b) {
    if (a.rank != b.rank) return a.rank > b.rank;
    if (a.depth != b.depth) return a.depth < b.depth;
    if (a.wf_pos != b.wf_pos) return a.wf_pos < b.wf_pos;
    return a.task < b.task;
  });
  return order;
}

}  // namespace

void FullAheadPlanner::plan(const std::vector<PlanRequest>& workflows,
                            const PlannerOracle& oracle, Assignment& out) {
  if (!backlog_seeded_) {
    backlog_seeded_ = true;
    for (const auto& r : oracle.nodes) {
      const double backlog = std::max(0.0, r.load_mi) / r.capacity_mips;
      if (backlog > 0.0) timelines_[r.node].book(0.0, backlog);
    }
  }
  if (order_ == PlanOrder::kGlobalRank) {
    plan_batch(workflows, oracle, out);
    return;
  }
  // SMF: shortest expected makespan first (stable: submission order on
  // ties), each workflow planned completely before the next.
  std::vector<PlanRequest> sorted = workflows;
  std::stable_sort(sorted.begin(), sorted.end(), [](const PlanRequest& a, const PlanRequest& b) {
    return a.expected_makespan < b.expected_makespan;
  });
  for (const PlanRequest& req : sorted) {
    plan_batch(std::span<const PlanRequest>(&req, 1), oracle, out);
  }
}

void FullAheadPlanner::plan_batch(std::span<const PlanRequest> batch,
                                  const PlannerOracle& oracle, Assignment& out) {
  // Movement cost of `size` megabits: the live transfer-time oracle when the
  // caller wired one (contention-aware planning), else the classic static
  // division - unreachable or zero-bandwidth pairs cost +inf either way.
  auto move_cost = [&](NodeId from, NodeId to, double size) {
    if (oracle.transfer_time) return oracle.transfer_time(from, to, size);
    const double bw = oracle.bandwidth(from, to);
    return bw > 0.0 ? size / bw : kInf;
  };

  // Data-arrival time of task `t` at `node`: its planned precedents' finish
  // plus transfer, and the task image from the home node (available at 0).
  // `hypo_pred` stands for one precedent placed hypothetically on
  // `hypo_node`, finishing at `hypo_ft` (the lookahead probe); a precedent
  // not planned yet (a probed child's other parents) is ignored.
  auto arrival_at = [&](const PlanRequest& req, TaskIndex t, NodeId node,
                        TaskIndex hypo_pred = TaskIndex{}, NodeId hypo_node = NodeId{},
                        double hypo_ft = 0.0) {
    const dag::Workflow& wf = *req.wf;
    double arrival = 0.0;
    for (TaskIndex p : wf.predecessors(t)) {
      const TaskRef pref{req.id, p};
      double ft = 0.0;
      NodeId loc{};
      if (p == hypo_pred) {
        ft = hypo_ft;
        loc = hypo_node;
      } else {
        const auto ft_it = planned_ft_.find(pref);
        if (ft_it == planned_ft_.end()) continue;
        ft = ft_it->second;
        loc = out.at(pref);
      }
      double xfer = 0.0;
      if (loc != node) {
        xfer = move_cost(loc, node, wf.edge_data(p, t));
      }
      arrival = std::max(arrival, ft + xfer);
    }
    const dag::Task& task = wf.task(t);
    if (task.image_mb > 0.0 && req.home != node) {
      arrival = std::max(arrival, move_cost(req.home, node, task.image_mb));
    }
    return arrival;
  };

  // Earliest slot for `task` on `node` once its data is there at `arrival`,
  // against the current timelines (no booking).
  auto slot_on = [&](const dag::Task& task, const gossip::ResourceEntry& node, double arrival) {
    const double duration = task.load_mi / node.capacity_mips;
    const double start = timelines_[node.node].earliest_start(arrival, duration);
    return Slot{start, start + duration};
  };

  for (const RankedTask& rt : rank_order(batch, oracle.averages)) {
    const PlanRequest& req = batch[rt.wf_pos];
    const dag::Workflow& wf = *req.wf;
    const dag::Task& task = wf.task(rt.task);

    NodeId best_node{};
    double best_score = kInf;
    Slot best;
    for (const auto& node : oracle.nodes) {
      const Slot slot = slot_on(task, node, arrival_at(req, rt.task, node.node));
      double score = slot.finish;
      if (placement_ == Placement::kLookahead) {
        // The worst of the children's best achievable finish times, given
        // this task finishes at slot.finish on `node`.
        for (TaskIndex child : wf.successors(rt.task)) {
          double child_best = kInf;
          for (const auto& cnode : oracle.nodes) {
            const double carrival =
                arrival_at(req, child, cnode.node, rt.task, node.node, slot.finish);
            child_best = std::min(child_best, slot_on(wf.task(child), cnode, carrival).finish);
          }
          score = std::max(score, child_best);
        }
      }
      if (score < best_score) {
        best_score = score;
        best_node = node.node;
        best = slot;
      }
    }
    assert(best_node.valid() && "planner given an empty oracle");
    const TaskRef ref{req.id, rt.task};
    timelines_[best_node].book(best.start, best.finish - best.start);
    planned_ft_[ref] = best.finish;
    out[ref] = best_node;
  }
}

}  // namespace dpjit::core
