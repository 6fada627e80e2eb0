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
  // A planned precedent of the task being placed: where it runs, when it
  // finishes and how much data it sends.
  struct Input {
    NodeId loc;
    double ft;
    double data_mb;
  };
  // The planned precedents of task `t`. A precedent not planned yet (a probed
  // child's other parents, or the task being placed itself) is left out.
  auto planned_inputs = [&](const PlanRequest& req, TaskIndex t, std::vector<Input>& inputs) {
    inputs.clear();
    for (TaskIndex p : req.wf->predecessors(t)) {
      const TaskRef pref{req.id, p};
      const auto ft_it = planned_ft_.find(pref);
      if (ft_it == planned_ft_.end()) continue;
      inputs.push_back({out.at(pref), ft_it->second, req.wf->edge_data(p, t)});
    }
  };

  // Data-arrival time of task `t` at `node`: its planned precedents' finish
  // plus transfer, and the task image from the home node (available at 0).
  // The max fold is exact, so the order of the inputs does not matter.
  auto arrival_at = [&](const PlanRequest& req, TaskIndex t, std::span<const Input> inputs,
                        NodeId node) {
    double arrival = 0.0;
    for (const Input& in : inputs) {
      const double xfer = in.loc != node ? oracle.transfer_time(in.loc, node, in.data_mb) : 0.0;
      arrival = std::max(arrival, in.ft + xfer);
    }
    const dag::Task& task = req.wf->task(t);
    if (task.image_mb > 0.0 && req.home != node) {
      arrival = std::max(arrival, oracle.transfer_time(req.home, node, task.image_mb));
    }
    return arrival;
  };

  // Every oracle node's timeline, looked up once (unordered_map references
  // stay valid as it grows).
  const std::size_t n = oracle.nodes.size();
  std::vector<Timeline*> lines;
  lines.reserve(n);
  for (const auto& node : oracle.nodes) lines.push_back(&timelines_[node.node]);

  // Earliest slot for `task` on oracle node `k` once its data is there at
  // `arrival`, against the current timelines (no booking).
  auto slot_on = [&](const dag::Task& task, std::size_t k, double arrival) {
    const double duration = task.load_mi / oracle.nodes[k].capacity_mips;
    const double start = lines[k]->earliest_start(arrival, duration);
    return Slot{start, start + duration};
  };

  std::vector<Input> inputs;
  // Lookahead: per child of the task being placed, the data it needs from
  // the task, and per (child, oracle node) its data-arrival time from its
  // other planned inputs and its image, which no probed place of the task
  // changes.
  std::vector<double> child_data;
  std::vector<double> child_ready;
  for (const RankedTask& rt : rank_order(batch, oracle.averages)) {
    const PlanRequest& req = batch[rt.wf_pos];
    const dag::Workflow& wf = *req.wf;
    const dag::Task& task = wf.task(rt.task);
    const auto children = wf.successors(rt.task);

    if (placement_ == Placement::kLookahead) {
      child_data.clear();
      child_ready.clear();
      for (TaskIndex child : children) {
        child_data.push_back(wf.edge_data(rt.task, child));
        planned_inputs(req, child, inputs);
        for (const auto& cnode : oracle.nodes) {
          child_ready.push_back(arrival_at(req, child, inputs, cnode.node));
        }
      }
    }
    planned_inputs(req, rt.task, inputs);

    NodeId best_node{};
    double best_score = kInf;
    Slot best;
    for (std::size_t j = 0; j < n; ++j) {
      const NodeId node = oracle.nodes[j].node;
      const Slot slot = slot_on(task, j, arrival_at(req, rt.task, inputs, node));
      double score = slot.finish;
      if (placement_ == Placement::kLookahead) {
        // The worst of the children's best achievable finish times, given
        // this task finishes at slot.finish on `node`.
        for (std::size_t c = 0; c < children.size(); ++c) {
          const dag::Task& child = wf.task(children[c]);
          double child_best = kInf;
          for (std::size_t k = 0; k < n; ++k) {
            const NodeId cnode = oracle.nodes[k].node;
            const double xfer =
                cnode != node ? oracle.transfer_time(node, cnode, child_data[c]) : 0.0;
            const double carrival = std::max(child_ready[c * n + k], slot.finish + xfer);
            child_best = std::min(child_best, slot_on(child, k, carrival).finish);
          }
          score = std::max(score, child_best);
        }
      }
      if (score < best_score) {
        best_score = score;
        best_node = node;
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
