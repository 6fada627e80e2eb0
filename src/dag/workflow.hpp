// Workflow = directed acyclic graph of tasks (paper Section II.A).
//
// Vertices carry the task's computational load (million instructions, MI) and
// the size of the task image that must be shipped to the executing node;
// edges carry the amount of dependent data (Mb) the successor must aggregate
// from the node that executed its precedent.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace dpjit::dag {

/// One vertex of the workflow DAG. Its optional label lives in the workflow's
/// name arena (Workflow::name).
struct Task {
  /// Computational load in million instructions (0 for virtual entry/exit).
  double load_mi = 0.0;
  /// Task image size in Mb, transferred from the home node to the resource node.
  double image_mb = 0.0;
};

/// One directed dependency edge with its data volume.
struct Dependency {
  TaskIndex from;
  TaskIndex to;
  /// Dependent data (Mb) produced by `from` and consumed by `to`.
  double data_mb = 0.0;
};

/// A workflow DAG. Construction is append-only: add tasks, then wire
/// dependencies; call normalize() to guarantee a unique entry and exit task
/// (the paper's zero-cost virtual tasks), then validate().
///
/// Storage. The adjacency is frozen into exact-size CSR arrays: per-task
/// offsets into one successor array (with a parallel edge-data array) and one
/// predecessor array, plus the Kahn topological order. Edges added since the
/// last freeze wait in a pending list; the next freeze merges them behind the
/// frozen ones, so every task's successors and predecessors stay in insertion
/// order. normalize() freezes. Reading the adjacency of a workflow that is
/// still being built freezes it lazily, so the spans and the order returned
/// by the accessors are invalidated by the next add_task, add_dependency or
/// normalize(), and concurrent reads of an unfrozen workflow race.
class Workflow {
 public:
  Workflow() = default;
  explicit Workflow(WorkflowId id) : id_(id) {}
  /// Copies the frozen form (freezing `other` first).
  Workflow(const Workflow& other);
  Workflow& operator=(const Workflow& other);
  Workflow(Workflow&&) noexcept = default;
  Workflow& operator=(Workflow&&) noexcept = default;

  [[nodiscard]] WorkflowId id() const { return id_; }
  void set_id(WorkflowId id) { id_ = id; }

  /// Capacity hint for a workflow about to receive `tasks` tasks and up to
  /// `edges` dependencies.
  void reserve(std::size_t tasks, std::size_t edges);

  /// Appends a task and returns its index.
  TaskIndex add_task(double load_mi, double image_mb, std::string_view name = {});

  /// Adds the dependency edge from -> to carrying `data_mb` of data.
  /// Requires both indices valid, from != to, and no duplicate edge; the
  /// duplicate check scans the smaller of from's out-edges and to's in-edges.
  void add_dependency(TaskIndex from, TaskIndex to, double data_mb);

  [[nodiscard]] std::size_t task_count() const { return tasks_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edge_count_; }
  [[nodiscard]] const Task& task(TaskIndex t) const;
  /// The task's label (empty when it has none).
  [[nodiscard]] std::string_view name(TaskIndex t) const;

  /// Pre(t): direct precedents of t, in insertion order.
  [[nodiscard]] std::span<const TaskIndex> predecessors(TaskIndex t) const {
    assert(t.valid() && static_cast<std::size_t>(t.get()) < tasks_.size());
    sync();
    return frozen_predecessors(static_cast<std::size_t>(t.get()));
  }
  /// Suc(t): direct successors of t, in insertion order.
  [[nodiscard]] std::span<const TaskIndex> successors(TaskIndex t) const {
    assert(t.valid() && static_cast<std::size_t>(t.get()) < tasks_.size());
    sync();
    return frozen_successors(static_cast<std::size_t>(t.get()));
  }
  /// Data volume of each out-edge of t, parallel to successors(t).
  [[nodiscard]] std::span<const double> successor_data(TaskIndex t) const {
    assert(t.valid() && static_cast<std::size_t>(t.get()) < tasks_.size());
    sync();
    const auto i = static_cast<std::size_t>(t.get());
    return {succ_data_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }

  /// Data volume on edge from -> to; requires the edge to exist.
  [[nodiscard]] double edge_data(TaskIndex from, TaskIndex to) const;

  /// True when the graph has no directed cycle.
  [[nodiscard]] bool is_acyclic() const;

  /// Ensures a unique entry task and a unique exit task by inserting zero-cost
  /// virtual tasks when needed (paper Section II.A), then freezes. Idempotent.
  void normalize();

  /// The unique entry (no precedents). Requires exactly one to exist.
  [[nodiscard]] TaskIndex entry() const;
  /// The unique exit (no successors). Requires exactly one to exist.
  [[nodiscard]] TaskIndex exit() const;

  /// All tasks with no precedents / no successors (useful before normalize()).
  [[nodiscard]] std::vector<TaskIndex> entry_tasks() const;
  [[nodiscard]] std::vector<TaskIndex> exit_tasks() const;

  /// Kahn topological order: the sources in ascending index, then each task
  /// as its last precedent is processed, in successor order. Shorter than
  /// task_count() iff the graph has a cycle. Stored at the freeze.
  [[nodiscard]] std::span<const TaskIndex> topological_order() const;

  /// Total load of all tasks (MI).
  [[nodiscard]] double total_load_mi() const;

  /// Structural problems (cycles, unreachable tasks, multiple entries/exits,
  /// negative weights). Empty result means the workflow is well-formed.
  [[nodiscard]] std::vector<std::string> validate() const;

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  /// The build phase's edges, in insertion order. Each is chained to the
  /// previous pending edge with the same source and with the same target, so
  /// the duplicate check walks one task's pending edges only.
  struct Pending {
    struct Edge {
      Dependency dep;
      std::uint32_t prev_out = kNone;
      std::uint32_t prev_in = kNone;
    };
    /// One task's pending out-/in-edge counts and newest out-/in-edge.
    struct Links {
      std::uint32_t out = 0;
      std::uint32_t in = 0;
      std::uint32_t last_out = kNone;
      std::uint32_t last_in = kNone;
    };
    std::vector<Edge> edges;
    /// Indexed by task; tasks past its end have no pending edges.
    std::vector<Links> links;
  };

  /// Freezes unless the CSR arrays already cover every task and edge.
  void sync() const {
    if (pending_ || frozen_tasks() != tasks_.size()) freeze();
  }
  /// Merges the pending edges into the CSR arrays and recomputes the order.
  void freeze() const;
  /// Tasks and edges the CSR arrays cover.
  [[nodiscard]] std::size_t frozen_tasks() const {
    return offsets_.empty() ? 0 : offsets_.size() / 2 - 1;
  }
  [[nodiscard]] std::size_t frozen_edges() const { return succ_data_.size(); }
  /// Task t's frozen successors / predecessors; requires t < frozen_tasks().
  [[nodiscard]] std::span<const TaskIndex> frozen_successors(std::size_t t) const {
    return {links_.data() + offsets_[t], offsets_[t + 1] - offsets_[t]};
  }
  [[nodiscard]] std::span<const TaskIndex> frozen_predecessors(std::size_t t) const {
    const std::uint32_t* pred_off = offsets_.data() + frozen_tasks() + 1;
    return {links_.data() + frozen_edges() + pred_off[t], pred_off[t + 1] - pred_off[t]};
  }
  [[nodiscard]] std::size_t out_degree(std::size_t t) const;
  [[nodiscard]] std::size_t in_degree(std::size_t t) const;
  [[nodiscard]] bool has_edge(std::size_t from, std::size_t to) const;

  WorkflowId id_{};
  std::uint32_t edge_count_ = 0;
  std::vector<Task> tasks_;
  /// Every task's label back to back; task t's ends at name_end_[t].
  std::string names_;
  std::vector<std::uint32_t> name_end_;

  // Frozen CSR adjacency over the first frozen_tasks() = n tasks, with
  // E = frozen_edges(). offsets_ holds the successor offsets [0, n] then the
  // predecessor offsets [n + 1, 2n + 1]; links_ holds the successors [0, E),
  // the predecessors [E, 2E), then the topological order; succ_data_ is
  // parallel to the successors.
  mutable std::vector<std::uint32_t> offsets_;
  mutable std::vector<TaskIndex> links_;
  mutable std::vector<double> succ_data_;
  /// Build phase only; null once frozen.
  mutable std::unique_ptr<Pending> pending_;
};

}  // namespace dpjit::dag
