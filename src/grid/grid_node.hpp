// Runtime state of one peer node in its *resource* role: the non-preemptive
// single CPU and the ready set RDS(p_r) of dispatched tasks (paper Section II).
//
// Each ready task carries the priority attributes the second scheduling phase
// needs (Algorithm 2): the task's rest-path makespan, its workflow's remaining
// makespan, the DSDF slack and the sufferage value - all stamped by the first
// phase at dispatch time, as the paper prescribes ("the task will be migrated
// to the node together with its rest path makespan and its workflow's
// makespan").
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/types.hpp"

namespace dpjit::grid {

/// A task waiting (or running) in a resource node's ready set.
struct ReadyTask {
  TaskRef ref;
  /// Task load in MI (execution time on this node = load / capacity).
  double load_mi = 0.0;
  /// Rest-path makespan stamped at dispatch (phase-2 tie-break, DHEFT order).
  double rpm = 0.0;
  /// The workflow's remaining makespan ms(f) stamped at dispatch (DSMF order).
  double wf_makespan = 0.0;
  /// DSDF "deadline": ms(f) - RPM(t), smaller = more critical.
  double slack = 0.0;
  /// Sufferage value stamped at dispatch (LSF order).
  double sufferage = 0.0;
  /// When the dispatch message reached this node.
  SimTime arrived_at = kNoTime;
  /// Monotone arrival sequence number (FCFS order).
  std::uint64_t arrival_seq = 0;
  /// Input transfers (image + dependent data) still in flight.
  int pending_inputs = 0;
  /// When the last input arrived; kNoTime while pending_inputs > 0.
  SimTime data_ready_at = kNoTime;
};

/// One peer node's resource-role state. The scheduler role (workflow table,
/// schedule points) lives in core::GridSystem; gossip state lives in the
/// gossip service. Aliveness is owned by the system and mirrored here.
///
/// The ready set keeps its arrival order, which is observable: the phase-2
/// policies break ties by candidate position, and total_load_mi() sums left
/// to right. Removal leaves a tombstone that a compaction drops once
/// tombstones pass a quarter of the queued tasks, and a TaskRef index (open
/// addressing over slots) finds a task without a scan. The queued-load sum is
/// cached: an append extends it (the same left-to-right fold), a removal
/// invalidates it and the next total_load_mi() recomputes it, so the value is
/// bitwise the plain left-to-right sum.
class GridNode {
 public:
  GridNode(NodeId id, double capacity_mips);

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] double capacity_mips() const { return capacity_; }
  [[nodiscard]] bool alive() const { return alive_; }
  void set_alive(bool alive) { alive_ = alive; }

  /// --- ready set (RDS) ---
  /// Pointers into the ready set stay valid until its next mutation.

  /// Appends a dispatched task. Throws std::invalid_argument on an invalid
  /// TaskRef and std::logic_error when the TaskRef is already queued.
  void add_ready(ReadyTask task);

  /// One input transfer of a queued task arrived at `now`. Returns true when
  /// it was the task's last pending input (data_ready_at is stamped and the
  /// task becomes a phase-2 candidate); false otherwise, including when the
  /// task is not queued here.
  bool input_arrived(TaskRef ref, SimTime now);

  /// Removes a ready task (when it starts running or fails). False if absent.
  bool remove_ready(TaskRef ref);

  /// The queued tasks in arrival order.
  [[nodiscard]] std::vector<const ReadyTask*> ready() const;
  /// The deepest the ready set has been.
  [[nodiscard]] std::size_t ready_depth_max() const { return depth_max_; }

  /// Tasks whose inputs have all arrived, in arrival order: the phase-2
  /// candidate set. Returns at once when there are none.
  [[nodiscard]] std::vector<const ReadyTask*> data_complete() const;

  /// Clears the ready set, returning the dropped tasks (node departure).
  std::vector<ReadyTask> drain_ready();

  /// --- CPU ---

  [[nodiscard]] bool busy() const { return running_.has_value(); }
  [[nodiscard]] const ReadyTask* running() const {
    return running_ ? &*running_ : nullptr;
  }

  /// Moves a data-complete ready task onto the CPU. Requires !busy() and the
  /// task present with no pending inputs. Returns execution duration (s).
  double start_running(TaskRef ref, SimTime now);

  /// Completes the running task; returns it. Requires busy().
  ReadyTask finish_running();

  /// Aborts the running task (node death); returns it if there was one.
  std::optional<ReadyTask> abort_running();

  /// --- load (paper Section II.B: l_r) ---

  /// Total load: queued ready tasks at full load plus the *remaining* load of
  /// the running task at time `now`. This is the l_r that gossip advertises
  /// and that R(tau, p_r) = l_r / c_r is computed from.
  [[nodiscard]] double total_load_mi(SimTime now) const;

 private:
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  /// The index bucket holding `ref`'s slot, or the empty bucket that ends
  /// its probe chain. Requires a non-empty index.
  [[nodiscard]] std::size_t probe(TaskRef ref) const;
  /// Slot of the queued task `ref` in ready_, or kNoSlot.
  [[nodiscard]] std::uint32_t locate(TaskRef ref) const;
  /// Resizes the index for `live` tasks and re-inserts the live slots.
  void rebuild_index(std::size_t live);
  /// Tombstones a queued task, compacting when tombstones pile up.
  void erase_slot(std::uint32_t slot);

  NodeId id_;
  double capacity_;
  bool alive_ = true;
  /// Arrival order; a removed task leaves a tombstone (invalid ref).
  std::vector<ReadyTask> ready_;
  /// Linear-probing table of ready_ slots (kNoSlot = empty). Tombstoned
  /// slots stay in it until the next rebuild and never match a lookup.
  std::vector<std::uint32_t> index_;
  int index_shift_ = 64;
  std::size_t index_used_ = 0;
  std::size_t live_ = 0;
  std::size_t runnable_ = 0;
  std::size_t depth_max_ = 0;
  /// Left-to-right sum of the queued loads; valid unless a removal happened
  /// since it was last computed.
  mutable double queued_load_ = 0.0;
  mutable bool queued_load_valid_ = true;
  std::optional<ReadyTask> running_;
  SimTime run_started_ = kNoTime;
  SimTime run_finishes_ = kNoTime;
};

}  // namespace dpjit::grid
