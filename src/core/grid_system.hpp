// GridSystem: the fully decentralized P2P grid with dual-phase just-in-time
// workflow scheduling (paper Sections II-III).
//
// Wires together the substrates:
//   - sim::Engine            discrete-event clock,
//   - net::Topology/Routing  the Brite/Waxman WAN,
//   - net::LandmarkEstimator bandwidth estimation,
//   - gossip::MixedGossipService   RSS maintenance + global averages,
//   - grid::GridNode/TransferManager/ChurnModel  node runtime,
//   - core::Algorithm (one table row)  the scheduling algorithm.
//
// Task lifecycle: Waiting -> Schedulable (all precedents finished)
//   -> Dispatched (phase 1 chose a resource node; image+data transfers run)
//   -> Running (phase 2 picked it when the CPU freed and inputs arrived)
//   -> Finished (home node notified; successors may become Schedulable)
//   or -> Failed (resource node churned away / input source lost).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/algorithm.hpp"
#include "core/fullahead/planner.hpp"
#include "core/metrics_sink.hpp"
#include "dag/critical_path.hpp"
#include "dag/workflow.hpp"
#include "grid/churn.hpp"
#include "grid/grid_node.hpp"
#include "grid/transfer_manager.hpp"
#include "gossip/mixed_gossip.hpp"
#include "net/landmark.hpp"
#include "sim/trace.hpp"

namespace dpjit::core {

/// The quantised-fair epoch a run uses: `requested_s` when positive,
/// otherwise max(min_latency_s, 60 s), where `min_latency_s` is the minimum
/// routed latency over all distinct node pairs (+inf when there are fewer
/// than two nodes). The 60 s floor keeps WAN topologies (sub-millisecond
/// routed latencies) from degenerating into millions of near-empty barriers.
[[nodiscard]] double derive_quantised_epoch(double min_latency_s, double requested_s);

/// Runtime state of one task instance.
enum class TaskState {
  kWaiting,      ///< some precedent unfinished
  kSchedulable,  ///< schedule point: all precedents finished, not yet dispatched
  kDispatched,   ///< sent to a resource node (in its ready set or in transit)
  kRunning,      ///< executing
  kFinished,     ///< completed
  kFailed,       ///< lost to churn (terminal unless rescheduling is enabled)
};

/// The task state machine. Besides the forward path in the header comment:
/// a re-offer pulls a Dispatched/Running task back to Schedulable, churn
/// recovery demotes a Finished task to Failed and a Schedulable one back to
/// Waiting, and a recovered Failed task restarts as Waiting or Schedulable.
[[nodiscard]] constexpr bool is_legal_transition(TaskState from, TaskState to) {
  using enum TaskState;
  switch (from) {
    case kWaiting:
      return to == kSchedulable;
    case kSchedulable:
      return to == kDispatched || to == kWaiting || to == kFailed;
    case kDispatched:
      return to == kRunning || to == kSchedulable || to == kFailed;
    case kRunning:
      return to == kFinished || to == kSchedulable || to == kFailed;
    case kFinished:
      return to == kFailed;
    case kFailed:
      return to == kSchedulable || to == kWaiting;
  }
  return false;
}

struct TaskRuntime {
  TaskState state = TaskState::kWaiting;
  /// Resource node the task was dispatched to / executed on.
  NodeId exec_node{};
  SimTime dispatched_at = kNoTime;
  SimTime started_at = kNoTime;
  SimTime finished_at = kNoTime;
  /// Precedents not yet known-finished at the home node.
  int unfinished_preds = 0;
  /// The home node processed this task's completion notification (successor
  /// counts were decremented). Distinguishes finished-and-notified from
  /// finished-with-notification-in-flight when churn recovery demotes a
  /// finished precedent whose output data died with its execution node.
  bool finish_notified = false;
};

/// A submitted workflow and its execution progress (home-node view).
struct WorkflowInstance {
  WorkflowId id{};
  NodeId home{};
  dag::Workflow dag;
  SimTime submit_time = kNoTime;
  SimTime entry_started_at = kNoTime;
  SimTime finished_at = kNoTime;
  /// eft(f) under true system averages, fixed at submission (Eq. 1).
  double eft = 0.0;
  std::vector<TaskRuntime> tasks;
  /// Task counts per state, kept by GridSystem's state transitions;
  /// in-flight = Dispatched + Running.
  std::size_t finished_tasks = 0;
  std::size_t failed_tasks = 0;
  std::size_t in_flight_tasks = 0;
  /// The schedule points (tasks in kSchedulable), ascending task index.
  std::vector<TaskIndex> frontier;
  /// Listed in its home's active-workflow queue (see GridSystem::HomeQueue).
  bool queued = false;
  /// RPM of every task (Eq. 7) under `rank_averages`, recomputed only when
  /// the scheduler asks under other averages; released once the workflow
  /// is done.
  std::vector<double> ranks;
  dag::AverageEstimates rank_averages;

  [[nodiscard]] bool done() const { return finished_at != kNoTime; }
};

/// Retry policy for input transfers that abort with both endpoints alive
/// (typically a link failure mid-transfer). max_attempts == 0 disables
/// retries entirely - the seed behavior, and deliberately the default:
/// fair-sharing's zero-rate stall guard also aborts transfers with live
/// endpoints, and retrying those would alter the contention scenarios.
struct TransferRetryPolicy {
  /// Max retry attempts per input transfer; 0 = fail immediately (seed).
  int max_attempts = 0;
  /// Exponential backoff: attempt k waits min(kBackoffCapS, kBackoffBaseS *
  /// 2^k) seconds.
  static constexpr double kBackoffBaseS = 30.0;
  static constexpr double kBackoffCapS = 1800.0;
};

/// Contacts handed to a (re)joining node, emulating a bootstrap server.
inline constexpr int kBootstrapContacts = 4;

/// System-level knobs (workload knobs live in exp::WorkloadFactory).
struct SystemConfig {
  /// Scheduler activation period (paper: 15 minutes). The first activation
  /// comes one period in, which gives gossip a warm-up (3 paper cycles).
  double scheduling_interval_s = 900.0;
  /// Simulation horizon (paper: 36 hours).
  double horizon_s = 129600.0;
  gossip::GossipParams gossip;
  /// Churn (dynamic_factor 0 = static environment).
  grid::ChurnModel::Params churn;
  /// Contended network ablation (default: paper's bottleneck model).
  /// Legacy switch for the fluid model; see `network_mode` for the seam.
  bool fair_sharing = false;
  /// Network-model seam (net/network_model.hpp). kBottleneck defers to the
  /// legacy `fair_sharing` flag above; any other value wins over it. Use
  /// effective_network_mode() to resolve the pair.
  net::NetworkMode network_mode = net::NetworkMode::kBottleneck;
  /// Quantised-fair epoch length in seconds; <= 0 derives
  /// max(min routed latency, 60 s) (see derive_quantised_epoch). Ignored by
  /// the other modes.
  double quantised_epoch_s = 0.0;
  /// Extension (paper future work): reschedule tasks lost to churn.
  bool reschedule_failed = false;
  /// Result collection: completed task outputs are also retained at the
  /// (stable) home node, so dependent data survives the executing node's
  /// departure - the standard master-keeps-results model of desktop-grid
  /// middleware (Condor/DAGMan, BOINC). When a precedent's execution node is
  /// gone, successors fetch the data from the home node instead (still paying
  /// the full transfer cost from there). Off = strict data-dies-with-the-node
  /// semantics (ablation).
  bool home_keeps_outputs = true;
  /// Retry/backoff hardening for link-failure transfer aborts.
  TransferRetryPolicy transfer_retry;
  std::uint64_t seed = 1;

  /// The mode the TransferManager actually runs in: `network_mode` unless it
  /// is kBottleneck, in which case the legacy `fair_sharing` flag picks
  /// between bottleneck and fluid-fair (back-compat: every pre-seam config
  /// keeps its exact meaning).
  [[nodiscard]] net::NetworkMode effective_network_mode() const {
    if (network_mode != net::NetworkMode::kBottleneck) return network_mode;
    return fair_sharing ? net::NetworkMode::kFluidFair : net::NetworkMode::kBottleneck;
  }
};

class GridSystem {
 public:
  /// `capacities[i]` is node i's MIPS rating (paper: {1,2,4,8,16}).
  /// `sink` may be null. `faults` (may be null) is the fault plan whose
  /// message fates the gossip layer draws from; attaching one also turns on
  /// transfer path tracking so link failures can abort in-flight transfers.
  /// All references must outlive the system.
  GridSystem(sim::Engine& engine, const net::Topology& topo, const net::Routing& routing,
             const net::LandmarkEstimator& landmarks, std::vector<double> capacities,
             Algorithm algorithm, SystemConfig config, MetricsSink* sink = nullptr,
             sim::FaultPlan* faults = nullptr);
  ~GridSystem();

  GridSystem(const GridSystem&) = delete;
  GridSystem& operator=(const GridSystem&) = delete;

  /// Registers a workflow at `home` (normalized + validated; throws on bad
  /// DAGs). Submission time is the engine's current time. When churn is
  /// enabled the home must be a stable node (paper: homes never churn).
  WorkflowId submit(NodeId home, dag::Workflow wf);

  /// Pre-sizes the workflow table for `n` submissions (an allocation saver:
  /// a table grown by doubling frees blocks the size of the last one).
  void reserve_workflows(std::size_t n) { workflows_.reserve(n); }

  /// Starts gossip/churn/scheduling and runs the engine to the horizon.
  void run();

  /// Starts the services without running the engine (callers that interleave
  /// other event sources drive engine.run_until themselves).
  void start();

  // --- inspection ---
  [[nodiscard]] const WorkflowInstance& workflow(WorkflowId id) const;
  [[nodiscard]] std::size_t workflow_count() const { return workflows_.size(); }
  [[nodiscard]] std::size_t finished_workflows() const { return finished_workflows_; }
  [[nodiscard]] const grid::GridNode& node(NodeId id) const;
  [[nodiscard]] std::size_t alive_count() const;
  [[nodiscard]] const gossip::MixedGossipService& gossip_service() const { return *gossip_; }
  [[nodiscard]] const grid::TransferManager& transfers() const { return *transfers_; }
  [[nodiscard]] const grid::ChurnModel& churn_model() const { return *churn_; }
  [[nodiscard]] sim::Trace& trace() { return trace_; }
  [[nodiscard]] std::uint64_t tasks_dispatched() const { return tasks_dispatched_; }
  [[nodiscard]] std::uint64_t tasks_failed() const { return tasks_failed_; }
  [[nodiscard]] std::uint64_t tasks_rescheduled() const { return tasks_rescheduled_; }
  [[nodiscard]] const SystemConfig& config() const { return config_; }

  /// Runs one scheduling cycle immediately (tests drive this directly).
  void run_scheduling_cycle();

  /// Fault injection: forcibly disconnects a node right now, exactly as churn
  /// would (running/ready tasks fail, transfers abort, gossip state clears).
  /// Disconnecting a node that hosts submitted workflows strands them.
  void inject_node_failure(NodeId n);

  /// Fault injection: re-joins a previously disconnected node (fresh state).
  void inject_node_rejoin(NodeId n);

  /// A topology link changed state. The caller (exp::World's fault wiring)
  /// updates net::Routing FIRST, then calls this so aborted transfers retry
  /// on the repaired routes. Forwards to TransferManager::link_state_changed.
  void on_link_state(LinkId l, bool up);

  /// Tasks pulled back from suspected-dead executors (message-level gossip).
  [[nodiscard]] std::uint64_t tasks_reoffered() const { return tasks_reoffered_; }

  /// Schedule points offered to the first phase, summed over all cycles.
  [[nodiscard]] std::uint64_t schedule_points_offered() const { return schedule_points_offered_; }

  /// The deepest any node's ready set has been.
  [[nodiscard]] std::size_t ready_depth_max() const;

  /// Recomputes each workflow's frontier, per-state counts and queue
  /// membership from its task states. Returns the first mismatch with the
  /// incrementally kept bookkeeping, or "" when they agree. O(all tasks).
  [[nodiscard]] std::string audit_bookkeeping() const;

 private:
  friend class SystemDispatchContext;

  /// One home's workflows with a non-empty frontier, in workflow-id order -
  /// the only workflows a scheduling cycle visits. Activation appends to
  /// `arrivals`; the next visit drops workflows whose frontier emptied and
  /// merges the arrivals in, so a cycle costs O(active + arrivals log
  /// arrivals) however deep the home's backlog of in-flight workflows is.
  struct HomeQueue {
    std::vector<WorkflowId> active;
    std::vector<WorkflowId> arrivals;
  };

  // --- scheduling phases ---
  void schedule_home(NodeId home);
  /// Centralized full-ahead planning: plans every not-yet-planned workflow
  /// (all homes) onto the single shared planner.
  void ensure_full_ahead_plan();
  /// Dispatches one schedulable task of a full-ahead workflow to its planned
  /// node (with a fallback when the planned node departed).
  void dispatch_planned_task(WorkflowInstance& wf, TaskIndex task);
  /// Dispatches every currently schedulable task of a full-ahead workflow.
  void dispatch_planned_ready(WorkflowInstance& wf);
  void dispatch_task(WorkflowInstance& wf, TaskIndex task, NodeId target, double rpm,
                     double makespan, double slack, double sufferage);
  void deliver_dispatch(TaskRef ref, NodeId target, grid::ReadyTask ready);
  /// Starts (or, after a source failure, restarts from home) one input
  /// transfer for a dispatched task. `attempt` counts link-failure retries of
  /// this particular (source, mb) input; see SystemConfig::transfer_retry.
  void start_input_transfer(TaskRef ref, NodeId target, NodeId source, double mb,
                            int attempt = 0);
  /// Message-level gossip only: pulls dispatched/running tasks back to the
  /// schedule-point set when the home's failure detector declared their
  /// executor dead (dispatch re-offer; runs each scheduling cycle).
  void reoffer_suspect_tasks();
  void try_start_task(NodeId node);
  void on_task_complete(NodeId node);
  void on_task_finished_at_home(TaskRef ref, SimTime finished_at);
  void fail_task(TaskRef ref, const char* reason);

  // --- churn handling ---
  void handle_leave(NodeId n);
  void handle_join(NodeId n);
  /// Up to kBootstrapContacts random alive nodes other than `exclude`.
  std::vector<NodeId> bootstrap_contacts(NodeId exclude);

  // --- rescheduling extension (reschedule.cpp) ---
  void recover_failed_tasks();
  void recover_task(WorkflowInstance& wf, TaskIndex task, int depth);
  /// Precedents of `task` the home node does not (yet) know finished.
  [[nodiscard]] int unfinished_pred_count(const WorkflowInstance& wf, TaskIndex task) const;

  // --- task state machine ---
  /// The single place a task changes state: checks the transition, keeps
  /// the workflow's per-state counts and frontier, and queues the workflow
  /// at its home when its frontier becomes non-empty.
  void set_state(WorkflowInstance& wf, TaskIndex task, TaskState to);
  /// The home's active workflows, compacted and in id order.
  const std::vector<WorkflowId>& active_workflows(NodeId home);
  /// Every home's active workflows, in id order (full-ahead cycles).
  std::vector<WorkflowId> all_active_workflows();

  // --- helpers ---
  [[nodiscard]] bool alive(NodeId n) const {
    return alive_[static_cast<std::size_t>(n.get())] != 0;
  }
  [[nodiscard]] double control_latency(NodeId a, NodeId b) const;
  [[nodiscard]] TaskEstimateInputs estimate_inputs(const WorkflowInstance& wf,
                                                   TaskIndex task) const;
  void sample_cycle();

  sim::Engine& engine_;
  const net::Topology& topo_;
  const net::Routing& routing_;
  const net::LandmarkEstimator& landmarks_;
  Algorithm algorithm_;
  SystemConfig config_;
  MetricsSink* sink_;
  sim::FaultPlan* faults_;
  util::Rng rng_;

  std::vector<grid::GridNode> nodes_;
  /// Liveness, one byte per node (1 = up). The gossip service and the churn
  /// model read it through spans; only handle_leave and handle_join write it.
  std::vector<std::uint8_t> alive_;
  std::vector<WorkflowInstance> workflows_;
  std::vector<HomeQueue> home_queues_;

  std::unique_ptr<gossip::MixedGossipService> gossip_;
  std::unique_ptr<grid::TransferManager> transfers_;
  std::unique_ptr<grid::ChurnModel> churn_;
  std::unique_ptr<sim::PeriodicProcess> scheduler_;

  ReadyComparator ready_better_;
  /// Full-ahead algorithms only.
  FullAheadPlanner planner_;
  Assignment plan_;
  std::size_t planned_count_ = 0;  ///< workflows_[0..planned_count_) are planned

  /// Completion event of each node's running task (for churn aborts).
  std::vector<sim::EventQueue::Handle> running_event_;
  /// In-flight input transfer ids per dispatched task (for failure cleanup).
  std::unordered_map<TaskRef, std::vector<std::uint64_t>> task_transfers_;

  dag::AverageEstimates true_averages_;
  sim::Trace trace_;
  std::uint64_t arrival_seq_ = 0;
  std::size_t finished_workflows_ = 0;
  std::uint64_t tasks_dispatched_ = 0;
  std::uint64_t tasks_failed_ = 0;
  std::uint64_t tasks_rescheduled_ = 0;
  std::uint64_t tasks_reoffered_ = 0;
  std::uint64_t schedule_points_offered_ = 0;
  /// Offered during the current cycle (reported by sample_cycle).
  std::size_t cycle_schedule_points_ = 0;
  std::size_t cycle_active_workflows_ = 0;
  bool started_ = false;
};

}  // namespace dpjit::core
