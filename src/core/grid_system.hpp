// GridSystem: the fully decentralized P2P grid with dual-phase just-in-time
// workflow scheduling (paper Sections II-III).
//
// Wires together the substrates:
//   - sim::Engine            discrete-event clock,
//   - net::Topology/Routing  the Brite/Waxman WAN,
//   - net::LandmarkEstimator bandwidth estimation,
//   - gossip::MixedGossipService   RSS maintenance + global averages,
//   - grid::GridNode/TransferManager/ChurnModel  node runtime,
//   - core policies (registry)     the scheduling algorithms.
//
// Task lifecycle: Waiting -> Schedulable (all precedents finished)
//   -> Dispatched (phase 1 chose a resource node; image+data transfers run)
//   -> Running (phase 2 picked it when the CPU freed and inputs arrived)
//   -> Finished (home node notified; successors may become Schedulable)
//   or -> Failed (resource node churned away / input source lost).
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/metrics_sink.hpp"
#include "core/policy_registry.hpp"
#include "dag/workflow.hpp"
#include "grid/churn.hpp"
#include "grid/grid_node.hpp"
#include "grid/transfer_manager.hpp"
#include "gossip/mixed_gossip.hpp"
#include "net/landmark.hpp"
#include "sim/trace.hpp"

namespace dpjit::core {

/// Partition of a routed network's nodes into contiguous shard blocks, plus
/// the conservative-lookahead bounds the sharded PDES loop (sim::ShardEngine)
/// needs. Produced by compute_shard_map / GridSystem::shard_map.
///
/// `lookahead_s` is the minimum routed latency between any two nodes living
/// in DIFFERENT shards: a conservative time window of at most this length
/// guarantees no cross-shard message can land inside the window it was sent
/// from. `min_latency_s` is the minimum over ALL distinct pairs — the
/// lookahead of the finest possible partition (every node its own shard) and
/// therefore a window bound that is valid for EVERY shard count at once,
/// which is what the byte-identical-digests-at-any-shard-count guarantee of
/// the scale scenarios is built on. A zero lookahead (zero-latency link
/// between shards) means the partition is not conservatively shardable;
/// callers must fall back to fewer shards or clamp delays (see
/// exp::run_scale_model).
struct ShardMap {
  int shards = 1;
  int nodes = 0;
  /// shard -> [begin, end) contiguous node-id block.
  std::vector<std::pair<int, int>> ranges;
  /// node -> owning shard.
  std::vector<int> shard_of;
  /// Min latency between nodes in different shards (+inf when shards == 1).
  double lookahead_s = 0.0;
  /// Min latency over all distinct node pairs (+inf when nodes < 2).
  double min_latency_s = 0.0;

  [[nodiscard]] int shard(NodeId n) const { return shard_of[static_cast<std::size_t>(n.get())]; }
};

/// Partitions the routing's nodes into `shards` near-equal contiguous blocks
/// and derives the lookahead bounds from the routed latencies. `shards` is
/// clamped to [1, node_count]. O(n^2) latency scan.
[[nodiscard]] ShardMap compute_shard_map(const net::Routing& routing, int shards);

/// The quantised-fair epoch a run uses: `requested_s` when positive,
/// otherwise max(map.min_latency_s, 60 s). The 60 s floor keeps WAN
/// topologies (sub-millisecond routed latencies) from degenerating into
/// millions of near-empty barriers.
[[nodiscard]] double derive_quantised_epoch(const ShardMap& map, double requested_s);

/// Runtime state of one task instance.
enum class TaskState {
  kWaiting,      ///< some precedent unfinished
  kSchedulable,  ///< schedule point: all precedents finished, not yet dispatched
  kDispatched,   ///< sent to a resource node (in its ready set or in transit)
  kRunning,      ///< executing
  kFinished,     ///< completed
  kFailed,       ///< lost to churn (terminal unless rescheduling is enabled)
};

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
  std::size_t finished_tasks = 0;
  std::size_t failed_tasks = 0;

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
  /// Exponential backoff: attempt k waits min(cap, base * 2^k) seconds.
  double backoff_base_s = 30.0;
  double backoff_cap_s = 1800.0;
};

/// System-level knobs (workload knobs live in exp::WorkloadFactory).
struct SystemConfig {
  /// Scheduler activation period (paper: 15 minutes).
  double scheduling_interval_s = 900.0;
  /// First scheduler activation; gives gossip a short warm-up (3 cycles).
  double first_schedule_at_s = 900.0;
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
  /// Contacts handed to a (re)joining node, emulating a bootstrap server.
  int bootstrap_contacts = 4;
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
  [[nodiscard]] const dag::AverageEstimates& true_averages() const { return true_averages_; }
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

 private:
  friend class SystemDispatchContext;

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
  std::vector<NodeId> random_alive_contacts(int count, NodeId exclude);

  // --- rescheduling extension (reschedule.cpp) ---
  void recover_failed_tasks();
  void recover_task(WorkflowInstance& wf, TaskIndex task, int depth);
  /// Precedents of `task` the home node does not (yet) know finished.
  [[nodiscard]] int unfinished_pred_count(const WorkflowInstance& wf, TaskIndex task) const;

  // --- helpers ---
  [[nodiscard]] std::vector<TaskIndex> schedule_points(const WorkflowInstance& wf) const;
  [[nodiscard]] double control_latency(NodeId a, NodeId b) const;
  [[nodiscard]] double estimate_bandwidth(NodeId a, NodeId b, NodeId believer) const;
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
  std::vector<WorkflowInstance> workflows_;
  std::vector<std::vector<WorkflowId>> home_workflows_;

  std::unique_ptr<gossip::MixedGossipService> gossip_;
  std::unique_ptr<grid::TransferManager> transfers_;
  std::unique_ptr<grid::ChurnModel> churn_;
  std::unique_ptr<sim::PeriodicProcess> scheduler_;

  std::unique_ptr<FirstPhasePolicy> first_phase_;
  std::unique_ptr<ReadyQueuePolicy> second_phase_;
  std::unique_ptr<FullAheadPlanner> planner_;
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
  bool started_ = false;
};

}  // namespace dpjit::core
