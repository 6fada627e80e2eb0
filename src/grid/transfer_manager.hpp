// Data movement between peer nodes, behind the net::NetworkModel seam.
//
// Three network modes (see net/network_model.hpp for the mode matrix):
//  - kBottleneck (default, matches the paper's evaluation): a transfer takes
//    latency(path) + size / bottleneck-bandwidth(path); transfers do not
//    contend with each other.
//  - kFluidFair (ablation): live fluid model where concurrent transfers
//    crossing a link share it max-min fairly (SimGrid-style progressive
//    filling). Rates are re-solved incrementally through net::FairShareSolver
//    whenever a flow starts or ends: only the affected bottleneck component
//    is recomputed, and churn-driven mass teardown (node_left) removes every
//    doomed flow with a single batched re-solve. A flow whose path crosses a
//    saturated/zero-capacity link gets rate 0 and can never complete; such
//    flows are aborted immediately instead of stalling forever. The next
//    completion event is armed from an incremental CompletionIndex (projected
//    absolute finish times, re-keyed only for the flows each component
//    re-solve actually updated) instead of a per-event O(active) scan.
//    Machinery: models/fluid_fair.cpp.
//  - kQuantisedFair: epoch-quantised max-min fair sharing, the
//    lookahead-compatible contended mode (ROADMAP item 1). Rates are
//    re-solved ONLY at epoch barriers and frozen in between; flows finishing
//    their propagation phase queue as pending joins and enter the solver at
//    the next barrier; remaining volume is advanced LAZILY once per epoch
//    (one pass per barrier, not O(flows) per mutation like the fluid mode's
//    eager advance - ROADMAP item 3 residue, fixed here for this mode only);
//    a flow that drains in an epoch is delivered two barriers after that
//    epoch's start. Aborts (churn, link failure, task failure) fire
//    immediately and leave the solver at once, but the frozen rates of
//    surviving flows do not move until the next barrier. The manager
//    schedules NO completion events in this mode - run_quantised() owns the
//    clock. Machinery: models/quantised_fair.cpp.
//
// Both contended modes release pooled flows - deliveries, aborts, churn and
// link teardown - through one batch (resolve_batch); the modes differ only
// in the fluid-only steps around it (clock advance, rate re-application and
// stall guard, completion re-arming).
//
// The manager also answers the live-rate oracle queries: what-if
// transfer-rate and transfer-time probes against the live network, consumed
// by the contention-aware scheduling policies (see rate_oracle.hpp). Every
// contended estimate goes through expected_transfer_time_s. Contended-mode
// probes are memoized per (src, dst) pair in an epoch-keyed cache: a cached
// rate is valid exactly while the solver's mutation stamp, the manager's
// link-state stamp AND (quantised mode) the epoch barrier stamp all stand
// still, which holds for an entire scheduling cycle (the engine runs no flow
// events mid-cycle), so every home node's ranking pass shares one component
// solve per pair instead of paying O(component) per candidate. Invalidation
// is by stamp comparison only - cached answers are bit-identical to fresh
// probes by construction, and a sampled debug assert plus the probe_cache
// differential test hold the cache to that.
//
// Transfers abort with success=false when either endpoint leaves the system,
// or - when path tracking is on - when a link on their recorded route fails
// (link_state_changed). The grid layer's retry policy decides what happens
// next; the manager itself never re-routes an in-flight transfer.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "grid/completion_index.hpp"
#include "net/flow_sharing.hpp"
#include "net/network_model.hpp"
#include "net/routing.hpp"
#include "sim/engine.hpp"

namespace dpjit::grid {

class TransferManager {
 public:
  /// The network-model seam: behaviour is selected per net/network_model.hpp.
  using Mode = net::NetworkMode;

  /// Completion callback: success=false means the transfer was aborted.
  /// Move-only (fired at most once); small captures stay allocation-free.
  using CompletionFn = sim::InlineFunction<void(bool success)>;

  /// `track_paths` records the routed path of bottleneck-mode transfers so
  /// link_state_changed can find them; contended modes always record paths.
  /// Off by default: the path walk is pure overhead without a fault plan.
  TransferManager(sim::Engine& engine, const net::Topology& topo, const net::Routing& routing,
                  Mode mode = Mode::kBottleneck, bool track_paths = false);

  /// Starts a transfer of `size_mb` megabits from src to dst; the callback
  /// fires (asynchronously) on delivery or abort. Loopback (src == dst)
  /// transfers complete after zero delay. Returns a transfer id.
  std::uint64_t start(NodeId src, NodeId dst, double size_mb, CompletionFn on_done);

  /// Aborts every in-flight transfer with an endpoint at `n` (node departure).
  /// In contended modes all doomed flows leave the pool with one batched rate
  /// re-solve (id-ascending callback order); under quantised fairness the
  /// surviving flows' frozen rates still only move at the next barrier.
  void node_left(NodeId n);

  /// Aborts one transfer by id; false if already completed.
  bool abort(std::uint64_t id);

  /// A topology link failed (up=false) or recovered (up=true). On failure,
  /// every in-flight transfer whose recorded route crosses the link aborts
  /// (success=false, id-ascending order). Recovery only invalidates the probe
  /// cache: routes are fixed at start() time, so surviving transfers keep
  /// theirs, but future probes see the rerouted paths. Call AFTER
  /// Routing::set_link_state so retries and probes route around the failure.
  void link_state_changed(LinkId l, bool up);

  /// Transfers aborted by link failures (observability for fault scenarios).
  [[nodiscard]] std::uint64_t link_aborts() const { return link_aborts_; }

  [[nodiscard]] std::size_t active_count() const { return flows_.size(); }
  [[nodiscard]] std::uint64_t completed_count() const { return completed_; }
  [[nodiscard]] double total_delivered_mb() const { return delivered_mb_; }

  // --- quantised-fair barrier loop (models/quantised_fair.cpp) --------------
  // Only valid in Mode::kQuantisedFair.

  /// Drives the engine to `horizon` through epoch barriers at t = 0, E, 2E,
  /// ... <= horizon: at each, the engine runs to t, last barrier's drains
  /// are delivered in (finish_s, id) order, the epoch that just ended is
  /// integrated at the frozen rates, and quantised_barrier() runs. Then the
  /// engine runs on to `horizon`.
  void run_quantised(double epoch_s, SimTime horizon);

  /// Executes one epoch barrier at the engine's current time: delivers
  /// zero-size pending joins, admits the rest to the solver, re-freezes every
  /// active flow's rate and aborts barrier-stalled (zero-rate) flows. Bumps
  /// the barrier stamp the probe cache keys on. Tests call it directly.
  void quantised_barrier();

  /// Barriers executed so far: the probe-cache epoch key in quantised mode,
  /// and ExperimentResult::quantised_barriers.
  [[nodiscard]] std::uint64_t barrier_stamp() const { return barrier_stamp_; }

  // --- live-rate oracle (see rate_oracle.hpp) ------------------------------

  /// Rate a new src->dst transfer would get right now. Bottleneck mode: the
  /// routed path's bottleneck bandwidth (flows never contend). Contended
  /// modes: a side-effect-free what-if probe of the incremental max-min
  /// solver against the current in-flight flow set, memoized per pair until
  /// the next solver mutation, link-state change or (quantised) epoch
  /// barrier (see the class comment).
  [[nodiscard]] double predicted_rate_mbps(NodeId src, NodeId dst) const;

  /// latency(path) + size_mb / predicted_rate_mbps. 0 for loopback; +inf for
  /// unreachable pairs and saturated (zero-rate) paths. In contended modes
  /// this extrapolates the instantaneous allocation over the whole transfer.
  [[nodiscard]] double expected_transfer_time_s(NodeId src, NodeId dst, double size_mb) const;

  /// The pre-cache probe path: routes and solves on every call, never reads
  /// or writes the cache. This is the reference the cached answer must match
  /// bit-for-bit; exposed for the differential tests, not for schedulers.
  [[nodiscard]] double predicted_rate_mbps_uncached(NodeId src, NodeId dst) const;

  /// The legacy probe path: routes and then re-runs the progressive fill from
  /// scratch (FairShareSolver::probe_rate_reference), bypassing both the pair
  /// cache and the solver's fill-record replay: what every probe cost
  /// prior to the cache layers, kept as the differential anchor of
  /// fluid_differential_test.
  [[nodiscard]] double predicted_rate_mbps_reference(NodeId src, NodeId dst) const;

  /// Contended-mode probes answered from the cache / answered by a fresh
  /// solve since construction (observability for tests and perfbench).
  [[nodiscard]] std::uint64_t probe_cache_hits() const { return probe_cache_hits_; }
  [[nodiscard]] std::uint64_t probe_cache_misses() const { return probe_cache_misses_; }

  /// Contended-mode solver mutations that resumed a component's recorded
  /// fill / that re-solved from scratch (see net::FairShareSolver). Probes
  /// move the split too: a probe may record a component, so its next
  /// mutation resumes.
  [[nodiscard]] std::uint64_t solver_resumed() const { return solver_.resumed_solves(); }
  [[nodiscard]] std::uint64_t solver_full() const { return solver_.full_solves(); }

 private:
  struct Flow {
    std::uint64_t id = 0;
    NodeId src;
    NodeId dst;
    double size_mb = 0.0;
    double remaining_mb = 0.0;
    double rate_mbps = 0.0;      ///< current allocated rate (contended modes)
    std::vector<LinkId> links;   ///< route (contended always; bottleneck when tracked)
    CompletionFn on_done;
    /// Bottleneck-mode completion / contended-mode latency-phase event.
    /// Cleared (kInvalidHandle) the moment the latency phase ends so no later
    /// path can cancel a stale, potentially reused handle.
    sim::EventQueue::Handle event = sim::EventQueue::kInvalidHandle;
    bool latency_pending = false;  ///< contended: still in propagation delay
    bool fluid = false;            ///< contended: joined the (fluid/frozen) pool
    /// Quantised: propagation done, waiting for the next barrier to be
    /// admitted to the solver.
    bool join_pending = false;
    /// CompletionIndex slab slot from the last upsert, passed back as a hint
    /// to skip the id hash lookup on re-key. Stale values are safe: the index
    /// validates the hint against the flow id before trusting it.
    std::uint32_t ci_slot = CompletionIndex::kNoSlot;
    /// Index in pool_ while `fluid` (swap-erase keeps it in sync).
    std::uint32_t pool_slot = 0;
  };

  /// Remaining volume below this is considered delivered (numerical slack).
  /// One definition for every mode: the quantised integration must agree with
  /// the fluid pool on what "drained" means or the epoch->0 convergence breaks.
  static constexpr double kEpsilonMb = 1e-9;

  void finish(std::uint64_t id, bool success);
  /// The one release path of the contended modes: resolves a batch of flows
  /// (completion or abort, in the given order) with one batched solver
  /// removal, stats and erase, then fires the callbacks. Fluid mode also
  /// advances the fluid clock first, applies the re-solved rates with the
  /// stall guard, and re-arms the completion event; quantised mode leaves the
  /// surviving flows' frozen rates until the next barrier.
  void resolve_batch(const std::vector<std::uint64_t>& ids, bool success);
  /// Marks the flow fluid and appends it to pool_.
  void join_pool(Flow& flow);
  /// Erases a flow, swap-erasing it from pool_ first when it is fluid.
  void erase_flow(std::unordered_map<std::uint64_t, Flow>::iterator it);

  // --- fluid-fair machinery (models/fluid_fair.cpp) ---
  void fair_flow_started(std::uint64_t id);
  /// Integrates remaining_mb of every fluid flow up to engine time. The
  /// eager O(flows)-per-mutation advance is fluid-mode only; quantised mode
  /// advances lazily at epoch barriers (ROADMAP item 3).
  void fair_advance_to_now();
  /// Pulls solver_.updated() into the flows' rate_mbps and re-keys their
  /// next-completion projections (the only entries a component re-solve can
  /// invalidate; every other flow's projected finish is unchanged while its
  /// rate is).
  void fair_apply_updated_rates();
  /// Zero-rate stall guard: aborts any fluid flow the last re-solve left
  /// with rate <= 0 (saturated/zero-capacity link) - such a flow can never
  /// complete and no completion event could be armed for it.
  void fair_abort_stalled();
  void fair_schedule_next_completion();
  /// The armed completion event: delivers every flow that crossed the line.
  void fair_tick();

  // --- quantised-fair machinery (models/quantised_fair.cpp) ---
  /// Propagation phase over: queue the flow for admission at the next barrier.
  void quantised_flow_ready(std::uint64_t id);
  /// Advances every pool flow over [epoch_start, epoch_start + epoch_s) at
  /// its frozen rate; flows that drain are queued in drained_.
  void quantised_integrate(SimTime epoch_start, double epoch_s);

  sim::Engine& engine_;
  const net::Topology& topo_;
  const net::Routing& routing_;
  Mode mode_;
  bool track_paths_;
  // --- contended-mode probe cache (see class comment). Keyed
  // (src << 32 | dst); valid while (solver mutation stamp, manager link
  // stamp, barrier stamp) all match the values captured when the cache was
  // last cleared. `mutable`: the probes are const and the cache is pure
  // memoization - by the solver's probe-purity invariant a hit and a
  // fresh probe are indistinguishable.
  mutable std::unordered_map<std::uint64_t, double> probe_cache_;
  mutable std::uint64_t probe_cache_solver_stamp_ = 0;
  mutable std::uint64_t probe_cache_link_stamp_ = 0;
  mutable std::uint64_t probe_cache_barrier_stamp_ = 0;
  mutable std::uint64_t probe_cache_hits_ = 0;
  mutable std::uint64_t probe_cache_misses_ = 0;
  /// Bumped by link_state_changed for BOTH directions: Routing reroutes on
  /// failure and recovery alike, so cached paths go stale either way.
  std::uint64_t link_stamp_ = 0;
  std::unordered_map<std::uint64_t, Flow> flows_;
  /// The fluid flows of flows_, densely: the per-mutation passes (fluid
  /// advance, completion sweep, barrier integration) iterate this instead of
  /// a map that also holds every latency-phase and loopback flow. Order is
  /// arbitrary; every consumer either updates flows independently or sorts.
  std::vector<Flow*> pool_;
  net::FairShareSolver solver_;
  /// Fluid mode: projected absolute finish per fluid flow, min-heap-ordered.
  CompletionIndex next_completion_;
  /// Arming scratch: ids tied at the index minimum (usually exactly one).
  std::vector<std::uint64_t> tie_scratch_;
  std::uint64_t next_id_ = 1;
  std::uint64_t completed_ = 0;
  std::uint64_t link_aborts_ = 0;
  double delivered_mb_ = 0.0;
  sim::EventQueue::Handle fair_event_ = sim::EventQueue::kInvalidHandle;
  bool fair_event_armed_ = false;
  SimTime fair_clock_ = 0.0;
  // --- quantised-fair state ---
  /// Flows whose propagation finished since the last barrier (may hold stale
  /// ids of flows aborted before admission; admission re-checks).
  std::vector<std::uint64_t> pending_joins_;
  /// (finish_s, id) of the flows that drained in the last integrated epoch,
  /// sorted; delivered at the next barrier.
  std::vector<std::pair<SimTime, std::uint64_t>> drained_;
  /// Epoch barriers executed; part of the probe-cache key in quantised mode.
  std::uint64_t barrier_stamp_ = 0;
};

}  // namespace dpjit::grid
