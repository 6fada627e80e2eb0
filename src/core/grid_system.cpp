#include "core/grid_system.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "core/rpm.hpp"
#include "dag/critical_path.hpp"
#include "net/routing.hpp"

namespace dpjit::core {


// ---------------------------------------------------------------------------
// Shard mapping for the conservative time-window PDES loop.
// ---------------------------------------------------------------------------

ShardMap compute_shard_map(const net::Routing& routing, int shards) {
  const int n = routing.node_count();
  ShardMap map;
  map.nodes = n;
  map.shards = std::clamp(shards, 1, std::max(1, n));
  map.shard_of.assign(static_cast<std::size_t>(std::max(0, n)), 0);

  // Near-equal contiguous blocks: the first (n % shards) blocks get one extra
  // node. Contiguity matters because callers lay out co-located entities
  // (e.g. the scale model's regions) on consecutive ids.
  const int base = map.shards > 0 ? n / map.shards : 0;
  const int extra = map.shards > 0 ? n % map.shards : 0;
  int begin = 0;
  for (int s = 0; s < map.shards; ++s) {
    const int size = base + (s < extra ? 1 : 0);
    map.ranges.emplace_back(begin, begin + size);
    for (int u = begin; u < begin + size; ++u) {
      map.shard_of[static_cast<std::size_t>(u)] = s;
    }
    begin += size;
  }

  // Lookahead bounds from the routed latencies. The matrix is symmetric in
  // practice (undirected links), but scan ordered pairs anyway: correctness
  // must not depend on that.
  map.lookahead_s = kInf;
  map.min_latency_s = kInf;
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      if (u == v) continue;
      const double lat = routing.latency_s(NodeId{u}, NodeId{v});
      map.min_latency_s = std::min(map.min_latency_s, lat);
      if (map.shard_of[static_cast<std::size_t>(u)] != map.shard_of[static_cast<std::size_t>(v)]) {
        map.lookahead_s = std::min(map.lookahead_s, lat);
      }
    }
  }
  return map;
}

double derive_quantised_epoch(const ShardMap& map, double requested_s) {
  if (requested_s > 0.0) return requested_s;
  constexpr double kFloorS = 60.0;
  if (!std::isfinite(map.min_latency_s)) return kFloorS;  // < 2 nodes
  return std::max(map.min_latency_s, kFloorS);
}

// ---------------------------------------------------------------------------
// DispatchContext implementation backed by the live system.
// ---------------------------------------------------------------------------

class SystemDispatchContext final : public DispatchContext {
 public:
  SystemDispatchContext(GridSystem& sys, NodeId home, dag::AverageEstimates averages)
      : sys_(sys), home_(home), averages_(averages) {
    // Working copy of RSS(p_s): the gossiped entries plus the home node itself
    // with its true local state (a node always knows itself).
    const auto& view = sys_.gossip_->rss(home);
    resources_.reserve(view.size() + 1);
    const auto& self = sys_.nodes_[static_cast<std::size_t>(home.get())];
    resources_.push_back(gossip::ResourceEntry{home, self.total_load_mi(sys_.engine_.now()),
                                               self.capacity_mips(), sys_.engine_.now(),
                                               0});
    // Message-level gossip: never offer work to a peer this home believes
    // dead. (The view forgets declared-dead peers at the cycle sweep, so this
    // only filters beliefs formed since; the suspect state is NOT filtered -
    // suspects may well be alive, and the re-offer pass handles the fallout.)
    const auto* detector = sys_.gossip_->detector();
    for (const auto& e : view.entries()) {
      if (detector != nullptr && detector->believes_dead(home, e.node)) continue;
      resources_.push_back(e);
    }

    // Pending workflows with schedule points, RPM and ms under the home's
    // believed averages (Algorithm 1 lines 2-7).
    for (WorkflowId id : sys_.home_workflows_[static_cast<std::size_t>(home.get())]) {
      auto& wf = sys_.workflows_[static_cast<std::size_t>(id.get())];
      if (wf.done()) continue;
      const auto sps = sys_.schedule_points(wf);
      if (sps.empty()) continue;
      const auto rpm = rest_path_makespans(wf.dag, averages_);
      PendingWorkflow pending;
      pending.wf = id;
      pending.makespan = remaining_makespan(rpm, sps);
      for (TaskIndex t : sps) {
        CandidateTask c;
        c.ref = TaskRef{id, t};
        c.load_mi = wf.dag.task(t).load_mi;
        c.rpm = rpm[static_cast<std::size_t>(t.get())];
        c.wf_makespan = pending.makespan;
        c.slack = pending.makespan - c.rpm;
        c.inputs = sys_.estimate_inputs(wf, t);
        pending.tasks.push_back(std::move(c));
      }
      pending_.push_back(std::move(pending));
    }
  }

  [[nodiscard]] SimTime now() const override { return sys_.engine_.now(); }
  [[nodiscard]] NodeId home() const override { return home_; }
  [[nodiscard]] std::vector<gossip::ResourceEntry>& resources() override { return resources_; }
  [[nodiscard]] const std::vector<PendingWorkflow>& pending() const override { return pending_; }

  [[nodiscard]] double finish_time(const CandidateTask& task,
                                   const gossip::ResourceEntry& resource) const override {
    return estimate_finish_time(task.inputs, resource, bandwidth_fn()).finish_s;
  }

  [[nodiscard]] double exec_time(const CandidateTask& task,
                                 const gossip::ResourceEntry& resource) const override {
    return execution_time_s(task.load_mi, resource);
  }

  [[nodiscard]] double finish_time_contended(const CandidateTask& task,
                                             const gossip::ResourceEntry& resource) const override {
    // Live-oracle LTD: the TransferManager answers what each input transfer
    // would cost if it started now (in fair-sharing mode a what-if probe of
    // the max-min solver; in bottleneck mode the true routed path rate).
    prefill_oracle_cache();
    TransferTimeFn oracle_fn = [this](NodeId from, NodeId to, double mb) {
      return oracle_transfer_time(from, to, mb);
    };
    return estimate_finish_time(task.inputs, resource, oracle_fn).finish_s;
  }

  void dispatch(const CandidateTask& task, NodeId target) override {
    auto& wf = sys_.workflows_[static_cast<std::size_t>(task.ref.workflow.get())];
    auto& rt = wf.tasks[static_cast<std::size_t>(task.ref.task.get())];
    if (rt.state != TaskState::kSchedulable) {
      throw std::logic_error("dispatch: task is not a schedule point (dispatched twice?)");
    }
    sys_.dispatch_task(wf, task.ref.task, target, task.rpm, task.wf_makespan, task.slack,
                       task.sufferage);
    // Algorithm 1 line 15: charge the dispatched load to the local RSS copy.
    for (auto& r : resources_) {
      if (r.node == target) {
        r.load_mi += task.load_mi;
        break;
      }
    }
  }

 private:
  static std::uint64_t pair_key(NodeId from, NodeId to) {
    const auto src_bits = static_cast<std::uint64_t>(static_cast<std::uint32_t>(from.get()));
    return (src_bits << 32) | static_cast<std::uint32_t>(to.get());
  }

  /// Fills the per-cycle cache with every (input location, resource) pair a
  /// contention-aware policy can ask about this cycle, through one batched
  /// RateOracle::probe_rates call. Lazy on the first contended estimate so
  /// static algorithms pay nothing; probes are side-effect-free, so prefilling
  /// pairs the policy never ends up ranking cannot change any answer.
  void prefill_oracle_cache() const {
    if (oracle_prefilled_) return;
    oracle_prefilled_ = true;
    std::vector<std::pair<NodeId, NodeId>> pairs;
    std::unordered_set<std::uint64_t> seen;
    for (const auto& wf : pending_) {
      for (const auto& t : wf.tasks) {
        for (const auto& in : t.inputs.inputs) {
          for (const auto& r : resources_) {
            if (in.location == r.node) continue;  // loopback: no probe needed
            if (seen.insert(pair_key(in.location, r.node)).second) {
              pairs.emplace_back(in.location, r.node);
            }
          }
        }
      }
    }
    const std::vector<double> rates = sys_.transfers_->probe_rates(pairs);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto [from, to] = pairs[i];
      oracle_cache_.emplace(pair_key(from, to),
                            std::pair<double, double>{sys_.routing_.latency_s(from, to), rates[i]});
    }
  }

  /// Oracle-backed transfer time with a per-cycle (src, dst) cache. The
  /// context lives for exactly one scheduling cycle and the engine processes
  /// no events while it runs, so the in-flight flow set - and therefore every
  /// oracle answer - is frozen: caching the (latency, rate) pair and redoing
  /// the `latency + mb / rate` arithmetic is bit-identical to re-probing,
  /// while collapsing the probe count from tasks x resources x inputs to the
  /// number of distinct node pairs.
  [[nodiscard]] double oracle_transfer_time(NodeId from, NodeId to, double mb) const {
    if (from == to) return 0.0;
    const std::uint64_t key = pair_key(from, to);
    auto it = oracle_cache_.find(key);
    if (it == oracle_cache_.end()) {
      const double latency = sys_.routing_.latency_s(from, to);
      const double rate = sys_.transfers_->predicted_rate_mbps(from, to);
      it = oracle_cache_.emplace(key, std::pair<double, double>{latency, rate}).first;
    }
    const auto [latency, rate] = it->second;
    return net::transfer_time_from_rate(latency, rate, mb);
  }

  [[nodiscard]] BandwidthEstimateFn bandwidth_fn() const {
    const double fallback = averages_.bandwidth_mbps;
    const auto* landmarks = &sys_.landmarks_;
    return [landmarks, fallback](NodeId a, NodeId b) {
      return landmarks->estimate_mbps(a, b, fallback);
    };
  }

  GridSystem& sys_;
  NodeId home_;
  dag::AverageEstimates averages_;
  std::vector<gossip::ResourceEntry> resources_;
  std::vector<PendingWorkflow> pending_;
  /// (src << 32 | dst) -> (latency_s, predicted rate) for this cycle.
  mutable std::unordered_map<std::uint64_t, std::pair<double, double>> oracle_cache_;
  mutable bool oracle_prefilled_ = false;
};

// ---------------------------------------------------------------------------
// Construction / submission
// ---------------------------------------------------------------------------

GridSystem::GridSystem(sim::Engine& engine, const net::Topology& topo,
                       const net::Routing& routing, const net::LandmarkEstimator& landmarks,
                       std::vector<double> capacities, Algorithm algorithm, SystemConfig config,
                       MetricsSink* sink, sim::FaultPlan* faults)
    : engine_(engine),
      topo_(topo),
      routing_(routing),
      landmarks_(landmarks),
      algorithm_(std::move(algorithm)),
      config_(config),
      sink_(sink),
      faults_(faults),
      rng_(config.seed) {
  const int n = topo.node_count();
  if (static_cast<int>(capacities.size()) != n) {
    throw std::invalid_argument("GridSystem: capacities size != node count");
  }
  nodes_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    nodes_.emplace_back(NodeId{i}, capacities[static_cast<std::size_t>(i)]);
  }
  home_workflows_.resize(static_cast<std::size_t>(n));
  running_event_.resize(static_cast<std::size_t>(n), sim::EventQueue::kInvalidHandle);

  double cap_sum = 0.0;
  for (double c : capacities) cap_sum += c;
  true_averages_.capacity_mips = cap_sum / static_cast<double>(n);
  // Deliberately the t=0 healthy-network mean: ranking weights stay stable
  // across link failures/repairs (see "Stale mean bandwidth" in
  // ARCHITECTURE.md for why this is the right average to rank against).
  true_averages_.bandwidth_mbps = std::max(routing.initial_mean_pair_bandwidth_mbps(), 1e-9);

  if (config_.churn.interval_s <= 0.0) config_.churn.interval_s = config_.scheduling_interval_s;

  auto rng_gossip = rng_.fork("gossip");
  gossip_ = std::make_unique<gossip::MixedGossipService>(
      engine_, config_.gossip, n,
      [this](NodeId id, double& load, double& cap) {
        const auto& node = nodes_[static_cast<std::size_t>(id.get())];
        load = node.total_load_mi(engine_.now());
        cap = node.capacity_mips();
      },
      [this](NodeId id) { return nodes_[static_cast<std::size_t>(id.get())].alive(); },
      [this](NodeId a, NodeId b) { return routing_.latency_s(a, b); },
      [this](NodeId id) { return landmarks_.local_mean_mbps(id); }, rng_gossip, faults_);

  // Path tracking only matters when link faults can happen; without a plan it
  // is pure overhead (and the seed behavior must stay untouched).
  transfers_ = std::make_unique<grid::TransferManager>(engine_, topo_, routing_,
                                                       config_.effective_network_mode(),
                                                       /*track_paths=*/faults_ != nullptr);

  churn_ = std::make_unique<grid::ChurnModel>(
      engine_, config_.churn, n, rng_.fork("churn"),
      [this](NodeId id) { return nodes_[static_cast<std::size_t>(id.get())].alive(); },
      [this](NodeId id) { handle_leave(id); }, [this](NodeId id) { handle_join(id); });

  if (algorithm_.make_first) first_phase_ = algorithm_.make_first();
  second_phase_ = algorithm_.make_second();
}

GridSystem::~GridSystem() = default;

WorkflowId GridSystem::submit(NodeId home, dag::Workflow wf) {
  if (!home.valid() || home.get() >= topo_.node_count()) {
    throw std::out_of_range("submit: invalid home node");
  }
  if (config_.churn.dynamic_factor > 0.0 && !churn_->is_stable(home)) {
    throw std::invalid_argument("submit: home nodes must be stable under churn (paper IV.B)");
  }
  wf.normalize();
  if (auto issues = wf.validate(); !issues.empty()) {
    throw std::invalid_argument("submit: invalid workflow: " + issues.front());
  }
  const WorkflowId id{static_cast<WorkflowId::underlying_type>(workflows_.size())};
  wf.set_id(id);

  WorkflowInstance inst;
  inst.id = id;
  inst.home = home;
  inst.dag = std::move(wf);
  inst.submit_time = engine_.now();
  inst.eft = dag::expected_finish_time(inst.dag, true_averages_);
  inst.tasks.resize(inst.dag.task_count());
  for (std::size_t t = 0; t < inst.dag.task_count(); ++t) {
    const TaskIndex ti{static_cast<TaskIndex::underlying_type>(t)};
    inst.tasks[t].unfinished_preds = static_cast<int>(inst.dag.predecessors(ti).size());
    if (inst.tasks[t].unfinished_preds == 0) inst.tasks[t].state = TaskState::kSchedulable;
  }
  workflows_.push_back(std::move(inst));
  home_workflows_[static_cast<std::size_t>(home.get())].push_back(id);
  return id;
}

void GridSystem::start() {
  if (started_) return;
  started_ = true;
  // Bootstrap membership (the role a rendezvous server plays in deployment).
  for (int i = 0; i < topo_.node_count(); ++i) {
    const NodeId id{i};
    if (nodes_[static_cast<std::size_t>(i)].alive()) {
      gossip_->node_joined(id, random_alive_contacts(config_.bootstrap_contacts, id));
    }
  }
  gossip_->start();
  churn_->start();
  scheduler_ = std::make_unique<sim::PeriodicProcess>(
      engine_, config_.first_schedule_at_s, config_.scheduling_interval_s,
      [this](std::uint64_t) { run_scheduling_cycle(); });
  scheduler_->start();

  // Full-ahead algorithms schedule *before execution starts* (Section IV.A):
  // plan everything now and stage the entry tasks immediately.
  if (algorithm_.full_ahead()) {
    ensure_full_ahead_plan();
    for (auto& wf : workflows_) dispatch_planned_ready(wf);
  }
}

void GridSystem::run() {
  start();
  if (config_.effective_network_mode() == net::NetworkMode::kQuantisedFair) {
    // The epoch-barrier loop owns the clock: it interleaves world epochs with
    // the frozen-rate flow integration (grid/models/quantised_fair.cpp).
    const double epoch =
        derive_quantised_epoch(compute_shard_map(routing_, 1), config_.quantised_epoch_s);
    transfers_->run_quantised(epoch, config_.horizon_s);
    return;
  }
  engine_.run_until(config_.horizon_s);
}

// ---------------------------------------------------------------------------
// Scheduling cycle (phase 1)
// ---------------------------------------------------------------------------

void GridSystem::run_scheduling_cycle() {
  // Re-offer before anything else: pulled-back tasks become schedule points
  // and are re-dispatched by the very same cycle.
  reoffer_suspect_tasks();
  if (config_.reschedule_failed) recover_failed_tasks();
  if (algorithm_.full_ahead()) {
    // Late submissions (and churn-rescheduled tasks) still go through the
    // cycle; the plan itself was made before execution started.
    ensure_full_ahead_plan();
    for (auto& wf : workflows_) dispatch_planned_ready(wf);
  } else {
    for (int i = 0; i < topo_.node_count(); ++i) {
      const NodeId home{i};
      if (!nodes_[static_cast<std::size_t>(i)].alive()) continue;
      if (home_workflows_[static_cast<std::size_t>(i)].empty()) continue;
      schedule_home(home);
    }
  }
  sample_cycle();
}

void GridSystem::reoffer_suspect_tasks() {
  const auto* detector = gossip_->detector();
  if (detector == nullptr) return;  // idealized gossip: membership is exact
  for (auto& wf : workflows_) {
    if (wf.done()) continue;
    if (!nodes_[static_cast<std::size_t>(wf.home.get())].alive()) continue;
    for (std::size_t t = 0; t < wf.tasks.size(); ++t) {
      auto& rt = wf.tasks[t];
      if (rt.state != TaskState::kDispatched && rt.state != TaskState::kRunning) continue;
      if (!rt.exec_node.valid() || rt.exec_node == wf.home) continue;
      if (!detector->believes_dead(wf.home, rt.exec_node)) continue;

      const TaskRef ref{wf.id, TaskIndex{static_cast<TaskIndex::underlying_type>(t)}};
      const TaskState old_state = rt.state;
      const NodeId exec = rt.exec_node;
      // Reset FIRST: the transfer aborts below fire their callbacks
      // synchronously, and those must see the task as already reclaimed
      // (the same ordering fail_task relies on).
      rt.state = TaskState::kSchedulable;
      rt.exec_node = NodeId{};
      rt.dispatched_at = kNoTime;
      rt.started_at = kNoTime;
      ++tasks_reoffered_;
      trace_.record(engine_.now(), sim::TraceKind::kReoffer, exec, ref, "executor suspected dead");

      // Cancel the work at the old executor. The suspicion may be FALSE - the
      // node can be alive and even running the task; the home's decision wins
      // (the duplicate-completion hazard is closed by the stale guards on
      // completion notifications and dispatch deliveries).
      auto& node = nodes_[static_cast<std::size_t>(exec.get())];
      if (node.alive()) {
        if (old_state == TaskState::kRunning) {
          if (node.running() != nullptr && node.running()->ref == ref) {
            node.abort_running();
            engine_.cancel(running_event_[static_cast<std::size_t>(exec.get())]);
            try_start_task(exec);  // the freed CPU can take other ready work
          }
        } else {
          node.remove_ready(ref);
        }
      }
      if (auto it = task_transfers_.find(ref); it != task_transfers_.end()) {
        const auto ids = it->second;
        task_transfers_.erase(it);
        for (auto tid : ids) transfers_->abort(tid);
      }
    }
  }
}

void GridSystem::schedule_home(NodeId home) {
  const auto believed = gossip_->averages(home);
  SystemDispatchContext ctx(
      *this, home, dag::AverageEstimates{believed.capacity_mips, believed.bandwidth_mbps});
  if (ctx.resources().empty()) return;  // Algorithm 1 line 9
  first_phase_->run(ctx);
}

void GridSystem::ensure_full_ahead_plan() {
  if (planned_count_ >= workflows_.size()) return;
  if (!planner_) planner_ = algorithm_.make_planner();
  // The oracle view the paper grants full-ahead baselines: every alive node
  // with its true state, true averages, true pairwise bandwidth.
  PlannerOracle oracle;
  for (int i = 0; i < topo_.node_count(); ++i) {
    const auto& node = nodes_[static_cast<std::size_t>(i)];
    if (!node.alive()) continue;
    oracle.nodes.push_back(gossip::ResourceEntry{NodeId{i}, node.total_load_mi(engine_.now()),
                                                 node.capacity_mips(), engine_.now(), 0});
  }
  oracle.averages = true_averages_;
  oracle.bandwidth = [this](NodeId a, NodeId b) { return routing_.bandwidth_mbps(a, b); };
  if (algorithm_.contended_planner) {
    // Contention-aware planning: charge transfers at the rate the live
    // network would allocate right now. Repeated pairs dedupe through the
    // TransferManager's epoch-keyed probe cache, so a whole planning batch
    // costs one component solve per distinct pair.
    oracle.transfer_time = [this](NodeId a, NodeId b, double mb) {
      return transfers_->expected_transfer_time_s(a, b, mb);
    };
  }
  std::vector<PlanRequest> requests;
  for (std::size_t k = planned_count_; k < workflows_.size(); ++k) {
    auto& wf = workflows_[k];
    requests.push_back(PlanRequest{wf.id, &wf.dag, wf.home, wf.eft});
  }
  planner_->plan(requests, oracle, plan_);
  planned_count_ = workflows_.size();
}

void GridSystem::dispatch_planned_ready(WorkflowInstance& wf) {
  if (wf.done()) return;
  for (TaskIndex t : schedule_points(wf)) dispatch_planned_task(wf, t);
}

void GridSystem::dispatch_planned_task(WorkflowInstance& wf, TaskIndex t) {
  const TaskRef ref{wf.id, t};
  const auto it = plan_.find(ref);
  assert(it != plan_.end() && "full-ahead task missing from plan");
  NodeId target = it->second;
  if (!nodes_[static_cast<std::size_t>(target.get())].alive()) {
    if (config_.reschedule_failed) {
      // Re-map to the alive node with the highest capacity-per-load (the
      // planner's timelines are stale by now anyway).
      NodeId best{};
      double best_score = -1.0;
      for (int i = 0; i < topo_.node_count(); ++i) {
        const auto& node = nodes_[static_cast<std::size_t>(i)];
        if (!node.alive()) continue;
        const double score = node.capacity_mips() / (1.0 + node.total_load_mi(engine_.now()));
        if (score > best_score) {
          best_score = score;
          best = NodeId{i};
        }
      }
      if (!best.valid()) return;
      target = best;
      plan_[ref] = best;
    } else {
      fail_task(ref, "planned node departed");
      return;
    }
  }
  const auto rpm = rest_path_makespans(wf.dag, true_averages_);
  const double ms = remaining_makespan(rpm, schedule_points(wf));
  const double r = rpm[static_cast<std::size_t>(t.get())];
  dispatch_task(wf, t, target, r, ms, ms - r, 0.0);
}

// ---------------------------------------------------------------------------
// Dispatch and data movement
// ---------------------------------------------------------------------------

void GridSystem::dispatch_task(WorkflowInstance& wf, TaskIndex task, NodeId target, double rpm,
                               double makespan, double slack, double sufferage) {
  auto& rt = wf.tasks[static_cast<std::size_t>(task.get())];
  assert(rt.state == TaskState::kSchedulable);
  rt.state = TaskState::kDispatched;
  rt.exec_node = target;
  rt.dispatched_at = engine_.now();
  ++tasks_dispatched_;

  const TaskRef ref{wf.id, task};
  trace_.record(engine_.now(), sim::TraceKind::kDispatch, target, ref);

  grid::ReadyTask ready;
  ready.ref = ref;
  ready.load_mi = wf.dag.task(task).load_mi;
  ready.rpm = rpm;
  ready.wf_makespan = makespan;
  ready.slack = slack;
  ready.sufferage = sufferage;

  const SimTime stamp = rt.dispatched_at;
  engine_.schedule_in(control_latency(wf.home, target), [this, ref, target, ready, stamp] {
    // Ignore stale deliveries (the task may have failed or been rescheduled).
    const auto& rt2 = workflows_[static_cast<std::size_t>(ref.workflow.get())]
                          .tasks[static_cast<std::size_t>(ref.task.get())];
    if (rt2.state != TaskState::kDispatched || rt2.exec_node != target ||
        rt2.dispatched_at != stamp) {
      return;
    }
    deliver_dispatch(ref, target, ready);
  });
}

void GridSystem::deliver_dispatch(TaskRef ref, NodeId target, grid::ReadyTask ready) {
  auto& wf = workflows_[static_cast<std::size_t>(ref.workflow.get())];
  auto& node = nodes_[static_cast<std::size_t>(target.get())];
  if (!node.alive()) {
    fail_task(ref, "target departed before task arrived");
    return;
  }

  // Collect the input transfers: dependent data from each precedent's
  // execution site plus the task image from the home node (step 8 in Fig. 1).
  // When a precedent's node departed and the home retains outputs (result
  // collection), the data is fetched from the home node instead.
  struct Src {
    NodeId from;
    double mb;
  };
  std::vector<Src> sources;
  for (TaskIndex p : wf.dag.predecessors(ref.task)) {
    const auto& prt = wf.tasks[static_cast<std::size_t>(p.get())];
    assert(prt.state == TaskState::kFinished);
    NodeId source = prt.exec_node;
    if (!nodes_[static_cast<std::size_t>(source.get())].alive()) {
      if (!config_.home_keeps_outputs) {
        fail_task(ref, "input data lost with departed node");
        return;
      }
      source = wf.home;
    }
    sources.push_back(Src{source, wf.dag.edge_data(p, ref.task)});
  }
  sources.push_back(Src{wf.home, wf.dag.task(ref.task).image_mb});

  ready.arrived_at = engine_.now();
  ready.arrival_seq = arrival_seq_++;
  ready.pending_inputs = static_cast<int>(sources.size());
  node.add_ready(ready);

  auto& ids = task_transfers_[ref];
  ids.clear();
  for (const Src& src : sources) {
    start_input_transfer(ref, target, src.from, src.mb);
  }
  (void)ids;
}

void GridSystem::start_input_transfer(TaskRef ref, NodeId target, NodeId source, double mb,
                                      int attempt) {
  const NodeId home = workflows_[static_cast<std::size_t>(ref.workflow.get())].home;
  trace_.record(engine_.now(), sim::TraceKind::kTransferStart, source, ref);
  const auto tid = transfers_->start(
      source, target, mb, [this, ref, target, source, mb, home, attempt](bool success) {
        auto& wf2 = workflows_[static_cast<std::size_t>(ref.workflow.get())];
        auto& rt2 = wf2.tasks[static_cast<std::size_t>(ref.task.get())];
        if (rt2.state != TaskState::kDispatched || rt2.exec_node != target) return;
        if (!success) {
          // Both endpoints alive means the path failed under the transfer (a
          // link went down): back off exponentially and retry - routing has
          // already been repaired around the failed link by the fault wiring.
          const auto& retry = config_.transfer_retry;
          if (retry.max_attempts > 0 && attempt < retry.max_attempts &&
              nodes_[static_cast<std::size_t>(source.get())].alive() &&
              nodes_[static_cast<std::size_t>(target.get())].alive()) {
            const double delay = std::min(retry.backoff_cap_s,
                                          retry.backoff_base_s * std::pow(2.0, attempt));
            const SimTime stamp = rt2.dispatched_at;
            engine_.schedule_in(delay, [this, ref, target, source, mb, home, attempt, stamp] {
              const auto& rt3 = workflows_[static_cast<std::size_t>(ref.workflow.get())]
                                    .tasks[static_cast<std::size_t>(ref.task.get())];
              // The task may have failed / been re-offered during the backoff.
              if (rt3.state != TaskState::kDispatched || rt3.exec_node != target ||
                  rt3.dispatched_at != stamp) {
                return;
              }
              if (!nodes_[static_cast<std::size_t>(source.get())].alive()) {
                // The source died while we were backing off: fall back to the
                // home copy (result collection) or give up.
                if (config_.home_keeps_outputs && source != home) {
                  start_input_transfer(ref, target, home, mb);
                } else {
                  fail_task(ref, "input transfer aborted");
                }
                return;
              }
              start_input_transfer(ref, target, source, mb, attempt + 1);
            });
            return;
          }
          // The source died mid-transfer. With result collection the data is
          // still available at the (stable) home node: restart from there.
          if (config_.home_keeps_outputs && source != home &&
              nodes_[static_cast<std::size_t>(target.get())].alive()) {
            start_input_transfer(ref, target, home, mb);
            return;
          }
          fail_task(ref, "input transfer aborted");
          return;
        }
        trace_.record(engine_.now(), sim::TraceKind::kTransferEnd, target, ref);
        auto* rd = nodes_[static_cast<std::size_t>(target.get())].find_ready(ref);
        if (rd == nullptr) return;  // defensive: vanished via churn cleanup
        if (--rd->pending_inputs == 0) {
          rd->data_ready_at = engine_.now();
          task_transfers_.erase(ref);
          try_start_task(target);
        }
      });
  task_transfers_[ref].push_back(tid);
}

// ---------------------------------------------------------------------------
// Phase 2: ready-set scheduling and execution
// ---------------------------------------------------------------------------

void GridSystem::try_start_task(NodeId id) {
  auto& node = nodes_[static_cast<std::size_t>(id.get())];
  if (!node.alive() || node.busy()) return;
  const auto candidates = node.data_complete();
  if (candidates.empty()) return;

  const std::size_t pick = second_phase_->select(candidates);  // Algorithm 2
  const TaskRef ref = candidates[pick]->ref;
  const double duration = node.start_running(ref, engine_.now());

  auto& wf = workflows_[static_cast<std::size_t>(ref.workflow.get())];
  auto& rt = wf.tasks[static_cast<std::size_t>(ref.task.get())];
  rt.state = TaskState::kRunning;
  rt.started_at = engine_.now();
  if (ref.task == wf.dag.entry() && wf.entry_started_at == kNoTime) {
    wf.entry_started_at = engine_.now();
  }
  trace_.record(engine_.now(), sim::TraceKind::kExecStart, id, ref);

  running_event_[static_cast<std::size_t>(id.get())] =
      engine_.schedule_in(duration, [this, id] { on_task_complete(id); });
}

void GridSystem::on_task_complete(NodeId id) {
  auto& node = nodes_[static_cast<std::size_t>(id.get())];
  const grid::ReadyTask done = node.finish_running();
  const TaskRef ref = done.ref;

  auto& wf = workflows_[static_cast<std::size_t>(ref.workflow.get())];
  auto& rt = wf.tasks[static_cast<std::size_t>(ref.task.get())];
  // Orphaned completion: the task was reclaimed (re-offer) or failed while
  // this event was in flight. Every reclaim path cancels the running event,
  // so this cannot fire in practice - but if it ever did, crediting the
  // completion would corrupt workflow progress. Just free the CPU.
  if (rt.state != TaskState::kRunning || rt.exec_node != id) {
    try_start_task(id);
    return;
  }
  rt.state = TaskState::kFinished;
  rt.finished_at = engine_.now();
  ++wf.finished_tasks;
  trace_.record(engine_.now(), sim::TraceKind::kExecEnd, id, ref);

  // Completion notification back to the home node (control message).
  const SimTime finished_at = engine_.now();
  engine_.schedule_in(control_latency(id, wf.home), [this, ref, finished_at] {
    on_task_finished_at_home(ref, finished_at);
  });

  try_start_task(id);
}

void GridSystem::on_task_finished_at_home(TaskRef ref, SimTime finished_at) {
  auto& wf = workflows_[static_cast<std::size_t>(ref.workflow.get())];
  if (wf.done()) return;
  auto& rt = wf.tasks[static_cast<std::size_t>(ref.task.get())];
  // Drop stale notifications: churn recovery may have demoted this task (its
  // output died with the execution node) between completion and this message
  // arriving at the home node; decrementing successor counts for a no-longer-
  // finished precedent would double-count once the re-execution completes.
  if (rt.state != TaskState::kFinished || rt.finished_at != finished_at) return;
  rt.finish_notified = true;

  // Successors whose precedents are now all finished become schedule points.
  // Just-in-time algorithms dispatch them at the next scheduling cycle;
  // full-ahead algorithms already decided the mapping before execution
  // started, so their tasks flow to the planned node immediately.
  for (TaskIndex s : wf.dag.successors(ref.task)) {
    auto& srt = wf.tasks[static_cast<std::size_t>(s.get())];
    if (srt.state != TaskState::kWaiting) continue;
    if (--srt.unfinished_preds == 0) {
      srt.state = TaskState::kSchedulable;
      if (algorithm_.full_ahead()) dispatch_planned_task(wf, s);
    }
  }

  if (ref.task == wf.dag.exit()) {
    wf.finished_at = finished_at;
    ++finished_workflows_;
    trace_.record(engine_.now(), sim::TraceKind::kWorkflowDone, wf.home, ref);
    if (sink_ != nullptr) {
      WorkflowReport report;
      report.id = wf.id;
      report.home = wf.home;
      report.submit_time = wf.submit_time;
      report.entry_start_time = wf.entry_started_at;
      report.finish_time = finished_at;
      report.eft = wf.eft;
      sink_->on_workflow_finished(report);
    }
  }
}

// ---------------------------------------------------------------------------
// Failure handling and churn
// ---------------------------------------------------------------------------

void GridSystem::fail_task(TaskRef ref, const char* reason) {
  auto& wf = workflows_[static_cast<std::size_t>(ref.workflow.get())];
  auto& rt = wf.tasks[static_cast<std::size_t>(ref.task.get())];
  if (rt.state == TaskState::kFinished || rt.state == TaskState::kFailed) return;
  const TaskState old_state = rt.state;
  rt.state = TaskState::kFailed;  // set first: cleanup below may re-enter
  ++wf.failed_tasks;
  ++tasks_failed_;
  trace_.record(engine_.now(), sim::TraceKind::kTaskFailed, rt.exec_node, ref, reason);

  if (old_state == TaskState::kRunning) {
    auto& node = nodes_[static_cast<std::size_t>(rt.exec_node.get())];
    if (node.running() != nullptr && node.running()->ref == ref) {
      node.abort_running();
      engine_.cancel(running_event_[static_cast<std::size_t>(rt.exec_node.get())]);
    }
  } else if (old_state == TaskState::kDispatched && rt.exec_node.valid()) {
    nodes_[static_cast<std::size_t>(rt.exec_node.get())].remove_ready(ref);
  }
  if (auto it = task_transfers_.find(ref); it != task_transfers_.end()) {
    const auto ids = it->second;
    task_transfers_.erase(it);
    for (auto tid : ids) transfers_->abort(tid);
  }
}

void GridSystem::handle_leave(NodeId id) {
  auto& node = nodes_[static_cast<std::size_t>(id.get())];
  if (!node.alive()) return;
  node.set_alive(false);
  trace_.record(engine_.now(), sim::TraceKind::kNodeLeave, id);

  // Kill the running task first so fail_task sees a detached CPU. The
  // exec_node guards skip tasks already reclaimed by the re-offer pass (their
  // failure now belongs to whichever node they were re-dispatched to).
  engine_.cancel(running_event_[static_cast<std::size_t>(id.get())]);
  if (auto running = node.abort_running()) {
    const auto& rt = workflows_[static_cast<std::size_t>(running->ref.workflow.get())]
                         .tasks[static_cast<std::size_t>(running->ref.task.get())];
    if (rt.state == TaskState::kRunning && rt.exec_node == id) {
      fail_task(running->ref, "node departed (running)");
    }
  }

  for (const auto& ready : node.drain_ready()) {
    const auto& rt = workflows_[static_cast<std::size_t>(ready.ref.workflow.get())]
                         .tasks[static_cast<std::size_t>(ready.ref.task.get())];
    if (rt.state == TaskState::kDispatched && rt.exec_node == id) {
      fail_task(ready.ref, "node departed (ready set)");
    }
  }

  // Abort remaining transfers that used this node as a data *source*; their
  // callbacks fail the dependent tasks on other nodes.
  transfers_->node_left(id);
  gossip_->node_left(id);
}

void GridSystem::inject_node_failure(NodeId id) {
  if (!id.valid() || id.get() >= topo_.node_count()) {
    throw std::out_of_range("inject_node_failure: invalid node");
  }
  handle_leave(id);
}

void GridSystem::inject_node_rejoin(NodeId id) {
  if (!id.valid() || id.get() >= topo_.node_count()) {
    throw std::out_of_range("inject_node_rejoin: invalid node");
  }
  handle_join(id);
}

void GridSystem::on_link_state(LinkId l, bool up) {
  trace_.record(engine_.now(), up ? sim::TraceKind::kLinkUp : sim::TraceKind::kLinkDown,
                NodeId{});
  transfers_->link_state_changed(l, up);
}

void GridSystem::handle_join(NodeId id) {
  auto& node = nodes_[static_cast<std::size_t>(id.get())];
  if (node.alive()) return;
  node.set_alive(true);
  trace_.record(engine_.now(), sim::TraceKind::kNodeJoin, id);
  gossip_->node_joined(id, random_alive_contacts(config_.bootstrap_contacts, id));
}

std::vector<NodeId> GridSystem::random_alive_contacts(int count, NodeId exclude) {
  std::vector<NodeId> alive;
  alive.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    if (node.alive() && node.id() != exclude) alive.push_back(node.id());
  }
  rng_.shuffle(alive);
  if (static_cast<int>(alive.size()) > count) alive.resize(static_cast<std::size_t>(count));
  return alive;
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

std::vector<TaskIndex> GridSystem::schedule_points(const WorkflowInstance& wf) const {
  std::vector<TaskIndex> sps;
  for (std::size_t t = 0; t < wf.tasks.size(); ++t) {
    if (wf.tasks[t].state == TaskState::kSchedulable) {
      sps.push_back(TaskIndex{static_cast<TaskIndex::underlying_type>(t)});
    }
  }
  return sps;
}

double GridSystem::control_latency(NodeId a, NodeId b) const {
  if (a == b) return 0.0;
  const double lat = routing_.latency_s(a, b);
  return std::isfinite(lat) ? lat : 0.0;
}

TaskEstimateInputs GridSystem::estimate_inputs(const WorkflowInstance& wf, TaskIndex task) const {
  TaskEstimateInputs inputs;
  inputs.load_mi = wf.dag.task(task).load_mi;
  for (TaskIndex p : wf.dag.predecessors(task)) {
    const auto& prt = wf.tasks[static_cast<std::size_t>(p.get())];
    const double data = wf.dag.edge_data(p, task);
    if (data <= 0.0 || !prt.exec_node.valid()) continue;
    NodeId source = prt.exec_node;
    if (config_.home_keeps_outputs &&
        !nodes_[static_cast<std::size_t>(source.get())].alive()) {
      source = wf.home;  // result collection: data survives at the home node
    }
    inputs.inputs.push_back(InputSource{source, data});
  }
  const double image = wf.dag.task(task).image_mb;
  if (image > 0.0) inputs.inputs.push_back(InputSource{wf.home, image});
  return inputs;
}

void GridSystem::sample_cycle() {
  if (sink_ == nullptr) return;
  CycleSample sample;
  sample.time = engine_.now();
  sample.workflows_finished = finished_workflows_;
  sample.tasks_failed = tasks_failed_;
  sample.mean_rss_size = gossip_->mean_rss_size();
  sample.mean_idle_known = gossip_->mean_idle_known();
  sample.alive_nodes = alive_count();
  sink_->on_cycle(sample);
}

const WorkflowInstance& GridSystem::workflow(WorkflowId id) const {
  return workflows_.at(static_cast<std::size_t>(id.get()));
}

const grid::GridNode& GridSystem::node(NodeId id) const {
  return nodes_.at(static_cast<std::size_t>(id.get()));
}

std::size_t GridSystem::alive_count() const {
  std::size_t n = 0;
  for (const auto& node : nodes_) n += node.alive() ? 1 : 0;
  return n;
}

}  // namespace dpjit::core
