// Performance-regression harness for the simulation hot path.
//
// Times eight things and emits one JSON document (see BENCH_*.json for the
// recorded baseline-vs-current numbers):
//   1. EventQueue micro-ops (schedule/pop and schedule/cancel throughput),
//      both for the current sim::EventQueue and for a frozen copy of the
//      pre-overhaul implementation (std::priority_queue + unordered_map +
//      lazy tombstone cancel) kept here as the reference point, so the
//      speedup is always measured on the same machine in the same binary;
//   2. all-pairs Routing construction over a Waxman topology;
//   3. transfer-heavy fair-sharing benchmarks: a steady-state churn of 1k
//      concurrent fluid flows and a mass node teardown, both for the current
//      incremental grid::TransferManager and for a frozen copy of the pre-
//      overhaul full-recompute fair path (one O(flows x links) max-min solve
//      per flow event, one solve per doomed flow on teardown);
//   4. next-completion arming: steady fluid churn over 512 disjoint pair
//      components (solver work O(1) per event), timed for the current
//      CompletionIndex-armed TransferManager and for a frozen copy of the
//      PR-4 path whose arming was an O(active) minimum-scan per mutation;
//   5. an end-to-end fig11-style run (one DSMF experiment at --nodes, full
//      36 h horizon) with a bitwise digest of the result metrics so perf
//      changes that perturb simulation output are caught immediately;
//   6. the sharded PDES engine: one event-dense scale-model run serial
//      (shards=1) and one sharded (shards=4, pool threads at hardware
//      concurrency). The two digests must be identical - a divergence is a
//      hard failure, not a perf number - and the serial/sharded wall-clock
//      ratio is recorded as sharded_speedup (~1.0 on single-core runners,
//      >1 where the worker pool has cores to use);
//   7. oracle probe cost: what-if rate queries against a frozen fluid flow
//      set (the scheduling-cycle regime), three paths: reference (the legacy
//      from-scratch progressive fill every probe used to run), uncached (the
//      solver's recorded-schedule replay, no pair cache), and cached (the
//      TransferManager's epoch-keyed probe cache on top). All three answers
//      are asserted bit-identical before timing; probe_cache_speedup is the
//      cached-vs-reference ratio - the full cost drop a scheduling cycle saw;
//   8. the heavy-traffic open stream (trace/open-stream-1m: 125k fitted jobs,
//      >= 1M submitted tasks) run twice, once with the O(1)-memory streaming
//      metrics collector and once retaining every report. The two result
//      digests must be identical (the collector-equivalence contract), the
//      streaming run's live report count must stay within the reservoir
//      bound, and the wall-clock ratio is recorded as
//      streaming_metrics.tasks_per_s_ratio (~1.0: the collector must not tax
//      the hot path).
//
// Usage: perf_harness [--quick] [--nodes=500] [--ops=6000000] [--seed=1]
//                     [--tflows=1000] [--tcomps=600] [--acomps=10000]
//                     [--out=PATH]       (default: print JSON to stdout)
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <queue>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/metrics.hpp"
#include "exp/scale_model.hpp"
#include "exp/scenario.hpp"
#include "grid/transfer_manager.hpp"
#include "net/routing.hpp"
#include "sim/event_queue.hpp"
#include "util/config.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using dpjit::SimTime;

/// Frozen copy of the pre-overhaul EventQueue (binary-heap of (time, seq)
/// entries, unordered_map for liveness, lazy cancellation). Do not "fix" or
/// modernize this type: it exists so BENCH_*.json speedups stay reproducible.
class BaselineEventQueue {
 public:
  using Handle = std::uint64_t;
  using EventFn = std::function<void()>;

  Handle schedule(SimTime t, EventFn fn) {
    const Handle h = next_seq_++;
    heap_.push(Entry{t, h});
    live_.emplace(h, std::move(fn));
    return h;
  }

  bool cancel(Handle h) { return live_.erase(h) > 0; }

  [[nodiscard]] bool empty() const { return live_.empty(); }
  [[nodiscard]] std::size_t size() const { return live_.size(); }

  std::pair<SimTime, EventFn> pop() {
    skip_dead();
    const Entry top = heap_.top();
    heap_.pop();
    auto it = live_.find(top.seq);
    EventFn fn = std::move(it->second);
    live_.erase(it);
    return {top.time, std::move(fn)};
  }

 private:
  struct Entry {
    SimTime time;
    Handle seq;
    bool operator>(const Entry& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  void skip_dead() {
    while (!heap_.empty() && live_.find(heap_.top().seq) == live_.end()) heap_.pop();
  }

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::unordered_map<Handle, EventFn> live_;
  Handle next_seq_ = 0;
};

double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

/// Deterministic pseudo-random event times (no util::Rng dependency so the
/// micro-loop stays allocation- and call-free apart from the queue op itself).
struct TimeGen {
  std::uint64_t s = 0x9e3779b97f4a7c15ULL;
  double base = 0.0;
  SimTime next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    // Events land within a 1000 s lookahead window past the current base.
    return base + static_cast<double>(s % 100000U) / 100.0;
  }
};

/// Rolling schedule/pop: fill a window, then pop-one/schedule-one. This is
/// the engine's steady-state pattern. Returns mega-ops (1 op = one schedule
/// plus one pop) per second. `sink` defeats dead-code elimination.
template <class Queue>
double bench_schedule_pop(std::size_t ops, std::uint64_t& sink) {
  constexpr std::size_t kWindow = 4096;
  Queue q;
  TimeGen gen;
  std::uint64_t fired = 0;
  for (std::size_t i = 0; i < kWindow; ++i) q.schedule(gen.next(), [&fired] { ++fired; });
  const double t0 = now_s();
  for (std::size_t i = 0; i < ops; ++i) {
    auto [t, fn] = q.pop();
    gen.base = t;  // simulated clock only moves forward
    fn();
    q.schedule(gen.next(), [&fired] { ++fired; });
  }
  const double dt = now_s() - t0;
  while (!q.empty()) q.pop().second();
  sink += fired;
  return static_cast<double>(ops) / dt / 1e6;
}

/// The schedule/cancel/pop mix: the reschedule-churn pattern of the fair-
/// sharing transfer manager and churn aborts. A pool of "flows" each holds a
/// live far-future completion event; every iteration cancels one (always
/// live), reschedules it at a new far-future time, and schedules + pops one
/// near event to advance the frontier. Under lazy cancellation the far-future
/// tombstones never reach the heap top, so the dead set grows by one entry
/// per iteration - the exact pathology true removal fixes by construction.
/// The final drain is inside the timed region: lazy cancellation only defers
/// its removal work (every tombstone is heap-popped when the frontier passes
/// it), so the amortized cost per operation must charge for it.
/// Returns mega-iterations (1 schedule + 1 cancel + 1 reschedule + 1 pop)
/// per second.
template <class Queue>
double bench_schedule_cancel_pop(std::size_t ops, std::uint64_t& sink) {
  constexpr std::size_t kFlows = 4096;
  constexpr double kFarFuture = 1e7;  // beyond any time the frontier reaches
  Queue q;
  TimeGen gen;
  std::uint64_t fired = 0;
  std::vector<typename Queue::Handle> completion(kFlows);
  for (std::size_t i = 0; i < kFlows; ++i) {
    completion[i] = q.schedule(kFarFuture + gen.next(), [&fired] { ++fired; });
  }
  for (std::size_t i = 0; i < kFlows; ++i) q.schedule(gen.next(), [&fired] { ++fired; });
  std::size_t flow = 0;
  const double t0 = now_s();
  for (std::size_t i = 0; i < ops; ++i) {
    if (!q.cancel(completion[flow])) return -1.0;  // must be live by design
    completion[flow] = q.schedule(kFarFuture + gen.next(), [&fired] { ++fired; });
    flow = (flow + 1) % kFlows;
    q.schedule(gen.next(), [&fired] { ++fired; });
    auto [t, fn] = q.pop();
    gen.base = t;
    fn();
  }
  while (!q.empty()) q.pop().second();
  const double dt = now_s() - t0;
  sink += fired;
  return static_cast<double>(ops) / dt / 1e6;
}

/// Frozen copy of the pre-overhaul fair-sharing transfer path: full
/// O(flows x links) max-min recompute (with the original order-dependent
/// freeze pass) on every flow start/finish, and one full solve per doomed
/// flow on node departure. Do not "fix" or modernize this type: it exists so
/// BENCH_*.json transfer speedups stay reproducible on any machine.
class BaselineFairManager {
 public:
  using CompletionFn = dpjit::sim::InlineFunction<void(bool)>;

  BaselineFairManager(dpjit::sim::Engine& engine, const dpjit::net::Topology& topo,
                      const dpjit::net::Routing& routing)
      : engine_(engine), topo_(topo), routing_(routing) {}

  std::uint64_t start(dpjit::NodeId src, dpjit::NodeId dst, double size_mb,
                      CompletionFn on_done) {
    const std::uint64_t id = next_id_++;
    Flow flow;
    flow.src = src;
    flow.dst = dst;
    flow.size_mb = size_mb;
    flow.remaining_mb = size_mb;
    flow.on_done = std::move(on_done);
    flow.links = routing_.path_links(src, dst);
    flow.latency_pending = true;
    flows_.emplace(id, std::move(flow));
    flows_.at(id).event = engine_.schedule_in(routing_.latency_s(src, dst),
                                              [this, id] { fair_flow_started(id); });
    return id;
  }

  void node_left(dpjit::NodeId n) {
    std::vector<std::uint64_t> doomed;
    for (const auto& [id, flow] : flows_) {
      if (flow.src == n || flow.dst == n) doomed.push_back(id);
    }
    for (std::uint64_t id : doomed) finish(id, false);
  }

  [[nodiscard]] std::size_t active_count() const { return flows_.size(); }

 private:
  struct Flow {
    dpjit::NodeId src;
    dpjit::NodeId dst;
    double size_mb = 0.0;
    double remaining_mb = 0.0;
    double rate_mbps = 0.0;
    std::vector<dpjit::LinkId> links;
    CompletionFn on_done;
    dpjit::sim::EventQueue::Handle event = dpjit::sim::EventQueue::kInvalidHandle;
    bool latency_pending = false;
  };

  /// The original sequential-freeze solver (mutates remaining/active mid-
  /// round; order-dependent near ties - kept verbatim as the baseline).
  static std::vector<double> solve(const std::vector<dpjit::net::FlowPath>& flows,
                                   const std::vector<double>& caps) {
    const std::size_t nf = flows.size();
    std::vector<double> rate(nf, 0.0);
    std::vector<char> frozen(nf, 0);
    std::vector<double> remaining = caps;
    std::vector<int> active(caps.size(), 0);
    std::size_t unfrozen = 0;
    for (std::size_t f = 0; f < nf; ++f) {
      if (flows[f].links.empty()) {
        rate[f] = dpjit::kInf;
        frozen[f] = 1;
        continue;
      }
      ++unfrozen;
      for (dpjit::LinkId l : flows[f].links) ++active[static_cast<std::size_t>(l.get())];
    }
    while (unfrozen > 0) {
      double share = std::numeric_limits<double>::infinity();
      for (std::size_t l = 0; l < remaining.size(); ++l) {
        if (active[l] > 0) share = std::min(share, remaining[l] / active[l]);
      }
      if (!std::isfinite(share)) break;
      share = std::max(share, 0.0);
      bool froze_any = false;
      for (std::size_t f = 0; f < nf; ++f) {
        if (frozen[f]) continue;
        bool bottlenecked = false;
        for (dpjit::LinkId l : flows[f].links) {
          const auto li = static_cast<std::size_t>(l.get());
          if (remaining[li] / active[li] <= share * (1.0 + 1e-12)) {
            bottlenecked = true;
            break;
          }
        }
        if (!bottlenecked) continue;
        rate[f] = share;
        frozen[f] = 1;
        froze_any = true;
        --unfrozen;
        for (dpjit::LinkId l : flows[f].links) {
          const auto li = static_cast<std::size_t>(l.get());
          remaining[li] -= share;
          if (remaining[li] < 0.0) remaining[li] = 0.0;
          --active[li];
        }
      }
      if (!froze_any) break;
    }
    return rate;
  }

  void finish(std::uint64_t id, bool success) {
    auto it = flows_.find(id);
    if (it == flows_.end()) return;
    CompletionFn cb = std::move(it->second.on_done);
    const bool was_fluid = !it->second.latency_pending;
    engine_.cancel(it->second.event);
    flows_.erase(it);
    if (was_fluid) fair_recompute();
    if (cb) cb(success);
  }

  void fair_flow_started(std::uint64_t id) {
    auto it = flows_.find(id);
    if (it == flows_.end()) return;
    it->second.latency_pending = false;
    if (it->second.remaining_mb <= 1e-9) {
      finish(id, true);
      return;
    }
    fair_recompute();
  }

  void fair_advance_to_now() {
    const dpjit::SimTime now = engine_.now();
    const double dt = now - fair_clock_;
    if (dt > 0.0) {
      for (auto& [id, flow] : flows_) {
        if (flow.latency_pending) continue;
        flow.remaining_mb = std::max(0.0, flow.remaining_mb - flow.rate_mbps * dt);
      }
    }
    fair_clock_ = now;
  }

  void fair_recompute() {
    fair_advance_to_now();
    std::vector<std::uint64_t> done;
    for (auto& [id, flow] : flows_) {
      if (!flow.latency_pending && flow.remaining_mb <= 1e-9) done.push_back(id);
    }
    for (std::uint64_t id : done) finish(id, true);
    if (!done.empty()) return;
    std::vector<std::uint64_t> ids;
    std::vector<dpjit::net::FlowPath> paths;
    for (auto& [id, flow] : flows_) {
      if (flow.latency_pending) continue;
      ids.push_back(id);
      paths.push_back(dpjit::net::FlowPath{flow.links});
    }
    if (!ids.empty()) {
      std::vector<double> capacity;
      capacity.reserve(topo_.link_count());
      for (const auto& link : topo_.links()) capacity.push_back(link.bandwidth_mbps);
      const auto rates = solve(paths, capacity);
      for (std::size_t i = 0; i < ids.size(); ++i) flows_.at(ids[i]).rate_mbps = rates[i];
    }
    fair_schedule_next_completion();
  }

  void fair_schedule_next_completion() {
    if (fair_event_armed_) {
      engine_.cancel(fair_event_);
      fair_event_armed_ = false;
    }
    double soonest = dpjit::kInf;
    for (const auto& [id, flow] : flows_) {
      if (flow.latency_pending || flow.rate_mbps <= 0.0) continue;
      soonest = std::min(soonest, flow.remaining_mb / flow.rate_mbps);
    }
    if (!std::isfinite(soonest)) return;
    fair_event_ = engine_.schedule_in(soonest, [this] {
      fair_event_armed_ = false;
      fair_recompute();
    });
    fair_event_armed_ = true;
  }

  dpjit::sim::Engine& engine_;
  const dpjit::net::Topology& topo_;
  const dpjit::net::Routing& routing_;
  std::unordered_map<std::uint64_t, Flow> flows_;
  std::uint64_t next_id_ = 1;
  dpjit::sim::EventQueue::Handle fair_event_ = dpjit::sim::EventQueue::kInvalidHandle;
  bool fair_event_armed_ = false;
  dpjit::SimTime fair_clock_ = 0.0;
};

/// Thin adapter so both managers run under one benchmark driver.
struct CurrentFairManager : dpjit::grid::TransferManager {
  CurrentFairManager(dpjit::sim::Engine& engine, const dpjit::net::Topology& topo,
                     const dpjit::net::Routing& routing)
      : TransferManager(engine, topo, routing, Mode::kFluidFair) {}
};

/// Frozen copy of the PR-4 fair path's *arming* strategy: the incremental
/// per-component FairShareSolver (same as current), but the next-completion
/// event re-armed by the original O(active) scan over every fluid flow after
/// every mutation - the pass the PR-5 CompletionIndex replaces. Do not "fix"
/// or modernize this type: it exists so BENCH_*.json's
/// next_completion.arming_speedup stays reproducible on any machine.
class ScanArmFairManager {
 public:
  using CompletionFn = dpjit::sim::InlineFunction<void(bool)>;

  ScanArmFairManager(dpjit::sim::Engine& engine, const dpjit::net::Topology& topo,
                     const dpjit::net::Routing& routing)
      : engine_(engine), routing_(routing), solver_(link_caps(topo)) {}

  std::uint64_t start(dpjit::NodeId src, dpjit::NodeId dst, double size_mb,
                      CompletionFn on_done) {
    const std::uint64_t id = next_id_++;
    Flow flow;
    flow.size_mb = size_mb;
    flow.remaining_mb = size_mb;
    flow.links = routing_.path_links(src, dst);
    flow.on_done = std::move(on_done);
    flows_.emplace(id, std::move(flow));
    engine_.schedule_in(routing_.latency_s(src, dst), [this, id] { flow_started(id); });
    return id;
  }

  [[nodiscard]] std::size_t active_count() const { return flows_.size(); }

 private:
  struct Flow {
    double size_mb = 0.0;
    double remaining_mb = 0.0;
    double rate_mbps = 0.0;
    std::vector<dpjit::LinkId> links;
    CompletionFn on_done;
    bool fluid = false;
  };

  static std::vector<double> link_caps(const dpjit::net::Topology& topo) {
    std::vector<double> caps;
    caps.reserve(topo.link_count());
    for (const auto& link : topo.links()) caps.push_back(link.bandwidth_mbps);
    return caps;
  }

  void flow_started(std::uint64_t id) {
    auto it = flows_.find(id);
    if (it == flows_.end()) return;
    advance_to_now();
    it->second.fluid = true;
    solver_.add(id, it->second.links);
    apply_updated();
    schedule_next_scan();
  }

  void advance_to_now() {
    const dpjit::SimTime now = engine_.now();
    const double dt = now - clock_;
    if (dt > 0.0) {
      for (auto& [id, flow] : flows_) {
        if (!flow.fluid) continue;
        flow.remaining_mb = std::max(0.0, flow.remaining_mb - flow.rate_mbps * dt);
      }
    }
    clock_ = now;
  }

  void apply_updated() {
    for (const auto& u : solver_.updated()) {
      flows_.find(u.id)->second.rate_mbps = u.rate;
    }
  }

  void resolve_batch(const std::vector<std::uint64_t>& ids) {
    if (ids.empty()) return;
    advance_to_now();
    std::vector<std::uint64_t> fluid_ids;
    std::vector<CompletionFn> callbacks;
    for (const std::uint64_t id : ids) {
      auto it = flows_.find(id);
      fluid_ids.push_back(id);
      callbacks.push_back(std::move(it->second.on_done));
      flows_.erase(it);
    }
    solver_.remove_batch(fluid_ids);
    apply_updated();
    schedule_next_scan();
    for (auto& cb : callbacks) {
      if (cb) cb(true);
    }
  }

  /// The frozen arming pass: min remaining/rate over EVERY fluid flow.
  void schedule_next_scan() {
    if (armed_) {
      engine_.cancel(event_);
      armed_ = false;
    }
    double soonest = dpjit::kInf;
    for (const auto& [id, flow] : flows_) {
      if (!flow.fluid || flow.rate_mbps <= 0.0) continue;
      soonest = std::min(soonest, flow.remaining_mb / flow.rate_mbps);
    }
    if (!std::isfinite(soonest)) return;
    event_ = engine_.schedule_in(soonest, [this] {
      armed_ = false;
      tick();
    });
    armed_ = true;
  }

  void tick() {
    advance_to_now();
    std::vector<std::uint64_t> done;
    const dpjit::SimTime now = engine_.now();
    for (const auto& [id, flow] : flows_) {
      if (!flow.fluid) continue;
      if (flow.remaining_mb <= 1e-9 || now + flow.remaining_mb / flow.rate_mbps <= now) {
        done.push_back(id);
      }
    }
    std::sort(done.begin(), done.end());
    if (done.empty()) {
      schedule_next_scan();
      return;
    }
    resolve_batch(done);
  }

  dpjit::sim::Engine& engine_;
  const dpjit::net::Routing& routing_;
  std::unordered_map<std::uint64_t, Flow> flows_;
  dpjit::net::FairShareSolver solver_;
  std::uint64_t next_id_ = 1;
  dpjit::sim::EventQueue::Handle event_ = dpjit::sim::EventQueue::kInvalidHandle;
  bool armed_ = false;
  dpjit::SimTime clock_ = 0.0;
};

/// Steady-state fluid churn: `concurrent` flows stay in flight (every
/// completion immediately starts a replacement) until `target` completions.
/// Returns completions per wall-clock second, timed after a warm-up that gets
/// every initial flow past its latency phase.
template <class Manager>
double bench_fair_steady(const dpjit::net::Topology& topo, const dpjit::net::Routing& routing,
                         std::size_t concurrent, std::uint64_t target, std::uint64_t& sink) {
  using dpjit::NodeId;
  dpjit::sim::Engine engine;
  Manager tm(engine, topo, routing);
  dpjit::util::Rng rng(42);
  const int n = topo.node_count();
  std::uint64_t completed = 0;
  std::function<void()> spawn = [&] {
    const auto src = NodeId{static_cast<int>(rng.index(static_cast<std::size_t>(n)))};
    auto dst = NodeId{static_cast<int>(rng.index(static_cast<std::size_t>(n)))};
    if (dst == src) dst = NodeId{(src.get() + 1) % n};
    tm.start(src, dst, rng.uniform(5.0, 50.0), [&](bool) {
      ++completed;
      if (completed < target + concurrent) spawn();
    });
  };
  for (std::size_t i = 0; i < concurrent; ++i) spawn();
  engine.run_until(1.0);  // past every latency phase: the pool is fully fluid
  const double t0 = now_s();
  while (completed < target) {
    if (!engine.step()) break;
  }
  const double dt = now_s() - t0;
  sink += completed;
  return static_cast<double>(target) / dt;
}

/// Mass teardown: `hub_flows` flows touch one victim node (plus background
/// flows that survive); times node_left(victim). Returns milliseconds.
template <class Manager>
double bench_fair_teardown(const dpjit::net::Topology& topo, const dpjit::net::Routing& routing,
                           std::size_t hub_flows, std::size_t background, std::uint64_t& sink) {
  using dpjit::NodeId;
  dpjit::sim::Engine engine;
  Manager tm(engine, topo, routing);
  dpjit::util::Rng rng(43);
  const int n = topo.node_count();
  const NodeId victim{0};
  std::uint64_t aborted = 0;
  for (std::size_t i = 0; i < hub_flows; ++i) {
    auto dst = NodeId{static_cast<int>(rng.index(static_cast<std::size_t>(n)))};
    if (dst == victim) dst = NodeId{1};
    tm.start(victim, dst, rng.uniform(50.0, 500.0), [&](bool ok) { aborted += ok ? 0 : 1; });
  }
  for (std::size_t i = 0; i < background; ++i) {
    auto src = NodeId{1 + static_cast<int>(rng.index(static_cast<std::size_t>(n - 1)))};
    auto dst = NodeId{1 + static_cast<int>(rng.index(static_cast<std::size_t>(n - 1)))};
    if (dst == src) dst = NodeId{1 + (src.get() % (n - 1))};
    tm.start(src, dst, rng.uniform(50.0, 500.0), [&](bool) {});
  }
  engine.run_until(1.0);  // everything fluid
  const double t0 = now_s();
  tm.node_left(victim);
  const double dt = now_s() - t0;
  if (aborted != hub_flows) return -1.0;  // teardown must abort exactly the hub flows
  sink += aborted;
  return dt * 1e3;
}

/// Next-completion arming stress: the topology is `pairs` disjoint two-node
/// islands (one link each), so every component re-solve is O(1) and the
/// per-event cost is dominated by the fixed per-flow passes - which is
/// exactly where the frozen scan-arming manager pays an extra O(active)
/// minimum-scan per mutation and the CompletionIndex pays O(log active).
/// Steady churn: every completion starts a replacement on a random pair.
/// Returns completions per wall-clock second.
template <class Manager>
double bench_arming(const dpjit::net::Topology& topo, const dpjit::net::Routing& routing,
                    std::size_t concurrent, std::uint64_t target, std::uint64_t& sink) {
  using dpjit::NodeId;
  dpjit::sim::Engine engine;
  Manager tm(engine, topo, routing);
  dpjit::util::Rng rng(44);
  const int pairs = topo.node_count() / 2;
  std::uint64_t completed = 0;
  std::function<void()> spawn = [&] {
    const int p = static_cast<int>(rng.index(static_cast<std::size_t>(pairs)));
    tm.start(NodeId{2 * p}, NodeId{2 * p + 1}, rng.uniform(5.0, 50.0), [&](bool) {
      ++completed;
      if (completed < target + concurrent) spawn();
    });
  };
  for (std::size_t i = 0; i < concurrent; ++i) spawn();
  engine.run_until(1.0);  // past every latency phase
  const double t0 = now_s();
  while (completed < target) {
    if (!engine.step()) break;
  }
  const double dt = now_s() - t0;
  sink += completed;
  return static_cast<double>(target) / dt;
}

/// Stage-7 probe paths, slowest to fastest.
enum class ProbePath { kReference, kUncached, kCached };

/// One timed probe loop for stage 7: `probes` what-if rate queries round-robin
/// over a fixed pair pool against a frozen flow set, through the selected
/// oracle path. Returns probes per wall-clock second; rates fold into `acc`
/// so the optimizer cannot drop the calls.
template <ProbePath kPath>
double bench_probe(const dpjit::grid::TransferManager& tm,
                   const std::vector<std::pair<dpjit::NodeId, dpjit::NodeId>>& pool,
                   std::uint64_t probes, double& acc) {
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < probes; ++i) {
    const auto& [src, dst] = pool[i % pool.size()];
    if constexpr (kPath == ProbePath::kReference) {
      acc += tm.predicted_rate_mbps_reference(src, dst);
    } else if constexpr (kPath == ProbePath::kUncached) {
      acc += tm.predicted_rate_mbps_uncached(src, dst);
    } else {
      acc += tm.predicted_rate_mbps(src, dst);
    }
  }
  const double dt = now_s() - t0;
  return static_cast<double>(probes) / dt;
}

/// The disjoint-pair WAN for bench_arming: nodes 2p and 2p+1 joined by one
/// 5-10 Mb/s link, no inter-pair connectivity.
dpjit::net::Topology disjoint_pairs_topology(int pairs) {
  std::vector<dpjit::net::Link> links;
  links.reserve(static_cast<std::size_t>(pairs));
  dpjit::util::Rng rng(45);
  for (int p = 0; p < pairs; ++p) {
    links.push_back(dpjit::net::Link{dpjit::NodeId{2 * p}, dpjit::NodeId{2 * p + 1},
                                     rng.uniform(5.0, 10.0), 0.05});
  }
  return dpjit::net::Topology::from_links(2 * pairs, std::move(links));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dpjit;
  const auto cli = util::Config::from_args(argc, argv);
  const bool quick = cli.get_bool("quick", false);
  const auto ops = static_cast<std::size_t>(cli.get_int("ops", quick ? 500000 : 6000000));
  const int nodes = static_cast<int>(cli.get_int("nodes", quick ? 100 : 500));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const auto tflows = static_cast<std::size_t>(cli.get_int("tflows", 1000));
  const auto tcomps = static_cast<std::uint64_t>(cli.get_int("tcomps", quick ? 150 : 600));
  const auto acomps = static_cast<std::uint64_t>(cli.get_int("acomps", quick ? 2000 : 10000));
  const std::string out_path = cli.get_string("out", "-");

  std::uint64_t sink = 0;

  // --- 1. EventQueue micro-ops (median of 3 runs each) ----------------------
  auto median3 = [](double a, double b, double c) {
    return std::max(std::min(a, b), std::min(std::max(a, b), c));
  };
  std::fprintf(stderr, "[1/8] event-queue micro-ops (%zu ops/run)...\n", ops);
  double base_sp[3], cur_sp[3], base_sc[3], cur_sc[3];
  for (int r = 0; r < 3; ++r) {
    base_sp[r] = bench_schedule_pop<BaselineEventQueue>(ops, sink);
    cur_sp[r] = bench_schedule_pop<sim::EventQueue>(ops, sink);
    base_sc[r] = bench_schedule_cancel_pop<BaselineEventQueue>(ops, sink);
    cur_sc[r] = bench_schedule_cancel_pop<sim::EventQueue>(ops, sink);
  }
  const double baseline_pop = median3(base_sp[0], base_sp[1], base_sp[2]);
  const double current_pop = median3(cur_sp[0], cur_sp[1], cur_sp[2]);
  const double baseline_cancel = median3(base_sc[0], base_sc[1], base_sc[2]);
  const double current_cancel = median3(cur_sc[0], cur_sc[1], cur_sc[2]);

  // --- 2. Routing construction ---------------------------------------------
  std::fprintf(stderr, "[2/8] routing build (n=%d)...\n", nodes);
  util::Rng topo_rng(seed);
  net::TopologyParams tp;
  tp.node_count = nodes;
  const auto topo = net::Topology::generate_waxman(tp, topo_rng);
  double routing_ms = 0.0;
  double routing_mean_bw = 0.0;
  {
    const int reps = quick ? 2 : 3;
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      const double t0 = now_s();
      net::Routing routing(topo);
      const double dt = (now_s() - t0) * 1e3;
      best = std::min(best, dt);
      routing_mean_bw = routing.initial_mean_pair_bandwidth_mbps();
    }
    routing_ms = best;
  }

  // --- 3. Transfer-heavy fair-sharing benchmarks ----------------------------
  // Fixed 128-node topology regardless of --nodes: the metric is flow-event
  // throughput at --tflows concurrent fluid flows, not topology scale.
  std::fprintf(stderr, "[3/8] fair-sharing transfers (%zu concurrent, %llu completions)...\n",
               tflows, static_cast<unsigned long long>(tcomps));
  double base_steady = 0.0, cur_steady = 0.0, base_teardown = 0.0, cur_teardown = 0.0;
  {
    util::Rng trng(7);
    net::TopologyParams tp;
    tp.node_count = 128;
    const auto ttopo = net::Topology::generate_waxman(tp, trng);
    const net::Routing trouting(ttopo);
    const std::size_t hub = tflows * 3 / 10;
    const std::size_t background = tflows - hub;
    // Alternate baseline/current to share whatever load regime the box is in.
    double bs[2], cs[2], bt[2], ct[2];
    for (int r = 0; r < 2; ++r) {
      bs[r] = bench_fair_steady<BaselineFairManager>(ttopo, trouting, tflows, tcomps, sink);
      cs[r] = bench_fair_steady<CurrentFairManager>(ttopo, trouting, tflows, tcomps, sink);
      bt[r] = bench_fair_teardown<BaselineFairManager>(ttopo, trouting, hub, background, sink);
      ct[r] = bench_fair_teardown<CurrentFairManager>(ttopo, trouting, hub, background, sink);
    }
    base_steady = std::max(bs[0], bs[1]);
    cur_steady = std::max(cs[0], cs[1]);
    base_teardown = std::min(bt[0], bt[1]);
    cur_teardown = std::min(ct[0], ct[1]);
    if (bt[0] < 0.0 || ct[0] < 0.0 || bt[1] < 0.0 || ct[1] < 0.0) {
      std::cerr << "perf_harness: teardown benchmark self-check failed\n";
      return 1;
    }
  }

  // --- 4. Next-completion arming (scan vs CompletionIndex) ------------------
  // 512 disjoint pairs so the solver work per event is O(1): what remains is
  // the per-flow passes, isolating the arming strategy the index replaced.
  std::fprintf(stderr, "[4/8] next-completion arming (%zu flows, %llu completions)...\n",
               tflows, static_cast<unsigned long long>(acomps));
  double scan_arming = 0.0, index_arming = 0.0;
  {
    const auto atopo = disjoint_pairs_topology(512);
    const net::Routing arouting(atopo, 1);
    double ss[2], is[2];
    for (int r = 0; r < 2; ++r) {
      ss[r] = bench_arming<ScanArmFairManager>(atopo, arouting, tflows, acomps, sink);
      is[r] = bench_arming<CurrentFairManager>(atopo, arouting, tflows, acomps, sink);
    }
    scan_arming = std::max(ss[0], ss[1]);
    index_arming = std::max(is[0], is[1]);
  }

  // --- 5. End-to-end fig11-style run ---------------------------------------
  std::fprintf(stderr, "[5/8] end-to-end dsmf run (n=%d, 36 h horizon)...\n", nodes);
  exp::ExperimentConfig cfg;
  cfg.algorithm = "dsmf";
  cfg.nodes = nodes;
  cfg.seed = seed;
  const double e2e_t0 = now_s();
  const auto result = exp::run_experiment(cfg);
  const double e2e_wall = now_s() - e2e_t0;

  // --- 6. Sharded PDES engine (scale model, serial vs sharded) --------------
  // Denser than the scale/* defaults (short gossip/transfer periods) so
  // windows carry enough events to clear the parallel threshold where cores
  // exist; --quick only shortens the horizon so per-window density - and
  // with it the speedup being measured - stays comparable.
  const auto speers = static_cast<int>(cli.get_int("speers", 200000));
  std::fprintf(stderr, "[6/8] shard engine scale model (%d peers, shards 1 vs 4)...\n", speers);
  exp::ScaleParams sp;
  sp.peers = speers;
  sp.horizon_s = quick ? 120.0 : 600.0;
  sp.gossip_period_s = 60.0;
  sp.task_period_s = 300.0;
  sp.transfer_period_s = 120.0;
  sp.seed = seed;
  sp.shards = 1;
  const exp::ScaleResult scale_serial = exp::run_scale_model(sp);
  sp.shards = 4;
  const exp::ScaleResult scale_sharded = exp::run_scale_model(sp);
  const std::uint64_t shard_digest = exp::scale_digest(scale_serial);
  if (shard_digest != exp::scale_digest(scale_sharded)) {
    std::cerr << "perf_harness: sharded scale-model digest diverged from serial ("
              << exp::scale_digest(scale_sharded) << " != " << shard_digest
              << "): the shard engine broke determinism\n";
    return 1;
  }

  // --- 7. Oracle probe cache ------------------------------------------------
  // The scheduling-cycle regime: the flow set is frozen (no events run between
  // probes, exactly as during a dispatch pass), so every what-if rate query
  // hits the same fair-share fixed point. Reference = the legacy from-scratch
  // progressive fill (what every probe cost before this layer existed);
  // uncached = the solver's recorded-schedule replay with the pair cache
  // bypassed; cached = the TransferManager's epoch-keyed probe cache on top.
  // Flow sizes are huge so nothing completes during setup; the pair pool is
  // far smaller than the probe count so the cached loop measures steady-state
  // hits, matching a cycle where every home asks about the same frontier.
  const auto rprobes = static_cast<std::uint64_t>(cli.get_int("rprobes", quick ? 100 : 400));
  const auto uprobes = static_cast<std::uint64_t>(cli.get_int("uprobes", quick ? 50000 : 200000));
  const auto cprobes = static_cast<std::uint64_t>(cli.get_int("cprobes", quick ? 400000 : 2000000));
  std::fprintf(stderr,
               "[7/8] oracle probe cache (%zu flows, %llu reference / %llu uncached / %llu cached "
               "probes)...\n",
               tflows, static_cast<unsigned long long>(rprobes),
               static_cast<unsigned long long>(uprobes),
               static_cast<unsigned long long>(cprobes));
  double reference_probes_per_s = 0.0, uncached_probes_per_s = 0.0, cached_probes_per_s = 0.0;
  constexpr std::size_t kProbePool = 256;
  {
    util::Rng prng(9);
    net::TopologyParams ptp;
    ptp.node_count = 128;
    const auto ptopo = net::Topology::generate_waxman(ptp, prng);
    const net::Routing prouting(ptopo);
    sim::Engine pengine;
    grid::TransferManager ptm(pengine, ptopo, prouting,
                              grid::TransferManager::Mode::kFluidFair);
    auto random_pair = [&]() -> std::pair<NodeId, NodeId> {
      const auto src = NodeId{static_cast<int>(prng.index(128))};
      auto dst = NodeId{static_cast<int>(prng.index(128))};
      if (dst == src) dst = NodeId{(src.get() + 1) % 128};
      return {src, dst};
    };
    for (std::size_t i = 0; i < tflows; ++i) {
      const auto [src, dst] = random_pair();
      // 1e6-2e6 Mb at WAN rates: nothing finishes inside the warm-up window.
      ptm.start(src, dst, prng.uniform(1e6, 2e6), [](bool) {});
    }
    pengine.run_until(5.0);  // past every latency phase: the pool is fully fluid
    std::vector<std::pair<NodeId, NodeId>> pool;
    pool.reserve(kProbePool);
    for (std::size_t i = 0; i < kProbePool; ++i) pool.push_back(random_pair());
    // Bit-exactness self-check before timing: a cache that answers fast but
    // wrong is a regression, not a speedup.
    for (const auto& [src, dst] : pool) {
      const double ref = ptm.predicted_rate_mbps_reference(src, dst);
      if (ptm.predicted_rate_mbps(src, dst) != ref ||
          ptm.predicted_rate_mbps_uncached(src, dst) != ref) {
        std::cerr << "perf_harness: probe cache diverged from a from-scratch solve\n";
        return 1;
      }
    }
    double acc = 0.0;
    double rp[2], up[2], cp[2];
    for (int r = 0; r < 2; ++r) {
      rp[r] = bench_probe<ProbePath::kReference>(ptm, pool, rprobes, acc);
      up[r] = bench_probe<ProbePath::kUncached>(ptm, pool, uprobes, acc);
      cp[r] = bench_probe<ProbePath::kCached>(ptm, pool, cprobes, acc);
    }
    reference_probes_per_s = std::max(rp[0], rp[1]);
    uncached_probes_per_s = std::max(up[0], up[1]);
    cached_probes_per_s = std::max(cp[0], cp[1]);
    sink += static_cast<std::uint64_t>(std::isfinite(acc) ? acc : 1.0) & 1u;
  }
  const double probe_cache_speedup = cached_probes_per_s / std::max(reference_probes_per_s, 1e-9);
  const double probe_replay_speedup = uncached_probes_per_s / std::max(reference_probes_per_s, 1e-9);

  // --- 9. Heavy-traffic open stream, streaming vs retaining metrics ---------
  // trace/open-stream-1m at full scale: 125k fitted jobs of >= 8 tasks, a
  // million-task arrival stream against 200 nodes' service capacity. Run A
  // keeps the scenario's O(1)-memory streaming collector; run B flips
  // streaming_metrics off and retains every report. The digests must match
  // bit-for-bit (the collector-equivalence contract the trace test tier pins
  // per-report; this is the end-to-end seal at nightly scale), and the
  // dispatch-throughput ratio is the watched number: the sketches must not
  // tax the hot path.
  exp::ExperimentConfig scfg = exp::scenario_registry().at("trace/open-stream-1m").config();
  if (quick) scfg.trace.synth_jobs = 25000;  // same stream shape, shorter soak
  std::fprintf(stderr, "[8/8] streaming metrics open stream (%zu jobs, streaming vs retaining)...\n",
               scfg.trace.synth_jobs);
  // Best-of-2 per collector, interleaved, so allocator/page-cache state left
  // behind by the first pass doesn't bias whichever collector runs first.
  exp::ExperimentResult sm_streaming, sm_retaining;
  double sm_s_wall = std::numeric_limits<double>::infinity();
  double sm_r_wall = std::numeric_limits<double>::infinity();
  for (int r = 0; r < 2; ++r) {
    scfg.streaming_metrics = true;
    const double s_t0 = now_s();
    sm_streaming = exp::run_experiment(scfg);
    sm_s_wall = std::min(sm_s_wall, now_s() - s_t0);
    scfg.streaming_metrics = false;
    const double r_t0 = now_s();
    sm_retaining = exp::run_experiment(scfg);
    sm_r_wall = std::min(sm_r_wall, now_s() - r_t0);
  }
  const std::uint64_t sm_digest = exp::result_digest(sm_streaming);
  if (sm_digest != exp::result_digest(sm_retaining)) {
    std::cerr << "perf_harness: streaming-metrics digest diverged from retaining ("
              << sm_digest << " != " << exp::result_digest(sm_retaining)
              << "): the collector perturbed the simulation\n";
    return 1;
  }
  if (!quick &&
      sm_streaming.workflows_submitted * static_cast<std::size_t>(scfg.trace.min_tasks_per_job) <
          1000000u) {
    std::cerr << "perf_harness: open-stream-1m submitted fewer than 1M tasks ("
              << sm_streaming.workflows_submitted << " workflows x "
              << scfg.trace.min_tasks_per_job << " min tasks)\n";
    return 1;
  }
  if (sm_streaming.live_reports > exp::StreamingMetricsCollector::kDefaultReservoir) {
    std::cerr << "perf_harness: streaming run retained " << sm_streaming.live_reports
              << " reports, above the reservoir bound "
              << exp::StreamingMetricsCollector::kDefaultReservoir << "\n";
    return 1;
  }
  if (sm_retaining.live_reports != static_cast<std::size_t>(sm_retaining.workflows_finished)) {
    std::cerr << "perf_harness: retaining run holds " << sm_retaining.live_reports
              << " reports but finished " << sm_retaining.workflows_finished << " workflows\n";
    return 1;
  }
  const double sm_s_tasks_per_s = static_cast<double>(sm_streaming.tasks_dispatched) / sm_s_wall;
  const double sm_r_tasks_per_s = static_cast<double>(sm_retaining.tasks_dispatched) / sm_r_wall;
  const double sm_ratio = sm_s_tasks_per_s / std::max(sm_r_tasks_per_s, 1e-9);

  // --- emit ----------------------------------------------------------------
  std::ostringstream json;
  {
    util::JsonWriter w(json);
    w.begin_object();
    w.kv("schema", "dpjit-perf-harness-v1");
    w.kv("quick", quick);
    w.key("event_queue").begin_object();
    w.kv("ops", static_cast<std::uint64_t>(ops));
    w.kv("baseline_schedule_pop_mops", baseline_pop);
    w.kv("current_schedule_pop_mops", current_pop);
    w.kv("schedule_pop_speedup", current_pop / baseline_pop);
    w.kv("baseline_schedule_cancel_pop_mops", baseline_cancel);
    w.kv("current_schedule_cancel_pop_mops", current_cancel);
    w.kv("schedule_cancel_pop_speedup", current_cancel / baseline_cancel);
    w.end_object();
    w.key("routing").begin_object();
    w.kv("nodes", static_cast<std::int64_t>(nodes));
    w.kv("build_ms", routing_ms);
    w.kv("initial_mean_pair_bandwidth_mbps", routing_mean_bw);
    w.end_object();
    w.key("transfer").begin_object();
    w.kv("topology_nodes", static_cast<std::int64_t>(128));
    w.kv("concurrent_flows", static_cast<std::uint64_t>(tflows));
    w.kv("completions", tcomps);
    w.kv("baseline_steady_completions_per_s", base_steady);
    w.kv("current_steady_completions_per_s", cur_steady);
    w.kv("fair_sharing_speedup", cur_steady / base_steady);
    w.kv("baseline_teardown_ms", base_teardown);
    w.kv("current_teardown_ms", cur_teardown);
    w.kv("teardown_speedup", base_teardown / std::max(cur_teardown, 1e-9));
    w.end_object();
    w.key("next_completion").begin_object();
    w.kv("pairs", static_cast<std::int64_t>(512));
    w.kv("concurrent_flows", static_cast<std::uint64_t>(tflows));
    w.kv("completions", acomps);
    w.kv("scan_completions_per_s", scan_arming);
    w.kv("index_completions_per_s", index_arming);
    w.kv("arming_speedup", index_arming / scan_arming);
    w.end_object();
    w.key("end_to_end").begin_object();
    w.kv("nodes", static_cast<std::int64_t>(nodes));
    w.kv("algorithm", "dsmf");
    w.kv("seed", seed);
    w.kv("wall_s", e2e_wall);
    w.kv("events", result.events_processed);
    w.kv("events_per_s", static_cast<double>(result.events_processed) / e2e_wall);
    w.kv("workflows_finished", static_cast<std::uint64_t>(result.workflows_finished));
    w.kv("act", result.act);
    w.kv("ae", result.ae);
    w.kv("result_digest", exp::result_digest(result));
    w.end_object();
    w.key("shard_engine").begin_object();
    w.kv("peers", static_cast<std::int64_t>(speers));
    w.kv("horizon_s", sp.horizon_s);
    w.kv("shards", static_cast<std::int64_t>(sp.shards));
    w.kv("events", scale_serial.events_processed);
    w.kv("windows", scale_serial.windows);
    w.kv("parallel_windows", scale_sharded.parallel_windows);
    w.kv("serial_s", scale_serial.wall_s);
    w.kv("sharded_s", scale_sharded.wall_s);
    w.kv("sharded_speedup", scale_serial.wall_s / std::max(scale_sharded.wall_s, 1e-9));
    w.kv("serial_events_per_s",
         static_cast<double>(scale_serial.events_processed) / std::max(scale_serial.wall_s, 1e-9));
    w.kv("scale_digest", shard_digest);
    w.end_object();
    w.key("oracle").begin_object();
    w.kv("topology_nodes", static_cast<std::int64_t>(128));
    w.kv("concurrent_flows", static_cast<std::uint64_t>(tflows));
    w.kv("pair_pool", static_cast<std::uint64_t>(kProbePool));
    w.kv("reference_probes", rprobes);
    w.kv("uncached_probes", uprobes);
    w.kv("cached_probes", cprobes);
    w.kv("reference_probes_per_s", reference_probes_per_s);
    w.kv("uncached_probes_per_s", uncached_probes_per_s);
    w.kv("cached_probes_per_s", cached_probes_per_s);
    w.kv("probe_replay_speedup", probe_replay_speedup);
    w.kv("probe_cache_speedup", probe_cache_speedup);
    w.end_object();
    w.key("streaming_metrics").begin_object();
    w.kv("scenario", "trace/open-stream-1m");
    w.kv("jobs", static_cast<std::uint64_t>(scfg.trace.synth_jobs));
    w.kv("min_tasks_per_job", static_cast<std::int64_t>(scfg.trace.min_tasks_per_job));
    w.kv("workflows_submitted", static_cast<std::uint64_t>(sm_streaming.workflows_submitted));
    w.kv("workflows_finished", static_cast<std::uint64_t>(sm_streaming.workflows_finished));
    w.kv("tasks_dispatched", sm_streaming.tasks_dispatched);
    w.kv("live_reports_streaming", static_cast<std::uint64_t>(sm_streaming.live_reports));
    w.kv("live_reports_retaining", static_cast<std::uint64_t>(sm_retaining.live_reports));
    w.kv("streaming_wall_s", sm_s_wall);
    w.kv("retaining_wall_s", sm_r_wall);
    w.kv("streaming_tasks_per_s", sm_s_tasks_per_s);
    w.kv("retaining_tasks_per_s", sm_r_tasks_per_s);
    w.kv("tasks_per_s_ratio", sm_ratio);
    w.kv("result_digest", sm_digest);
    w.end_object();
    w.end_object();
  }
  json << "\n";

  if (out_path == "-") {
    std::cout << json.str();
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "perf_harness: cannot open " << out_path << " for writing\n";
      return 1;
    }
    out << json.str();
    std::cout << "wrote " << out_path << "\n";
  }
  // Human-readable summary on stderr so CI logs show the numbers inline.
  std::fprintf(stderr,
               "schedule/pop  %.2f -> %.2f Mops/s (%.2fx)\n"
               "schedule/cancel/pop %.2f -> %.2f Mops/s (%.2fx)\n"
               "routing build n=%d: %.1f ms\n"
               "fair steady-state %.0f -> %.0f completions/s (%.2fx)\n"
               "fair teardown %.2f -> %.2f ms (%.1fx)\n"
               "next-completion arming %.0f -> %.0f completions/s (%.2fx)\n"
               "end-to-end n=%d: %.2f s wall, %llu events (%.0f events/s)\n"
               "shard engine %d peers: serial %.2f s vs 4-shard %.2f s (%.2fx, digest ok)\n"
               "oracle probes ref %.0f -> replay %.0f -> cached %.0f probes/s (%.0fx, "
               "bit-identical)\n"
               "streaming metrics %zu jobs: %.0f vs %.0f tasks/s (ratio %.2f, %zu live reports, "
               "digest ok)\n",
               baseline_pop, current_pop, current_pop / baseline_pop, baseline_cancel,
               current_cancel, current_cancel / baseline_cancel, nodes, routing_ms, base_steady,
               cur_steady, cur_steady / base_steady, base_teardown, cur_teardown,
               base_teardown / std::max(cur_teardown, 1e-9), scan_arming, index_arming,
               index_arming / scan_arming, nodes, e2e_wall,
               static_cast<unsigned long long>(result.events_processed),
               static_cast<double>(result.events_processed) / e2e_wall, speers,
               scale_serial.wall_s, scale_sharded.wall_s,
               scale_serial.wall_s / std::max(scale_sharded.wall_s, 1e-9), reference_probes_per_s,
               uncached_probes_per_s, cached_probes_per_s, probe_cache_speedup,
               scfg.trace.synth_jobs, sm_s_tasks_per_s, sm_r_tasks_per_s, sm_ratio,
               sm_streaming.live_reports);
  return sink == 0xdeadbeef ? 2 : 0;
}
