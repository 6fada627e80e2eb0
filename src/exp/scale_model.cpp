#include "exp/scale_model.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/workload_factory.hpp"
#include "grid/scale_peer.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/shard_engine.hpp"
#include "util/rng.hpp"

namespace dpjit::exp {

// ---------------------------------------------------------------------------
// Shard mapping for the conservative time-window PDES loop.
// ---------------------------------------------------------------------------

ShardMap compute_shard_map(const net::Routing& routing, int shards) {
  const int n = routing.node_count();
  ShardMap map;
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
    for (int u = begin; u < begin + size; ++u) {
      map.shard_of[static_cast<std::size_t>(u)] = s;
    }
    begin += size;
  }

  return map;
}

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Event codes mixed into each peer's order_hash (see grid::ScalePeer::fold).
enum Kind : std::uint64_t {
  kGossipTick = 1,
  kGossipRequest,
  kGossipReply,
  kTaskTick,
  kTaskDone,
  kTransferTick,
  kTransferRequest,
  kTransferDone,
  kTransferAck,
  kChurnFail,
  kChurnRejoin,
  kChurnNotice,
};

/// The gossip payload actually put on the wire. gossip::merge only reads the
/// sender's clock and own-task count, and InlineFn's 48-byte capture budget
/// must also hold the model pointer, peer id and arrival time.
struct Wire {
  std::uint64_t clock = 0;
  std::uint64_t tasks_done = 0;
};

/// Paper Table I heterogeneous capacity classes.
constexpr double kCapacities[] = {1.0, 2.0, 4.0, 8.0, 16.0};

/// Region layout and shard map, computed before the engine exists.
struct Layout {
  int regions = 1;
  int shards = 1;
  std::vector<int> region_shard;
  std::vector<double> latency;    ///< regions x regions, seconds
  std::vector<double> bandwidth;  ///< regions x regions, Mb/s
};

void validate(const ScaleParams& p) {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("run_scale_model: " + what);
  };
  if (p.peers < 1) fail("peers must be >= 1");
  if (!(p.horizon_s > 0.0) || !std::isfinite(p.horizon_s)) fail("horizon must be positive");
  if (!(p.gossip_period_s > 0.0)) fail("gossip period must be positive");
  if (!(p.task_period_s > 0.0)) fail("task period must be positive");
  if (!(p.transfer_period_s > 0.0)) fail("transfer period must be positive");
  if (p.min_load_mi < 0.0 || p.max_load_mi < p.min_load_mi) fail("bad load range");
  if (p.min_data_mb < 0.0 || p.max_data_mb < p.min_data_mb) fail("bad data range");
  if (p.mean_lifetime_s < 0.0) fail("mean lifetime must be >= 0");
}

Layout build_layout(const ScaleParams& p) {
  Layout l;
  l.regions = std::min(p.peers, kMaxRegions);

  net::TopologyParams tp;
  tp.node_count = l.regions;
  util::Rng rng = util::Rng(p.seed).fork("scale-backbone");
  const net::Topology topo = l.regions > 1 ? net::Topology::generate_waxman(tp, rng)
                                           : net::Topology::from_links(1, {});
  const net::Routing routing(topo, 1);

  const int shards = std::clamp(p.shards, 1, l.regions);
  const ShardMap map = compute_shard_map(routing, shards);
  l.shards = map.shards;
  l.region_shard = map.shard_of;

  const std::size_t r = static_cast<std::size_t>(l.regions);
  l.latency.assign(r * r, 0.0);
  l.bandwidth.assign(r * r, 0.0);
  for (int a = 0; a < l.regions; ++a) {
    for (int b = 0; b < l.regions; ++b) {
      const bool same = a == b;
      l.latency[static_cast<std::size_t>(a) * r + static_cast<std::size_t>(b)] =
          same ? kIntraRegionLatencyS : routing.latency_s(NodeId(a), NodeId(b));
      l.bandwidth[static_cast<std::size_t>(a) * r + static_cast<std::size_t>(b)] =
          same ? net::kMaxBandwidthMbps : routing.bandwidth_mbps(NodeId(a), NodeId(b));
    }
  }
  return l;
}

/// The running model: owns the engine and every peer. Handlers follow the
/// shard-determinism rules from the header — they touch only the executing
/// peer's state and communicate exclusively through ShardEngine::post with
/// delays >= the window.
class ScaleModel {
 public:
  ScaleModel(const ScaleParams& params, Layout layout)
      : p_(params),
        l_(std::move(layout)),
        engine_(l_.shards, kIntraRegionLatencyS),
        peers_(static_cast<std::size_t>(params.peers)) {
    engine_.set_threads(p_.threads);
    engine_.set_parallel_threshold(p_.parallel_threshold);
  }

  void run() {
    seed_peers();
    engine_.run_until(p_.horizon_s);
  }

  [[nodiscard]] ScaleResult result() const {
    ScaleResult r;
    r.peers = p_.peers;
    r.regions = l_.regions;
    std::uint64_t digest = kFnvOffset;
    auto mix = [&digest](std::uint64_t x) {
      digest ^= x;
      digest *= kFnvPrime;
    };
    for (const grid::ScalePeer& u : peers_) {
      r.tasks_completed += u.tasks_completed;
      r.transfers_completed += u.transfers_completed;
      r.mb_transferred += u.mb_transferred;
      r.gossip_sent += u.gossip_sent;
      r.gossip_merged += u.gossip_merged;
      r.churn_departures += u.churn_departures;
      r.churn_rejoins += u.churn_rejoins;
      r.dropped_messages += u.dropped_messages;
      mix(u.order_hash);
      mix(u.msg_seq);
      mix(u.tasks_completed);
      mix(u.transfers_completed);
      mix(u.mb_transferred);
      mix(u.gossip_sent ^ (u.gossip_merged << 32));
      mix(u.churn_departures ^ (u.churn_rejoins << 32));
      mix(u.dropped_messages);
      mix(u.summary.clock);
      mix(u.summary.heard_tasks);
      mix(u.summary.merges);
      mix(static_cast<std::uint64_t>(u.capacity_mips));
      mix((static_cast<std::uint64_t>(u.contacts.size()) << 1) | (u.alive ? 1u : 0u));
    }
    r.state_digest = digest;
    r.events_processed = engine_.processed();
    r.windows = engine_.windows();
    r.pending_max = engine_.pending_max();
    r.shards = l_.shards;
    r.threads = p_.threads;
    r.parallel_windows = engine_.parallel_windows();
    r.window_s = kIntraRegionLatencyS;
    return r;
  }

 private:
  [[nodiscard]] int region_of(int peer) const {
    return static_cast<int>(static_cast<std::int64_t>(peer) * l_.regions / p_.peers);
  }
  [[nodiscard]] int shard_of(int peer) const {
    return l_.region_shard[static_cast<std::size_t>(region_of(peer))];
  }
  [[nodiscard]] double latency(int u, int v) const {
    return l_.latency[static_cast<std::size_t>(region_of(u)) * static_cast<std::size_t>(l_.regions) +
                      static_cast<std::size_t>(region_of(v))];
  }
  [[nodiscard]] double bandwidth(int u, int v) const {
    return l_.bandwidth[static_cast<std::size_t>(region_of(u)) *
                            static_cast<std::size_t>(l_.regions) +
                        static_cast<std::size_t>(region_of(v))];
  }
  // The engine window is the intra-region (LAN) latency floor,
  // kIntraRegionLatencyS: the true minimum message delay in the model,
  // because every delay — including routed inter-region latencies that
  // happen to be shorter, and zero-latency links — is clamped up to it (a
  // WAN hop faster than a LAN hop would be unphysical anyway). Two properties
  // hang on this choice: the window never depends on the shard count (or
  // digests would diverge across counts), and it is orders of magnitude
  // wider than the closest backbone pair, so windows are dense enough for the
  // parallel drive to pay off.

  /// Message delay: routed latency, never below the conservative window.
  [[nodiscard]] double delay(int u, int v) const {
    return std::max(kIntraRegionLatencyS, latency(u, v));
  }
  /// Clamps a timer interval so the self-post clears the lookahead check.
  [[nodiscard]] double interval(double dt) const { return std::max(kIntraRegionLatencyS, dt); }

  /// Globally unique message key: sender id in the high bits, the sender's
  /// own message counter below. Ties on arrival time resolve by key, so the
  /// tie order is sender-id order — fixed, whatever the shard layout.
  std::uint64_t next_key(int sender) {
    grid::ScalePeer& u = peers_[static_cast<std::size_t>(sender)];
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(sender)) << 32) | (u.msg_seq++);
  }

  template <typename Fn>
  void send(int from, int to, double at, Fn fn) {
    engine_.post(shard_of(from), shard_of(to), at, next_key(from), sim::EventFn(std::move(fn)));
  }

  // --- handlers -----------------------------------------------------------

  void gossip_tick(int i, SimTime t) {
    grid::ScalePeer& u = peers_[static_cast<std::size_t>(i)];
    u.fold(kGossipTick, u.summary.clock);
    const double next = t + interval(u.rng.exponential(p_.gossip_period_s));
    send(i, i, next, [this, i, next] { gossip_tick(i, next); });
    if (!u.alive || u.contacts.empty()) return;
    const int v = static_cast<int>(u.contacts[u.rng.index(u.contacts.size())]);
    u.summary.clock += 1;
    ++u.gossip_sent;
    const Wire snap{u.summary.clock, u.tasks_completed};
    const double at = t + delay(i, v);
    send(i, v, at, [this, v, at, i, snap] { on_gossip_request(v, at, i, snap); });
  }

  void on_gossip_request(int i, SimTime t, int from, Wire snap) {
    grid::ScalePeer& v = peers_[static_cast<std::size_t>(i)];
    v.fold(kGossipRequest, (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) ^
                               snap.clock);
    if (!v.alive) {
      ++v.dropped_messages;
      return;
    }
    merge_wire(v, snap);
    // Pull half of the push-pull exchange: answer with our own summary.
    v.summary.clock += 1;
    ++v.gossip_sent;
    const Wire reply{v.summary.clock, v.tasks_completed};
    const double at = t + delay(i, from);
    send(i, from, at, [this, from, at, reply] { on_gossip_reply(from, at, reply); });
  }

  void on_gossip_reply(int i, SimTime t, Wire snap) {
    (void)t;
    grid::ScalePeer& u = peers_[static_cast<std::size_t>(i)];
    u.fold(kGossipReply, snap.clock);
    if (!u.alive) {
      ++u.dropped_messages;
      return;
    }
    merge_wire(u, snap);
  }

  static void merge_wire(grid::ScalePeer& local, Wire snap) {
    gossip::merge(local.summary, gossip::PeerSummary{snap.clock, snap.tasks_done, 0, 0});
    ++local.gossip_merged;
  }

  void task_tick(int i, SimTime t) {
    grid::ScalePeer& u = peers_[static_cast<std::size_t>(i)];
    u.fold(kTaskTick, u.tasks_completed);
    const double next = t + interval(p_.task_period_s);
    send(i, i, next, [this, i, next] { task_tick(i, next); });
    if (!u.alive) return;
    const double work = u.rng.uniform(p_.min_load_mi, p_.max_load_mi);
    // Nominal 100 MIPS per capacity unit; clamped so completion clears the
    // lookahead check even for tiny tasks.
    const double at = t + interval(work / (u.capacity_mips * 100.0));
    send(i, i, at, [this, i, at] { on_task_done(i, at); });
  }

  void on_task_done(int i, SimTime t) {
    (void)t;
    grid::ScalePeer& u = peers_[static_cast<std::size_t>(i)];
    u.fold(kTaskDone, u.tasks_completed);
    if (!u.alive) {
      // Departed mid-execution: the task is lost, like a churn-failed task in
      // the full model.
      ++u.dropped_messages;
      return;
    }
    ++u.tasks_completed;
    u.summary.clock += 1;
    u.summary.tasks_done = u.tasks_completed;
  }

  void transfer_tick(int i, SimTime t) {
    grid::ScalePeer& u = peers_[static_cast<std::size_t>(i)];
    u.fold(kTransferTick, u.transfers_completed);
    const double next = t + interval(p_.transfer_period_s);
    send(i, i, next, [this, i, next] { transfer_tick(i, next); });
    if (!u.alive || u.contacts.empty()) return;
    const int v = static_cast<int>(u.contacts[u.rng.index(u.contacts.size())]);
    const double size = u.rng.uniform(p_.min_data_mb, p_.max_data_mb);
    const double at = t + delay(i, v);
    send(i, v, at, [this, v, at, i, size] { on_transfer_request(v, at, i, size); });
  }

  void on_transfer_request(int i, SimTime t, int from, double size_mb) {
    grid::ScalePeer& v = peers_[static_cast<std::size_t>(i)];
    v.fold(kTransferRequest, static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)));
    if (!v.alive) {
      ++v.dropped_messages;
      return;
    }
    const double bw = bandwidth(from, i);
    if (!(bw > 0.0)) {  // unreachable region pair
      ++v.dropped_messages;
      return;
    }
    const double at = t + interval(size_mb * 8.0 / bw);
    send(i, i, at, [this, i, at, from, size_mb] { on_transfer_done(i, at, from, size_mb); });
  }

  void on_transfer_done(int i, SimTime t, int from, double size_mb) {
    grid::ScalePeer& v = peers_[static_cast<std::size_t>(i)];
    v.fold(kTransferDone, static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)));
    if (!v.alive) {
      ++v.dropped_messages;
      return;
    }
    ++v.transfers_completed;
    v.mb_transferred += static_cast<std::uint64_t>(size_mb);
    v.summary.clock += 1;
    // Completion notice back to the requester: the choreographed cross-shard
    // round trip (request -> completion -> ack) the ordering tests pin down.
    const double at = t + delay(i, from);
    send(i, from, at, [this, from, at, i] { on_transfer_ack(from, at, i); });
  }

  void on_transfer_ack(int i, SimTime t, int peer) {
    (void)t;
    grid::ScalePeer& u = peers_[static_cast<std::size_t>(i)];
    u.fold(kTransferAck, static_cast<std::uint64_t>(static_cast<std::uint32_t>(peer)));
    if (!u.alive) ++u.dropped_messages;
  }

  void churn_fail(int i, SimTime t) {
    grid::ScalePeer& u = peers_[static_cast<std::size_t>(i)];
    u.fold(kChurnFail, u.churn_departures);
    if (u.alive) {
      u.alive = false;
      ++u.churn_departures;
      notify_contacts(i, t, /*up=*/false);
    }
    const double back = t + interval(u.rng.exponential(kMeanDowntimeS));
    send(i, i, back, [this, i, back] { churn_rejoin(i, back); });
  }

  void churn_rejoin(int i, SimTime t) {
    grid::ScalePeer& u = peers_[static_cast<std::size_t>(i)];
    u.fold(kChurnRejoin, u.churn_rejoins);
    if (!u.alive) {
      u.alive = true;
      ++u.churn_rejoins;
      u.summary.clock += 1;
      notify_contacts(i, t, /*up=*/true);
    }
    const double next = t + interval(u.rng.exponential(p_.mean_lifetime_s));
    send(i, i, next, [this, i, next] { churn_fail(i, next); });
  }

  void notify_contacts(int i, SimTime t, bool up) {
    grid::ScalePeer& u = peers_[static_cast<std::size_t>(i)];
    for (const std::uint32_t c : u.contacts) {
      const int target = static_cast<int>(c);
      const double at = t + delay(i, target);
      send(i, target, at, [this, target, at, i, up] { on_churn_notice(target, at, i, up); });
    }
  }

  void on_churn_notice(int i, SimTime t, int peer, bool up) {
    (void)t;
    grid::ScalePeer& v = peers_[static_cast<std::size_t>(i)];
    v.fold(kChurnNotice,
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(peer)) << 1) | (up ? 1u : 0u));
    if (!v.alive) {
      ++v.dropped_messages;
      return;
    }
    if (up) {
      if (!v.knows(static_cast<std::uint32_t>(peer)) &&
          v.contacts.size() < 2 * static_cast<std::size_t>(core::kBootstrapContacts)) {
        v.contacts.push_back(static_cast<std::uint32_t>(peer));
      }
    } else {
      v.forget(static_cast<std::uint32_t>(peer));
    }
  }

  // --- initialisation -----------------------------------------------------

  void seed_peers() {
    const util::Rng root(p_.seed);
    const int n = p_.peers;
    for (int i = 0; i < n; ++i) {
      grid::ScalePeer& u = peers_[static_cast<std::size_t>(i)];
      u.rng = root.fork("scale-peer", static_cast<std::uint64_t>(i));
      u.capacity_mips = kCapacities[u.rng.index(std::size(kCapacities))];
      pick_contacts(u, i, n);

      const double g0 = u.rng.uniform(0.0, p_.gossip_period_s);
      engine_.seed(shard_of(i), g0, next_key(i), sim::EventFn([this, i, g0] { gossip_tick(i, g0); }));
      const double t0 = u.rng.uniform(0.0, p_.task_period_s);
      engine_.seed(shard_of(i), t0, next_key(i), sim::EventFn([this, i, t0] { task_tick(i, t0); }));
      const double x0 = u.rng.uniform(0.0, p_.transfer_period_s);
      engine_.seed(shard_of(i), x0, next_key(i),
                   sim::EventFn([this, i, x0] { transfer_tick(i, x0); }));
      if (p_.mean_lifetime_s > 0.0) {
        const double c0 = u.rng.exponential(p_.mean_lifetime_s);
        engine_.seed(shard_of(i), c0, next_key(i),
                     sim::EventFn([this, i, c0] { churn_fail(i, c0); }));
      }
    }
  }

  /// Draws core::kBootstrapContacts distinct peers != i by rejection (k is
  /// tiny relative to n, so retries are rare; util::Rng::sample_indices is
  /// O(n) per call and would make initialisation quadratic at 10^6 peers).
  void pick_contacts(grid::ScalePeer& u, int i, int n) {
    const int k = std::min(core::kBootstrapContacts, n - 1);
    u.contacts.reserve(static_cast<std::size_t>(std::max(k, 0)));
    while (static_cast<int>(u.contacts.size()) < k) {
      // Uniform over [0, n-1) then skip our own slot: uniform over peers != i.
      std::size_t c = u.rng.index(static_cast<std::size_t>(n - 1));
      if (c >= static_cast<std::size_t>(i)) ++c;
      const auto id = static_cast<std::uint32_t>(c);
      if (!u.knows(id)) u.contacts.push_back(id);
    }
  }

  const ScaleParams& p_;
  const Layout l_;
  sim::ShardEngine engine_;
  std::vector<grid::ScalePeer> peers_;
};

}  // namespace

ScaleResult run_scale_model(const ScaleParams& params) {
  validate(params);
  ScaleModel model(params, build_layout(params));
  const auto start = std::chrono::steady_clock::now();
  model.run();
  const auto stop = std::chrono::steady_clock::now();
  ScaleResult result = model.result();
  result.wall_s = std::chrono::duration<double>(stop - start).count();
  return result;
}

std::uint64_t scale_digest(const ScaleResult& result) {
  std::uint64_t digest = kFnvOffset;
  auto mix = [&digest](std::uint64_t x) {
    digest ^= x;
    digest *= kFnvPrime;
  };
  // Only shard/thread-invariant fields: never shards, threads, windows,
  // pending_max, parallel_windows, window_s or wall_s.
  mix(static_cast<std::uint64_t>(result.peers));
  mix(static_cast<std::uint64_t>(result.regions));
  mix(result.tasks_completed);
  mix(result.transfers_completed);
  mix(result.mb_transferred);
  mix(result.gossip_sent);
  mix(result.gossip_merged);
  mix(result.churn_departures);
  mix(result.churn_rejoins);
  mix(result.dropped_messages);
  mix(result.events_processed);
  mix(result.state_digest);
  return digest;
}

ScaleParams scale_params_from_config(const ExperimentConfig& config) {
  ScaleParams p;
  p.peers = config.nodes;
  p.horizon_s = config.system.horizon_s;
  p.gossip_period_s = config.system.gossip.cycle_s;
  p.task_period_s = config.system.scheduling_interval_s;
  p.transfer_period_s = config.system.scheduling_interval_s * 2.0 / 3.0;
  p.min_load_mi = config.workflow.min_load_mi;
  p.max_load_mi = config.workflow.max_load_mi;
  p.min_data_mb = config.workflow.min_data_mb;
  p.max_data_mb = config.workflow.max_data_mb;
  if (config.dynamic_factor > 0.0) {
    // Same convention as the full model: dynamic factor 1.0 ~ one-hour mean
    // lifetime (downtime is kMeanDowntimeS).
    p.mean_lifetime_s = 3600.0 / config.dynamic_factor;
  }
  p.threads = config.routing_threads;
  p.seed = config.seed;
  return p;
}

}  // namespace dpjit::exp
