// Sharded scale model: a peer-level P2P grid abstraction built for the
// conservative time-window engine (sim::ShardEngine).
//
// The classic GridSystem path cannot be sharded conservatively: fluid fair
// sharing couples every active transfer globally (zero lookahead) and the
// system draws from shared RNG streams, so any event reordering would change
// results and violate the golden-digest policy. The scale model is the
// complementary design point: peers interact ONLY through time-stamped
// messages delayed by at least the engine window, every peer owns a forked
// RNG stream, and a handler touches nothing but the destination peer's state.
// Under those rules the ShardEngine determinism contract applies end to end:
// run_scale_model produces byte-identical results for ANY shard count and ANY
// thread count, which the scale/* scenarios and the shard-determinism CI job
// check continuously.
//
// The model keeps the paper's ingredients at the behavioural level — periodic
// push-pull gossip of resource summaries, task execution on heterogeneous
// capacities, bulk data transfers over a routed backbone, exponential churn
// with contact notification — but deliberately drops workflow structure so a
// single peer is O(1) state and 10^6 peers fit comfortably in memory.
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/topology.hpp"

namespace dpjit::exp {

struct ExperimentConfig;

/// Knobs of one scale-model run. Defaults give the scale/peers-100k scenario.
struct ScaleParams {
  /// Peer count n (10^5 for goldens, 10^6 for the nightly job).
  int peers = 100000;
  /// Backbone regions; peers live in contiguous region blocks and the shard
  /// map partitions REGIONS, not peers. 0 = min(peers, 64).
  int regions = 0;
  /// Shard count for the PDES loop (clamped to [1, regions]). Never affects
  /// results — only wall-clock.
  int shards = 1;
  /// Worker threads for parallel windows (<= 0 = hardware concurrency).
  /// Never affects results.
  int threads = 0;
  /// Events-executed-per-window gate before windows are driven on the worker
  /// pool (sim::ShardEngine::set_parallel_threshold). Never affects results;
  /// tests set 0 to force every window onto the pool even at tiny scale.
  std::size_t parallel_threshold = 128;
  double horizon_s = 3600.0;
  /// Mean of the per-peer exponential gossip interval.
  double gossip_period_s = 300.0;
  /// Fixed per-peer task-generation period (phase-jittered per peer).
  double task_period_s = 900.0;
  /// Fixed per-peer transfer-initiation period (phase-jittered per peer).
  double transfer_period_s = 600.0;
  /// Task work drawn uniformly from [min, max] MI (paper Table I scale).
  double min_load_mi = 1000.0;
  double max_load_mi = 100000.0;
  /// Transfer sizes drawn uniformly from [min, max] MB.
  double min_data_mb = 1.0;
  double max_data_mb = 100.0;
  /// Mean peer lifetime; 0 disables churn.
  double mean_lifetime_s = 0.0;
  /// Mean downtime before a departed peer rejoins.
  double mean_downtime_s = 600.0;
  /// Gossip/transfer partners per peer.
  int contacts = 4;
  /// Message latency between peers of the same region (the LAN floor); also
  /// the engine window length.
  double intra_region_latency_s = 0.01;
  /// Waxman backbone connecting the regions (node_count is overwritten with
  /// `regions`); inter-region latency/bandwidth come from its routed paths.
  net::TopologyParams backbone;
  std::uint64_t seed = 1;
};

/// Aggregate outcome of a scale-model run. Everything above the wall-clock
/// block is invariant to `shards`/`threads` — that invariance IS the product;
/// see scale_digest().
struct ScaleResult {
  int peers = 0;
  int regions = 0;
  std::uint64_t tasks_completed = 0;
  std::uint64_t transfers_completed = 0;
  std::uint64_t mb_transferred = 0;
  std::uint64_t gossip_sent = 0;
  std::uint64_t gossip_merged = 0;
  std::uint64_t churn_departures = 0;
  std::uint64_t churn_rejoins = 0;
  /// Messages that arrived at a departed peer (or over a severed route).
  std::uint64_t dropped_messages = 0;
  /// Events executed by the engine (timers + messages).
  std::uint64_t events_processed = 0;
  /// FNV-1a fold over every peer's full final state, INCLUDING its
  /// order_hash: equality across shard counts proves each peer handled the
  /// same events in the same order.
  std::uint64_t state_digest = 0;
  /// Time windows the engine executed. S-invariant by construction (the
  /// window sequence depends only on event times); asserted by tests but
  /// excluded from scale_digest so a digest mismatch always means state.
  std::uint64_t windows = 0;

  // --- wall-clock / configuration block: varies with shards and threads ---
  int shards = 1;
  int threads = 0;
  std::uint64_t parallel_windows = 0;
  /// Engine window length: the intra-region latency floor,
  /// max(intra_region_latency_s, 1 us); S-invariant.
  double window_s = 0.0;
  /// Min latency between regions in different shards at THIS shard count.
  double lookahead_s = 0.0;
  double wall_s = 0.0;
};

/// Runs the model. Deterministic in (params minus shards/threads): see the
/// file comment. Throws std::invalid_argument on non-positive peers/horizon.
[[nodiscard]] ScaleResult run_scale_model(const ScaleParams& params);

/// FNV-1a digest of the shard/thread-invariant result fields. Two runs that
/// differ only in `shards`/`threads` must produce equal digests.
[[nodiscard]] std::uint64_t scale_digest(const ScaleResult& result);

/// Maps an ExperimentConfig onto ScaleParams so the scale/* scenarios reuse
/// the scenario registry's config plumbing (nodes -> peers, horizon, gossip
/// cycle, workload ranges, dynamic_factor -> mean lifetime, routing_threads
/// -> threads, seed). Fields without an analog keep their defaults.
[[nodiscard]] ScaleParams scale_params_from_config(const ExperimentConfig& config);

}  // namespace dpjit::exp
