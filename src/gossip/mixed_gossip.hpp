// The mixed gossip protocol (paper Section III.B): epidemic gossip for state
// dissemination (RSS maintenance) + aggregation gossip for global averages.
//
// The service is deliberately decoupled from the grid layer: it reads node
// state (load/capacity/aliveness) through callbacks and delivers epidemic
// messages through the event engine with real network latency. Aggregation
// exchanges are executed atomically at cycle ticks, exactly as cycle-driven
// Peersim protocols do (the control traffic is tiny - ~100 bytes per message,
// see Section IV.A - so its latency is irrelevant at 5-minute cycles).
//
// Every node pushes at the same cycle instant, so the idealized mode collects
// a cycle's epidemic deliveries into one *round*: the pushed entries in a
// flat arena and one (time, seq, target, entry range) record per delivery
// copy. Fault fates, byte charges and engine sequence numbers are taken as
// each push is posted, exactly where scheduling one event per copy took them.
// The round then keeps a single engine event pending - its earliest record -
// and delivers its records in (time, seq) order, running each successor in
// place while sim::Engine::take_next() allows and re-posting it otherwise.
// Delivery order and the engine's event count are those of one event per
// copy. The message-level legs (SYNC/ACK1/ACK2) still schedule one event per
// message: their replies are built at delivery time.
//
// A round is ordered by detail::sort_round, a stable LSD radix sort on
// sim::encode_time(at) over only the key bits that differ within the round.
// Records are appended in rising seq order, so stability alone yields the
// (time, seq) order, ties included. The service owns the sort's second buffer
// and reuses it for every round. A record is 24 bytes: its seq is stored as a
// 32-bit offset from the round's first reserved seq (Round::base_seq), added
// back where the round talks to the engine.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "gossip/failure_detector.hpp"
#include "gossip/view.hpp"
#include "sim/engine.hpp"
#include "sim/fault_plan.hpp"
#include "sim/periodic.hpp"
#include "util/rng.hpp"

namespace dpjit::gossip {

/// Entries older than this many seconds are dropped from RSS (handles
/// churned nodes).
inline constexpr double kStalenessBoundS = 1800.0;
/// Aggregation gossip restarts every this many cycles (epoch length).
inline constexpr int kAggregationEpochCycles = 12;

/// Tuning of the mixed protocol. The push fan-out is always ceil(log2(n))
/// (paper); a zero cache size derives from n the same way.
struct GossipParams {
  /// Gossip cycle length in seconds (paper: 5 minutes).
  double cycle_s = 300.0;
  /// Epidemic TTL in hops (paper: 4).
  int ttl = 4;
  /// RSS capacity; 0 derives ceil(2.5 * log2(n)), capped at 30 - reproduces
  /// the bounded acquaintance count of Fig. 11(a). At most
  /// ResourceView::kMaxCapacity (65534): the constructor throws
  /// std::invalid_argument above it.
  int cache_size = 0;

  // --- message-level mode (realism; ROADMAP item 5) ------------------------
  /// Replaces the cycle's shared-message epidemic push with a phased
  /// SYNC/ACK1/ACK2 push-pull (libgossip's shape): every leg is a real
  /// message with its own latency and - when a sim::FaultPlan is attached -
  /// loss/duplication/extra-delay draws. Membership becomes SWIM-style
  /// suspicion (FailureDetector) instead of the oracular alive() callback.
  /// Each node may SEND at most 3 * fanout + 4 protocol messages per cycle
  /// (initiations and replies both count).
  bool message_level = false;
};

/// System-wide averages produced by the aggregation gossip, as seen by one node.
struct GlobalAverages {
  double capacity_mips = 1.0;
  double bandwidth_mbps = 1.0;
};

namespace detail {

/// One delivery copy of an epidemic round: `to` receives the round's arena
/// entries [first, last) at `at`. `seq` is the engine sequence number reserved
/// at post time, less the round's base_seq.
struct Delivery {
  SimTime at;
  std::uint32_t seq;
  NodeId to;
  std::uint32_t first;
  std::uint32_t last;
};
static_assert(sizeof(Delivery) == 24, "a round record is 24 bytes");

/// Stably sorts `records` by `at`: records with equal times keep their input
/// order. `scratch` is the second buffer; it is resized to the record count
/// and may be reused across calls. Requires no NaN times and fewer than 2^32
/// records.
void sort_round(std::span<Delivery> records, std::vector<Delivery>& scratch);

}  // namespace detail

/// The per-node protocol stack, driven by MixedGossipService.
struct NodeGossip {
  ResourceView rss;
  AggregationState agg_capacity;
  AggregationState agg_bandwidth;
};

class MixedGossipService {
 public:
  /// Reads a node's current (load, capacity); only called for alive nodes.
  using LocalStateFn = std::function<void(NodeId, double& load_mi, double& capacity_mips)>;
  /// True when the node is currently alive.
  using AliveFn = std::function<bool(NodeId)>;
  /// One-way control-message latency between two alive nodes, seconds.
  using LatencyFn = std::function<double(NodeId, NodeId)>;
  /// A node's locally observable mean bandwidth (landmark links), Mb/s.
  using LocalBandwidthFn = std::function<double(NodeId)>;

  /// `faults` (optional, may be null) supplies per-message fault draws; it
  /// must outlive the service. Without a plan every message is delivered
  /// exactly once after its network latency.
  MixedGossipService(sim::Engine& engine, GossipParams params, int node_count,
                     LocalStateFn local_state, AliveFn alive, LatencyFn latency,
                     LocalBandwidthFn local_bw, util::Rng rng, sim::FaultPlan* faults = nullptr);

  /// Seeds every alive node's aggregation state and starts the periodic cycle.
  void start();

  /// Stops the periodic cycle (e.g. at the end of the horizon).
  void stop();

  /// Churn hooks. `bootstrap` is a set of alive contacts for the newcomer
  /// (the role a bootstrap/rendezvous server plays in deployed P2P systems).
  void node_joined(NodeId n, const std::vector<NodeId>& bootstrap);
  void node_left(NodeId n);

  /// RSS snapshot for a scheduler: fresh entries about *alive-believed* peers.
  [[nodiscard]] const ResourceView& rss(NodeId n) const;
  [[nodiscard]] ResourceView& rss(NodeId n);

  /// The averages the node currently believes (last completed epoch).
  [[nodiscard]] GlobalAverages averages(NodeId n) const;

  /// Mean RSS size over alive nodes (Fig. 11(a)).
  [[nodiscard]] double mean_rss_size() const;
  /// Mean number of idle peers (known load == 0) per alive node (Fig. 11(a)).
  [[nodiscard]] double mean_idle_known() const;

  [[nodiscard]] std::uint64_t messages_sent() const { return messages_sent_; }

  /// Estimated control traffic in bytes, using the paper's wire-format
  /// accounting (Section IV.A: ~20-byte header plus ~80 bytes of payload;
  /// we charge 20 bytes header + 20 bytes per carried resource entry).
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }

  /// Message-mode observability (ExperimentResult's detector_* and
  /// gossip_messages_suppressed). detector() is null in the idealized mode.
  [[nodiscard]] const FailureDetector* detector() const { return detector_.get(); }
  /// Sends skipped because the per-cycle message budget was exhausted.
  [[nodiscard]] std::uint64_t messages_suppressed() const { return messages_suppressed_; }

  /// Entries a delivery skipped because they were stamped below the
  /// receiver's stamp floor (the view was full and they could not change it).
  [[nodiscard]] std::uint64_t floor_rejections() const { return floor_rejections_; }

  /// Runs one epidemic + aggregation cycle immediately (tests drive this
  /// directly; normal operation uses start()).
  void run_cycle(std::uint64_t cycle);

  /// Merges the entries of one message delivered to `to`, with one batched
  /// view merge. Drops self-entries; in message mode every other entry first
  /// reaches the failure detector (stale rumors about dead-believed peers are
  /// dropped there), in the idealized mode the oracular alive() filter runs
  /// only for entries above the stamp floor. Every gossip leg delivers
  /// through here; tests drive it directly.
  void receive(NodeId to, std::span<const ResourceEntry> entries);

 private:
  /// One wire-format resource summary: (node, snapshot time). 12 bytes.
  struct EntrySummary {
    NodeId node;
    SimTime stamped_at = 0.0;
  };

  using Delivery = detail::Delivery;
  /// One cycle's epidemic push (idealized mode). Drained rounds keep their
  /// storage and are reused.
  struct Round {
    std::vector<ResourceEntry> entries;
    std::vector<Delivery> deliveries;
    std::uint64_t base_seq = 0;  ///< engine seq of the first record posted
    std::size_t next = 0;        ///< first undelivered record
  };

  /// Appends `from`'s push to `round`: its message to the arena, one record
  /// per delivery copy.
  void epidemic_push(NodeId from, Round& round);
  /// Sorts a filled round and schedules its earliest record (or recycles an
  /// empty round).
  void post_round(std::uint32_t r);
  /// The round's pending event: delivers the next record, then as many more
  /// as the engine lets it take in place, then re-posts the rest.
  void drain_round(std::uint32_t r);
  /// A free round (recycled, or new and sized for a full push), and back.
  [[nodiscard]] std::uint32_t acquire_round();
  void release_round(std::uint32_t r);
  void aggregation_exchange(NodeId from);
  void reseed_aggregation(NodeId n);
  /// Closes an aggregation epoch at `n`: publishes its averages, then reseeds.
  void publish_and_reseed(NodeId n);
  /// Up to `count` gossip partners from `from`'s view. The result lives in a
  /// member buffer that the next call overwrites.
  [[nodiscard]] const std::vector<NodeId>& pick_targets(NodeId from, int count);

  // --- message-level mode ---
  void run_cycle_message(std::uint64_t cycle);
  void start_exchange(NodeId from, NodeId to,
                      const std::shared_ptr<std::vector<EntrySummary>>& digest);
  void on_sync(NodeId from, NodeId to, const std::shared_ptr<std::vector<EntrySummary>>& digest);
  void on_ack1(NodeId from, NodeId to, const std::shared_ptr<std::vector<ResourceEntry>>& push,
               const std::shared_ptr<std::vector<NodeId>>& want);
  /// Charges one send against `n`'s cycle budget; false (and counted) when
  /// exhausted - the message is simply never sent, as a real rate limiter
  /// would do, and the peer's ack timeout handles the fallout.
  [[nodiscard]] bool try_consume_budget(NodeId n);
  /// Charges one message of `bytes` from `from` to `to` and draws its fault
  /// fate. Returns the number of copies to deliver (0 when lost), each after
  /// `delay` seconds.
  [[nodiscard]] int send(NodeId from, NodeId to, std::uint64_t bytes, double& delay);
  /// send(), then schedules the delivery copies of `deliver` straight into
  /// the engine's inline event callbacks.
  template <typename Deliver>
  void post_message(NodeId from, NodeId to, std::uint64_t bytes, Deliver deliver);
  /// The entry `from` forwards about `node` right now (own fresh state when
  /// node == from, ttl-decremented cache entry otherwise; nullopt when the
  /// entry is gone or out of forwarding budget).
  [[nodiscard]] std::optional<ResourceEntry> forwardable_entry(NodeId from, NodeId node);

  sim::Engine& engine_;
  GossipParams params_;
  int n_;
  int fanout_;
  int cache_size_;
  LocalStateFn local_state_;
  AliveFn alive_;
  LatencyFn latency_;
  LocalBandwidthFn local_bw_;
  util::Rng rng_;
  sim::FaultPlan* faults_;
  std::vector<NodeGossip> nodes_;
  std::unique_ptr<sim::PeriodicProcess> cycle_process_;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t floor_rejections_ = 0;
  /// pick_targets() scratch: the shuffled view and the chosen partners.
  std::vector<NodeId> candidates_;
  std::vector<NodeId> targets_;
  /// Epidemic rounds, in flight or free for reuse (indices in free_rounds_).
  std::vector<Round> rounds_;
  std::vector<std::uint32_t> free_rounds_;
  /// post_round()'s sort buffer, shared by every round.
  std::vector<Delivery> sort_scratch_;

  // --- message-level mode state ---
  std::unique_ptr<FailureDetector> detector_;
  std::vector<int> budget_;  ///< remaining sends this cycle, per node
  double ack_timeout_ = 0.0;
  double suspect_timeout_ = 0.0;
  int message_budget_ = 0;
  std::uint64_t messages_suppressed_ = 0;
  /// on_sync() scratch: digest_mark_[node] == digest_epoch_ marks a node the
  /// SYNC being answered carries. Bumping the epoch clears every mark.
  std::vector<std::uint32_t> digest_mark_;
  std::uint32_t digest_epoch_ = 0;
};

}  // namespace dpjit::gossip
