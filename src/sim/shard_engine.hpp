// Sharded conservative time-window PDES engine (ROADMAP item 1).
//
// Partitions a simulation into S logical shards, each owning one pending-event
// set and a local clock. Execution proceeds in conservative time windows: with
// every inter-shard interaction delayed by at least the window length L (the
// lookahead), all events in [T, T + L) are causally independent across shards
// and the per-window shard drives can run concurrently on a pool of persistent
// worker threads (spawned once per run_until; windows are far too numerous and
// too small to amortise per-window thread spawns). One shard is the serial
// special case: the same window loop with no threading.
//
// Each shard's pending set is a sim::TwoTierQueue: a small heap over the next
// 64 windows fed from a ring of 4096 coarse buckets of 64 windows each (2 621 s
// at the scale model's 0.01 s window, past its 900 s task period), with an
// overflow heap beyond. It pops in exactly sim::EventQueue's (time, insertion)
// order, but a pop touches a heap of a few hundred entries instead of one
// holding every peer's timers. The engine never cancels, so the set keeps no
// handles.
//
// Determinism contract (the PR 2 pattern, extended across threads):
//   - Within a shard, events run in (time, insertion) order exactly like the
//     serial sim::Engine.
//   - ALL messages — cross-shard and shard-local alike — are buffered in the
//     sending shard's private outbox and delivered at the next window barrier
//     in one globally sorted (time, key) pass. Because the window sequence
//     depends only on event times (never on the shard count), the delivery
//     batches, and therefore every receiver's event order, are byte-identical
//     for ANY shard count and ANY worker-thread count, provided keys are
//     globally unique (see post(); the drain throws on a duplicate).
//   - Worker threads touch disjoint per-shard state only (queue, clock,
//     outbox, counters); the barrier drain runs on the calling thread.
//
// A posted message must arrive no earlier than the sender's local time plus
// the window (checked): that is the conservative-lookahead guarantee that no
// shard ever receives a message into its past.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/two_tier_queue.hpp"
#include "util/types.hpp"

namespace dpjit::sim {

/// Default gate for driving a window on the worker pool (see
/// ShardEngine::set_parallel_threshold). 128 events per window sits about
/// twice above the break-even of the barrier handoff (~10-20 us) against the
/// ~0.35 us a parallel window spends per event (pop plus handler, measured on
/// the 10^5-peer scale model) at 4 workers: the 10^6-peer nightly runs a few
/// hundred events per 10 ms window and parallelises, the 10^5-peer run (~20
/// per window) stays inline, where threading could only lose.
inline constexpr std::size_t kDefaultParallelThreshold = 128;

class ShardEngine {
 public:
  /// Creates `shards` >= 1 shards driven in windows of `window_s` > 0 seconds
  /// of simulated time. `window_s` must not exceed the minimum inter-shard
  /// message latency (the lookahead; see exp::compute_shard_map) or post()
  /// will reject the offending message. Throws std::invalid_argument on a
  /// non-positive/non-finite window or shards < 1.
  ShardEngine(int shards, double window_s);

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  [[nodiscard]] int shards() const { return static_cast<int>(shards_.size()); }
  [[nodiscard]] double window_s() const { return window_; }

  /// Shard-local clock: the time of the shard's current/last executed event,
  /// or the end of the last completed run_until.
  [[nodiscard]] SimTime now(int shard) const { return shards_[idx(shard)].now; }

  /// Schedules an initial event before the first window (t >= 0, any shard;
  /// throws std::logic_error on a negative or NaN time). Seeds flow through
  /// the same sorted delivery path as posted messages, so initial-condition
  /// order is governed by (t, key), not call order.
  void seed(int to_shard, SimTime t, std::uint64_t key, EventFn fn);

  /// Posts a message from within an executing event on `from_shard` to fire
  /// on `to_shard` at absolute time `t`. Requires t >= now(from_shard) +
  /// window (throws std::logic_error otherwise: a conservative-lookahead
  /// violation; a NaN time fails the same check). `key` orders messages that
  /// share an arrival time; it must be globally unique per message (e.g.
  /// sender id << 24 | per-sender counter) for the cross-shard-count
  /// determinism guarantee to hold. The barrier drain throws std::logic_error
  /// when two messages it delivers share both time and key.
  void post(int from_shard, int to_shard, SimTime t, std::uint64_t key, EventFn fn);

  /// Runs windows until every queue is past `end` or drained. Events at
  /// exactly `end` still run; afterwards every shard clock reads `end`.
  void run_until(SimTime end);

  /// True when no pending events or undelivered messages remain.
  [[nodiscard]] bool idle() const;

  /// Worker threads for the window drive (<= 0 = hardware concurrency).
  /// Purely a wall-clock knob: results are byte-identical at any setting.
  void set_threads(int threads) { threads_ = threads; }

  /// Minimum events executed in the PREVIOUS window before the next window is
  /// driven on the worker pool; sparser windows run inline (the two-barrier
  /// handoff would cost more than the payload). Deterministic gate: per-window
  /// executed counts do not depend on the shard or thread count.
  void set_parallel_threshold(std::size_t events) { parallel_threshold_ = events; }

  /// Total events executed across all shards.
  [[nodiscard]] std::uint64_t processed() const;

  /// Pending (scheduled, not yet executed) events across all shards.
  [[nodiscard]] std::size_t pending() const;

  /// Most events pending across all shards at any window barrier (after the
  /// drain). Shard- and thread-invariant, like the window sequence.
  [[nodiscard]] std::size_t pending_max() const { return pending_max_; }

  /// Windows executed so far, and how many of them ran on the thread pool.
  [[nodiscard]] std::uint64_t windows() const { return windows_; }
  [[nodiscard]] std::uint64_t parallel_windows() const { return parallel_windows_; }

 private:
  struct Message {
    SimTime t = 0.0;
    std::uint64_t key = 0;
    std::uint32_t to = 0;
    EventFn fn;
  };

  /// Sort handle of one undelivered message: outbox(box)[index].
  struct Delivery {
    SimTime t = 0.0;
    std::uint64_t key = 0;
    std::uint32_t box = 0;
    std::uint32_t index = 0;
  };

  struct Shard {
    explicit Shard(TwoTierQueue q) : queue(std::move(q)) {}

    TwoTierQueue queue;
    SimTime now = 0.0;
    std::uint64_t processed = 0;
    /// Messages sent by this shard during the current window; only ever
    /// touched by the worker driving the shard (no locks needed).
    std::vector<Message> outbox;
  };

  [[nodiscard]] std::size_t idx(int shard) const;

  /// Message box `b`: shard b's outbox, or the seeds for b == shards().
  [[nodiscard]] std::vector<Message>& outbox(std::uint32_t b) {
    return b < shards_.size() ? shards_[b].outbox : seeds_;
  }

  /// Executes every event of one shard with time < window_end and <= end.
  void drive_shard(Shard& shard, SimTime window_end, SimTime end);

  /// Moves all outbox + seed messages into their destination queues in one
  /// globally sorted (time, key) pass. Throws std::logic_error on a
  /// duplicate (time, key) pair.
  void drain_messages();

  std::vector<Shard> shards_;
  std::vector<Message> seeds_;     ///< seeded before the first drain
  std::vector<Delivery> order_;   ///< reused buffer for the sorted drain
  double window_ = 0.0;
  int threads_ = 0;
  std::size_t parallel_threshold_ = kDefaultParallelThreshold;
  std::uint64_t windows_ = 0;
  std::uint64_t parallel_windows_ = 0;
  std::size_t pending_max_ = 0;
  bool running_ = false;
};

}  // namespace dpjit::sim
