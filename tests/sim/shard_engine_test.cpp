// The conservative time-window contract of ShardEngine: windows respect the
// lookahead, ALL messages (cross-shard and self alike) deliver in one global
// (time, key) order per barrier, and results are byte-identical at any shard
// count and any worker-thread count. These are the properties the scale/*
// scenarios and the shard-determinism CI job build on.
#include "sim/shard_engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace dpjit::sim {
namespace {

TEST(ShardEngine, CtorRejectsBadArguments) {
  EXPECT_THROW(ShardEngine(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ShardEngine(-3, 1.0), std::invalid_argument);
  EXPECT_THROW(ShardEngine(1, 0.0), std::invalid_argument);
  EXPECT_THROW(ShardEngine(1, -0.5), std::invalid_argument);
  EXPECT_THROW(ShardEngine(1, std::numeric_limits<double>::infinity()), std::invalid_argument);
  EXPECT_THROW(ShardEngine(1, std::numeric_limits<double>::quiet_NaN()), std::invalid_argument);
  EXPECT_NO_THROW(ShardEngine(1, 1e-9));
}

TEST(ShardEngine, SeedsRunInTimeThenKeyOrderNotCallOrder) {
  ShardEngine e(1, 1.0);
  std::vector<int> order;
  // Deliberately seeded out of time order, and with same-time keys reversed
  // relative to call order.
  e.seed(0, 5.0, /*key=*/7, [&] { order.push_back(3); });
  e.seed(0, 2.0, /*key=*/9, [&] { order.push_back(2); });
  e.seed(0, 2.0, /*key=*/4, [&] { order.push_back(1); });
  e.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.processed(), 3u);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(ShardEngine, EventsAtHorizonRunAndClocksAdvance) {
  ShardEngine e(2, 1.0);
  std::vector<double> fired;
  e.seed(0, 1.0, 1, [&] { fired.push_back(1.0); });
  e.seed(1, 2.0, 2, [&] { fired.push_back(2.0); });
  e.seed(0, 3.0, 3, [&] { fired.push_back(3.0); });
  e.run_until(2.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(e.now(0), 2.0);
  EXPECT_DOUBLE_EQ(e.now(1), 2.0);
  EXPECT_GT(e.pending(), 0u);
  e.run_until(10.0);
  EXPECT_EQ(fired.size(), 3u);
  EXPECT_DOUBLE_EQ(e.now(0), 10.0);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(ShardEngine, SeedRejectsNegativeTimeAndOutOfRangeShard) {
  ShardEngine e(2, 1.0);
  EXPECT_THROW(e.seed(0, -1.0, 1, [] {}), std::logic_error);
  EXPECT_THROW(e.seed(2, 1.0, 1, [] {}), std::out_of_range);
  EXPECT_THROW(e.seed(-1, 1.0, 1, [] {}), std::out_of_range);
}

TEST(ShardEngine, SeedAfterRunStartsThrows) {
  ShardEngine e(1, 1.0);
  e.seed(0, 1.0, 1, [] {});
  e.run_until(2.0);
  EXPECT_THROW(e.seed(0, 5.0, 2, [] {}), std::logic_error);
}

TEST(ShardEngine, PostBelowLookaheadThrows) {
  ShardEngine e(1, 1.0);
  bool exact_ok = false;
  e.seed(0, 5.0, 1, [&] {
    // Arrival inside the sender's current window: conservative violation.
    EXPECT_THROW(e.post(0, 0, 5.5, 2, [] {}), std::logic_error);
    EXPECT_THROW(e.post(0, 0, 4.0, 3, [] {}), std::logic_error);
    // Exactly now + window is the tight legal bound.
    e.post(0, 0, 6.0, 4, [&] { exact_ok = true; });
  });
  e.run_until(10.0);
  EXPECT_TRUE(exact_ok);
}

/// Runs the same 3-peer choreography at a given shard count: peers 1 and 2
/// (mapped to different shards when possible) each send peer 0 a message
/// arriving at the SAME time, with keys ordered OPPOSITE to the senders'
/// execution order. The delivery order must follow the keys — and therefore
/// be identical at every shard count.
std::vector<int> run_tie_choreography(int shards) {
  ShardEngine e(shards, 1.0);
  auto shard_of = [&](int peer) { return peer % shards; };
  std::vector<int> delivered;
  // Sender 1 executes first (earlier seed time) but uses the LARGER key.
  e.seed(shard_of(1), 1.0, 10, [&] {
    e.post(shard_of(1), shard_of(0), 3.0, /*key=*/200, [&] { delivered.push_back(1); });
  });
  e.seed(shard_of(2), 1.5, 11, [&] {
    e.post(shard_of(2), shard_of(0), 3.0, /*key=*/100, [&] { delivered.push_back(2); });
  });
  e.run_until(5.0);
  return delivered;
}

TEST(ShardEngine, SameTimeCrossShardMessagesDeliverInKeyOrder) {
  const std::vector<int> expect{2, 1};  // key 100 before key 200
  EXPECT_EQ(run_tie_choreography(1), expect);
  EXPECT_EQ(run_tie_choreography(2), expect);
  EXPECT_EQ(run_tie_choreography(3), expect);
}

TEST(ShardEngine, SelfMessagesTakeTheSameSortedPath) {
  // Intra-shard sends must not bypass the barrier sort, or 1-shard and
  // n-shard runs would disagree on tie order.
  ShardEngine e(1, 1.0);
  std::vector<int> delivered;
  e.seed(0, 1.0, 1, [&] {
    e.post(0, 0, 4.0, /*key=*/300, [&] { delivered.push_back(300); });
    e.post(0, 0, 4.0, /*key=*/100, [&] { delivered.push_back(100); });
    e.post(0, 0, 4.0, /*key=*/200, [&] { delivered.push_back(200); });
  });
  e.run_until(5.0);
  EXPECT_EQ(delivered, (std::vector<int>{100, 200, 300}));
}

/// Deterministic mini-model for invariance checks: P peers on a ring, each
/// event folds into the OWNING peer's hash only (the scale-model state rule)
/// and forwards to two neighbours after a delay >= the window, stretched by
/// `delay_scale`. Returns the per-peer order hashes plus the engine's window
/// count.
struct MiniRun {
  std::vector<std::uint64_t> hashes;
  std::uint64_t windows = 0;
  std::uint64_t parallel_windows = 0;
  std::uint64_t processed = 0;
};

MiniRun run_mini_model(int shards, int threads, std::size_t threshold, double delay_scale = 1.0) {
  constexpr int kPeers = 24;
  constexpr double kWindow = 0.5;
  ShardEngine e(shards, kWindow);
  e.set_threads(threads);
  e.set_parallel_threshold(threshold);

  struct Peer {
    std::uint64_t hash = 1469598103934665603ULL;
    std::uint64_t seq = 0;
    int hops_left = 0;
  };
  std::vector<Peer> peers(kPeers);
  auto shard_of = [&](int peer) { return peer % shards; };
  auto key = [&](int peer) {
    return (static_cast<std::uint64_t>(peer) << 32) | peers[static_cast<std::size_t>(peer)].seq++;
  };

  // fold + forward; the closure only ever touches peers[i].
  std::function<void(int, double, int)> arrive = [&](int i, double t, int hops) {
    Peer& p = peers[static_cast<std::size_t>(i)];
    p.hash = (p.hash ^ static_cast<std::uint64_t>(t * 1e6)) * 1099511628211ULL;
    p.hash = (p.hash ^ static_cast<std::uint64_t>(hops)) * 1099511628211ULL;
    if (hops <= 0) return;
    for (const int step : {1, 3}) {
      const int to = (i + step) % kPeers;
      const double at = t + delay_scale * (kWindow + 0.25 * step);
      e.post(shard_of(i), shard_of(to), at, key(i),
             [&arrive, to, at, hops] { arrive(to, at, hops - 1); });
    }
  };

  for (int i = 0; i < kPeers; ++i) {
    const double t0 = 0.125 * i;
    e.seed(shard_of(i), t0, key(i), [&arrive, i, t0] { arrive(i, t0, 6); });
  }
  e.run_until(60.0 * delay_scale);

  MiniRun out;
  for (const Peer& p : peers) out.hashes.push_back(p.hash);
  out.windows = e.windows();
  out.parallel_windows = e.parallel_windows();
  out.processed = e.processed();
  return out;
}

TEST(ShardEngine, ResultsInvariantAcrossShardAndThreadCounts) {
  // At delay scale 1 every event stays inside the pending set's ring (4096
  // buckets of 64 windows, 131 072 s here). At 2e5 every forward lands
  // beyond it, after an idle gap: refills jump across an empty ring into
  // the overflow, and later forwards mix the ring with the overflow.
  for (const double delay_scale : {1.0, 2e5}) {
    const MiniRun base = run_mini_model(1, 1, 2048, delay_scale);
    ASSERT_GT(base.processed, 24u * 50u) << "delay_scale=" << delay_scale;  // the cascade ran
    for (const int shards : {2, 3, 4, 8, 24}) {
      for (const int threads : {1, 2, 4}) {
        const auto where = ::testing::Message() << "delay_scale=" << delay_scale
                                                << " shards=" << shards << " threads=" << threads;
        // Threshold 0 forces EVERY window through the worker-pool path.
        const MiniRun run = run_mini_model(shards, threads, 0, delay_scale);
        EXPECT_EQ(run.hashes, base.hashes) << where;
        EXPECT_EQ(run.processed, base.processed) << where;
        // The window sequence itself is shard-invariant (it depends only on
        // event times), which is what makes the above possible.
        EXPECT_EQ(run.windows, base.windows) << where;
        if (threads > 1) {
          EXPECT_GT(run.parallel_windows, 0u) << "forced threshold should exercise the pool; "
                                              << where;
        }
      }
    }
  }
}

TEST(ShardEngine, SingleNodeShardsAndAllInOneShardAgree) {
  // The two partition extremes of the lookahead edge cases: every peer its
  // own shard vs everything in one shard.
  const MiniRun one = run_mini_model(1, 2, 0);
  const MiniRun finest = run_mini_model(24, 2, 0);
  EXPECT_EQ(one.hashes, finest.hashes);
  EXPECT_EQ(one.windows, finest.windows);
}

TEST(ShardEngine, DuplicateTimeAndKeyThrows) {
  // Two deliveries sharing (time, key) have no defined order: it would follow
  // the shard that produced each, so it would change with the shard count.
  for (const int shards : {1, 2}) {
    ShardEngine e(shards, 1.0);
    e.seed(0, 1.0, 10, [&] { e.post(0, 0, 3.0, /*key=*/7, [] {}); });
    e.seed(shards - 1, 1.5, 11, [&] { e.post(shards - 1, 0, 3.0, /*key=*/7, [] {}); });
    try {
      e.run_until(5.0);
      ADD_FAILURE() << "duplicate key accepted at shards=" << shards;
    } catch (const std::logic_error& err) {
      EXPECT_NE(std::string(err.what()).find("duplicate message key 7"), std::string::npos)
          << err.what();
    }
  }
  // Seeds take the same drain.
  ShardEngine seeded(1, 1.0);
  seeded.seed(0, 2.0, 5, [] {});
  seeded.seed(0, 2.0, 5, [] {});
  EXPECT_THROW(seeded.run_until(5.0), std::logic_error);
  // A key may repeat at a different time.
  ShardEngine ok(1, 1.0);
  ok.seed(0, 2.0, 5, [] {});
  ok.seed(0, 3.0, 5, [] {});
  EXPECT_NO_THROW(ok.run_until(5.0));
  EXPECT_EQ(ok.processed(), 2u);
}

TEST(ShardEngine, NanTimesAreRejected) {
  ShardEngine e(1, 1.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(e.seed(0, nan, 1, [] {}), std::logic_error);
  e.seed(0, 1.0, 2, [&] { EXPECT_THROW(e.post(0, 0, nan, 3, [] {}), std::logic_error); });
  e.run_until(2.0);
  EXPECT_EQ(e.processed(), 1u);
}

TEST(ShardEngine, ExceptionInParallelWindowPropagates) {
  ShardEngine e(2, 1.0);
  e.set_threads(2);
  e.set_parallel_threshold(0);
  // Enough payload that both shards participate, one event throwing.
  for (int i = 0; i < 8; ++i) {
    e.seed(i % 2, 1.0 + i, static_cast<std::uint64_t>(i), [] {});
  }
  e.seed(0, 3.0, 100, [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(e.run_until(20.0), std::runtime_error);
  // The pool must have been shut down cleanly: destruction cannot hang.
}

TEST(ShardEngine, AccountingCoversQueuesOutboxesAndSeeds) {
  ShardEngine e(2, 1.0);
  EXPECT_EQ(e.pending(), 0u);
  e.seed(0, 1.0, 1, [] {});
  e.seed(1, 2.0, 2, [] {});
  EXPECT_GT(e.pending(), 0u);
  EXPECT_EQ(e.pending(), 2u);
  e.run_until(0.5);  // a window boundary before any event
  EXPECT_EQ(e.pending(), 2u);
  EXPECT_EQ(e.processed(), 0u);
  e.run_until(10.0);
  EXPECT_EQ(e.processed(), 2u);
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(e.pending_max(), 2u);  // both seeds, at the first barrier
}

}  // namespace
}  // namespace dpjit::sim
