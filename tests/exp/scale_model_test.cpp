// Shard-determinism of the scale model end to end: the same parameters must
// produce byte-identical results (including every peer's event-ORDER hash) at
// any shard count and any thread count, with churn, transfers and gossip all
// crossing shard boundaries. Plus the partition edge cases: single-peer
// regions, more shards than regions and the one-shard limit.
#include "exp/scale_model.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "exp/workload_factory.hpp"

namespace dpjit::exp {
namespace {

/// Small but busy configuration: every interaction type active, a few hundred
/// peers over kMaxRegions regions, churn on.
ScaleParams busy_params() {
  ScaleParams p;
  p.peers = 400;
  p.horizon_s = 900.0;
  p.gossip_period_s = 60.0;
  p.task_period_s = 120.0;
  p.transfer_period_s = 90.0;
  p.mean_lifetime_s = 300.0;
  p.seed = 7;
  return p;
}

TEST(ScaleModel, DigestInvariantAcrossShardsAndThreads) {
  ScaleParams base = busy_params();
  const ScaleResult serial = run_scale_model(base);
  ASSERT_GT(serial.events_processed, 10000u);
  ASSERT_GT(serial.tasks_completed, 0u);
  ASSERT_GT(serial.transfers_completed, 0u);
  ASSERT_GT(serial.gossip_merged, 0u);
  ASSERT_GT(serial.churn_departures, 0u);
  const std::uint64_t want = scale_digest(serial);

  for (const int shards : {2, 4, 5, 8}) {
    for (const int threads : {1, 2}) {
      ScaleParams p = base;
      p.shards = shards;
      p.threads = threads;
      p.parallel_threshold = 0;  // force every window onto the worker pool
      const ScaleResult r = run_scale_model(p);
      EXPECT_EQ(scale_digest(r), want) << "shards=" << shards << " threads=" << threads;
      EXPECT_EQ(r.state_digest, serial.state_digest)
          << "per-peer event order diverged at shards=" << shards << " threads=" << threads;
      EXPECT_EQ(r.events_processed, serial.events_processed);
      EXPECT_EQ(r.windows, serial.windows) << "window sequence must be shard-invariant";
      if (threads > 1 && shards > 1) {
        EXPECT_GT(r.parallel_windows, 0u) << "pool path not exercised";
      }
    }
  }
}

TEST(ScaleModel, ShardCountClampsToRegions) {
  ScaleParams p = busy_params();
  p.shards = 2 * kMaxRegions;  // more shards than regions
  const ScaleResult r = run_scale_model(p);
  EXPECT_EQ(r.regions, kMaxRegions);
  EXPECT_EQ(r.shards, kMaxRegions);
  EXPECT_EQ(scale_digest(r), scale_digest(run_scale_model(busy_params())));
}

TEST(ScaleModel, SinglePeerRegionsAgreeWithOneShard) {
  // Finest partition: fewer peers than kMaxRegions puts every peer in its
  // own region, and here in its own shard too.
  ScaleParams p;
  p.peers = 24;
  p.horizon_s = 600.0;
  p.gossip_period_s = 60.0;
  p.task_period_s = 90.0;
  p.transfer_period_s = 75.0;
  p.seed = 11;

  ScaleParams finest = p;
  finest.shards = 24;
  finest.threads = 2;
  finest.parallel_threshold = 0;
  ScaleParams one = p;
  one.shards = 1;

  const ScaleResult a = run_scale_model(one);
  const ScaleResult b = run_scale_model(finest);
  ASSERT_GT(a.events_processed, 500u);
  EXPECT_EQ(scale_digest(a), scale_digest(b));
  EXPECT_EQ(b.regions, 24);
  EXPECT_EQ(b.shards, 24);
}

TEST(ScaleModel, ChurnActuallyCrossesShards) {
  // Sanity on the churn path itself: departures notify contacts (who may sit
  // in other shards), rejoins re-announce, work at departed peers drops.
  const ScaleResult r = run_scale_model(busy_params());
  EXPECT_GT(r.churn_departures, 10u);
  EXPECT_GT(r.churn_rejoins, 0u);
  EXPECT_GT(r.dropped_messages, 0u);
}

TEST(ScaleModel, ValidatesParameters) {
  auto reject = [](void (*mutate)(ScaleParams&)) {
    ScaleParams p;
    mutate(p);
    EXPECT_THROW((void)run_scale_model(p), std::invalid_argument);
  };
  reject([](ScaleParams& p) { p.peers = 0; });
  reject([](ScaleParams& p) { p.horizon_s = 0.0; });
  reject([](ScaleParams& p) { p.gossip_period_s = -1.0; });
  reject([](ScaleParams& p) {
    p.min_data_mb = 10.0;
    p.max_data_mb = 1.0;
  });
  reject([](ScaleParams& p) { p.mean_lifetime_s = -1.0; });
}

TEST(ScaleModel, ParamsFromConfigMapsTheAnalogueKnobs) {
  ExperimentConfig c;
  c.nodes = 5000;
  c.system.horizon_s = 7200.0;
  c.system.gossip.cycle_s = 240.0;
  c.system.scheduling_interval_s = 600.0;
  c.set_load_range(50.0, 500.0);
  c.set_data_range(2.0, 20.0);
  c.dynamic_factor = 0.5;
  c.routing_threads = 3;
  c.seed = 99;

  const ScaleParams p = scale_params_from_config(c);
  EXPECT_EQ(p.peers, 5000);
  EXPECT_DOUBLE_EQ(p.horizon_s, 7200.0);
  EXPECT_DOUBLE_EQ(p.gossip_period_s, 240.0);
  EXPECT_DOUBLE_EQ(p.task_period_s, 600.0);
  EXPECT_DOUBLE_EQ(p.transfer_period_s, 400.0);
  EXPECT_DOUBLE_EQ(p.min_load_mi, 50.0);
  EXPECT_DOUBLE_EQ(p.max_load_mi, 500.0);
  EXPECT_DOUBLE_EQ(p.min_data_mb, 2.0);
  EXPECT_DOUBLE_EQ(p.max_data_mb, 20.0);
  EXPECT_DOUBLE_EQ(p.mean_lifetime_s, 7200.0);  // 3600 / 0.5
  EXPECT_EQ(p.threads, 3);
  EXPECT_EQ(p.seed, 99u);
}

TEST(ScaleModel, SeedChangesResults) {
  ScaleParams a = busy_params();
  ScaleParams b = busy_params();
  b.seed = a.seed + 1;
  EXPECT_NE(scale_digest(run_scale_model(a)), scale_digest(run_scale_model(b)));
}

}  // namespace
}  // namespace dpjit::exp
