// compute_shard_map: contiguous near-equal partition of a routed network plus
// the conservative lookahead bounds the sharded PDES loop relies on. The
// lookahead semantics (min cross-shard latency vs min latency over all pairs)
// are the foundation of the scale/* shard-determinism guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "exp/scale_model.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "util/types.hpp"

namespace dpjit::exp {
namespace {

/// Min routed latency over all distinct node pairs: the lookahead of the
/// finest partition (every node its own shard).
double min_pair_latency(const net::Routing& routing) {
  double min = kInf;
  for (int u = 0; u < routing.node_count(); ++u) {
    for (int v = 0; v < routing.node_count(); ++v) {
      if (u != v) min = std::min(min, routing.latency_s(NodeId{u}, NodeId{v}));
    }
  }
  return min;
}

net::Topology line_topology(int nodes, double hop_latency_s) {
  std::vector<net::Link> links;
  for (int i = 0; i + 1 < nodes; ++i) {
    links.push_back({NodeId(i), NodeId(i + 1), 10.0, hop_latency_s});
  }
  return net::Topology::from_links(nodes, std::move(links));
}

TEST(ShardMap, PartitionIsContiguousNearEqualAndConsistent) {
  const net::Topology topo = line_topology(10, 0.05);
  const net::Routing routing(topo, 1);
  const ShardMap map = compute_shard_map(routing, 3);

  ASSERT_EQ(map.shards, 3);
  ASSERT_EQ(map.shard_of.size(), 10u);

  // Shards tile [0, nodes) in order, one contiguous block each, with
  // near-equal sizes.
  std::vector<int> sizes(3, 0);
  for (int n = 0; n < 10; ++n) {
    const int s = map.shard_of[static_cast<std::size_t>(n)];
    EXPECT_EQ(map.shard(NodeId(n)), s);
    if (n == 0) {
      EXPECT_EQ(s, 0);
    } else {
      const int prev = map.shard_of[static_cast<std::size_t>(n - 1)];
      EXPECT_TRUE(s == prev || s == prev + 1) << "node " << n;
    }
    ++sizes[static_cast<std::size_t>(s)];
  }
  for (const int size : sizes) {
    EXPECT_GE(size, 10 / 3);
    EXPECT_LE(size, 10 / 3 + 1);
  }
}

TEST(ShardMap, LookaheadIsMinCrossShardLatencyNotMinPairLatency) {
  // Line 0-1-2-3 with one fast hop INSIDE a shard and slower hops elsewhere:
  // the global min-pair latency must not leak into the cross-shard lookahead.
  std::vector<net::Link> links{
      {NodeId(0), NodeId(1), 10.0, 0.001},  // intra-shard (shard 0 = {0, 1})
      {NodeId(1), NodeId(2), 10.0, 0.200},  // the shard boundary
      {NodeId(2), NodeId(3), 10.0, 0.300},  // intra-shard (shard 1 = {2, 3})
  };
  const net::Topology topo = net::Topology::from_links(4, std::move(links));
  const net::Routing routing(topo, 1);
  const ShardMap map = compute_shard_map(routing, 2);

  // Cheapest cross-shard route is 1 -> 2.
  EXPECT_FLOAT_EQ(static_cast<float>(map.lookahead_s), 0.200f);
  // Min over ALL pairs sees the fast intra-shard hop.
  EXPECT_FLOAT_EQ(static_cast<float>(min_pair_latency(routing)), 0.001f);
}

TEST(ShardMap, SingleShardHasInfiniteLookahead) {
  const net::Topology topo = line_topology(5, 0.05);
  const net::Routing routing(topo, 1);
  const ShardMap map = compute_shard_map(routing, 1);
  EXPECT_EQ(map.shards, 1);
  EXPECT_TRUE(std::isinf(map.lookahead_s));
  for (const int s : map.shard_of) EXPECT_EQ(s, 0);
}

TEST(ShardMap, ShardCountClampsToNodeCountAndOne) {
  const net::Topology topo = line_topology(3, 0.05);
  const net::Routing routing(topo, 1);

  const ShardMap finest = compute_shard_map(routing, 99);
  EXPECT_EQ(finest.shards, 3);
  for (int n = 0; n < 3; ++n) {
    EXPECT_EQ(finest.shard_of[static_cast<std::size_t>(n)], n);
  }
  // Every node its own shard: lookahead degenerates to the min pair latency.
  EXPECT_DOUBLE_EQ(finest.lookahead_s, min_pair_latency(routing));

  const ShardMap floor = compute_shard_map(routing, 0);
  EXPECT_EQ(floor.shards, 1);
  const ShardMap negative = compute_shard_map(routing, -4);
  EXPECT_EQ(negative.shards, 1);
}

TEST(ShardMap, ZeroLatencyCrossShardLinkYieldsZeroLookahead) {
  // A zero-latency link across the shard boundary: the map must report the
  // partition as not conservatively shardable (lookahead 0), which is what
  // run_scale_model's delay clamp exists to absorb.
  std::vector<net::Link> links{
      {NodeId(0), NodeId(1), 10.0, 0.1},
      {NodeId(1), NodeId(2), 10.0, 0.0},
      {NodeId(2), NodeId(3), 10.0, 0.1},
  };
  const net::Topology topo = net::Topology::from_links(4, std::move(links));
  const net::Routing routing(topo, 1);
  const ShardMap map = compute_shard_map(routing, 2);
  EXPECT_DOUBLE_EQ(map.lookahead_s, 0.0);
}

TEST(ShardMap, CoarserPartitionsNeverShrinkLookahead) {
  // Monotonicity on a generated backbone: merging shards can only remove
  // cross-shard pairs, so lookahead is non-decreasing as shards decrease.
  net::TopologyParams params;
  params.node_count = 24;
  util::Rng rng(42);
  const net::Topology topo = net::Topology::generate_waxman(params, rng);
  const net::Routing routing(topo, 1);

  double prev = -1.0;
  for (const int shards : {24, 12, 6, 3, 2}) {
    const ShardMap map = compute_shard_map(routing, shards);
    EXPECT_GE(map.lookahead_s, prev) << "shards=" << shards;
    prev = map.lookahead_s;
  }
  // The finest partition's lookahead is the min over all pairs.
  EXPECT_DOUBLE_EQ(compute_shard_map(routing, 24).lookahead_s, min_pair_latency(routing));
}

}  // namespace
}  // namespace dpjit::exp
