// compute_shard_map: the contiguous near-equal partition the scale model lays
// its regions out on, and the clamping of the shard count.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "exp/scale_model.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "util/types.hpp"

namespace dpjit::exp {
namespace {

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

TEST(ShardMap, SingleShardOwnsEveryNode) {
  const net::Topology topo = line_topology(5, 0.05);
  const net::Routing routing(topo, 1);
  const ShardMap map = compute_shard_map(routing, 1);
  EXPECT_EQ(map.shards, 1);
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

  const ShardMap floor = compute_shard_map(routing, 0);
  EXPECT_EQ(floor.shards, 1);
  const ShardMap negative = compute_shard_map(routing, -4);
  EXPECT_EQ(negative.shards, 1);
}

}  // namespace
}  // namespace dpjit::exp
