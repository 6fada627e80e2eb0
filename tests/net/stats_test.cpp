#include "net/stats.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace dpjit::net {
namespace {

TEST(TopologyStats, LineGraph) {
  const auto topo = Topology::from_links(4, {{NodeId{0}, NodeId{1}, 5.0, 1.0},
                                             {NodeId{1}, NodeId{2}, 5.0, 1.0},
                                             {NodeId{2}, NodeId{3}, 5.0, 1.0}});
  const Routing routing(topo);
  const auto s = topology_stats(topo, routing);
  EXPECT_EQ(s.nodes, 4);
  EXPECT_EQ(s.links, 3u);
  EXPECT_TRUE(s.connected);
  EXPECT_EQ(s.min_degree, 1);
  EXPECT_EQ(s.max_degree, 2);
  EXPECT_DOUBLE_EQ(s.mean_degree, 1.5);
  EXPECT_EQ(s.hop_diameter, 3);
  EXPECT_DOUBLE_EQ(s.max_latency_s, 3.0);
  EXPECT_DOUBLE_EQ(s.mean_bandwidth_mbps, 5.0);
  // Pair latencies: 1,2,3,1,2,1 -> mean 10/6.
  EXPECT_NEAR(s.mean_latency_s, 10.0 / 6.0, 1e-12);
}

TEST(TopologyStats, DisconnectedFlagged) {
  const auto topo = Topology::from_links(3, {{NodeId{0}, NodeId{1}, 1.0, 1.0}});
  const Routing routing(topo);
  const auto s = topology_stats(topo, routing);
  EXPECT_FALSE(s.connected);
  EXPECT_EQ(s.hop_diameter, 1);  // only reachable pairs counted
}

TEST(TopologyStats, WaxmanLooksReasonable) {
  util::Rng rng(5);
  TopologyParams params;
  params.node_count = 60;
  const auto topo = Topology::generate_waxman(params, rng);
  const Routing routing(topo);
  const auto s = topology_stats(topo, routing);
  EXPECT_TRUE(s.connected);
  EXPECT_GE(s.mean_degree, 1.9);  // ~2 links per node in incremental growth
  EXPECT_LE(s.mean_degree, 4.1);
  EXPECT_GT(s.hop_diameter, 2);
  EXPECT_GE(s.mean_bandwidth_mbps, kMinBandwidthMbps);
  EXPECT_LE(s.mean_bandwidth_mbps, kMaxBandwidthMbps);
}

TEST(TopologyStats, PrintIncludesKeyNumbers) {
  const auto topo = Topology::from_links(2, {{NodeId{0}, NodeId{1}, 2.5, 1.0}});
  const Routing routing(topo);
  std::ostringstream os;
  print_topology_stats(os, topology_stats(topo, routing));
  EXPECT_NE(os.str().find("2 nodes"), std::string::npos);
  EXPECT_NE(os.str().find("connected"), std::string::npos);
  EXPECT_NE(os.str().find("2.5"), std::string::npos);
}

}  // namespace
}  // namespace dpjit::net
