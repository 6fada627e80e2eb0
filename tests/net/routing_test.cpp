#include "net/routing.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "net/rate_oracle.hpp"

namespace dpjit::net {
namespace {

// A small fixed topology:
//   0 --(bw 10, lat 1)-- 1 --(bw 2, lat 1)-- 2
//   0 --------(bw 5, lat 5)---------------- 2
Topology triangle() {
  return Topology::from_links(3, {{NodeId{0}, NodeId{1}, 10.0, 1.0},
                                  {NodeId{1}, NodeId{2}, 2.0, 1.0},
                                  {NodeId{0}, NodeId{2}, 5.0, 5.0}});
}

TEST(Routing, SelfIsFree) {
  const auto topo = triangle();
  Routing r(topo);
  EXPECT_DOUBLE_EQ(r.latency_s(NodeId{1}, NodeId{1}), 0.0);
  EXPECT_TRUE(std::isinf(r.bandwidth_mbps(NodeId{1}, NodeId{1})));
  EXPECT_DOUBLE_EQ(transfer_time_from_rate(r.latency_s(NodeId{1}, NodeId{1}),
                                           r.bandwidth_mbps(NodeId{1}, NodeId{1}), 1000.0),
                   0.0);
  EXPECT_EQ(r.hops(NodeId{1}, NodeId{1}), 0);
}

TEST(Routing, ShortestLatencyPathChosen) {
  const auto topo = triangle();
  Routing r(topo);
  // 0->2 via 1 has latency 2 < 5 direct; bottleneck bw = min(10,2) = 2.
  EXPECT_DOUBLE_EQ(r.latency_s(NodeId{0}, NodeId{2}), 2.0);
  EXPECT_DOUBLE_EQ(r.bandwidth_mbps(NodeId{0}, NodeId{2}), 2.0);
  EXPECT_EQ(r.hops(NodeId{0}, NodeId{2}), 2);
}

TEST(Routing, TransferTimeCombinesLatencyAndBandwidth) {
  const auto topo = triangle();
  Routing r(topo);
  // 100 Mb over bw 2 = 50 s + 2 s latency.
  EXPECT_DOUBLE_EQ(transfer_time_from_rate(r.latency_s(NodeId{0}, NodeId{2}),
                                           r.bandwidth_mbps(NodeId{0}, NodeId{2}), 100.0),
                   52.0);
}

TEST(Routing, SymmetricOnUndirectedGraph) {
  const auto topo = triangle();
  Routing r(topo);
  for (int u = 0; u < 3; ++u) {
    for (int v = 0; v < 3; ++v) {
      EXPECT_DOUBLE_EQ(r.latency_s(NodeId{u}, NodeId{v}), r.latency_s(NodeId{v}, NodeId{u}));
      EXPECT_DOUBLE_EQ(r.bandwidth_mbps(NodeId{u}, NodeId{v}),
                       r.bandwidth_mbps(NodeId{v}, NodeId{u}));
    }
  }
}

TEST(Routing, PathLinksReconstruct) {
  const auto topo = triangle();
  Routing r(topo);
  const auto path = r.path_links(NodeId{0}, NodeId{2});
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0].get(), 0);  // 0-1
  EXPECT_EQ(path[1].get(), 1);  // 1-2
  EXPECT_TRUE(r.path_links(NodeId{0}, NodeId{0}).empty());
}

TEST(Routing, UnreachableIsInfinite) {
  const auto topo = Topology::from_links(3, {{NodeId{0}, NodeId{1}, 1.0, 1.0}});
  Routing r(topo);
  EXPECT_TRUE(std::isinf(r.latency_s(NodeId{0}, NodeId{2})));
  EXPECT_DOUBLE_EQ(r.bandwidth_mbps(NodeId{0}, NodeId{2}), 0.0);
  EXPECT_TRUE(std::isinf(transfer_time_from_rate(r.latency_s(NodeId{0}, NodeId{2}),
                                                 r.bandwidth_mbps(NodeId{0}, NodeId{2}), 1.0)));
  EXPECT_TRUE(r.path_links(NodeId{0}, NodeId{2}).empty());
}

// Cross-check Dijkstra against brute-force Floyd-Warshall on random graphs.
class RoutingProperty : public ::testing::TestWithParam<int> {};

TEST_P(RoutingProperty, MatchesFloydWarshall) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 997);
  TopologyParams params;
  params.node_count = 24;
  const auto topo = Topology::generate_waxman(params, rng);
  Routing r(topo);

  const int n = topo.node_count();
  std::vector<std::vector<double>> dist(static_cast<std::size_t>(n),
                                        std::vector<double>(static_cast<std::size_t>(n), kInf));
  for (int i = 0; i < n; ++i) dist[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)] = 0;
  for (const auto& link : topo.links()) {
    auto a = static_cast<std::size_t>(link.a.get());
    auto b = static_cast<std::size_t>(link.b.get());
    dist[a][b] = std::min(dist[a][b], link.latency_s);
    dist[b][a] = std::min(dist[b][a], link.latency_s);
  }
  for (int k = 0; k < n; ++k) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        auto ik = dist[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)];
        auto kj = dist[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)];
        auto& ij = dist[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
        ij = std::min(ij, ik + kj);
      }
    }
  }
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      EXPECT_NEAR(r.latency_s(NodeId{u}, NodeId{v}),
                  dist[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)], 1e-4);
    }
  }
}

TEST_P(RoutingProperty, BottleneckMatchesPathLinks) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  TopologyParams params;
  params.node_count = 30;
  const auto topo = Topology::generate_waxman(params, rng);
  Routing r(topo);
  for (int u = 0; u < topo.node_count(); u += 5) {
    for (int v = 0; v < topo.node_count(); v += 3) {
      if (u == v) continue;
      const auto links = r.path_links(NodeId{u}, NodeId{v});
      ASSERT_FALSE(links.empty());
      double bottleneck = kInf;
      double latency = 0.0;
      for (LinkId l : links) {
        bottleneck = std::min(bottleneck, topo.link(l).bandwidth_mbps);
        latency += topo.link(l).latency_s;
      }
      EXPECT_NEAR(r.bandwidth_mbps(NodeId{u}, NodeId{v}), bottleneck, 1e-4);
      EXPECT_NEAR(r.latency_s(NodeId{u}, NodeId{v}), latency, 1e-4);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingProperty, ::testing::Range(1, 9));

TEST(Routing, MeanPairBandwidthPositive) {
  util::Rng rng(3);
  TopologyParams params;
  params.node_count = 40;
  const auto topo = Topology::generate_waxman(params, rng);
  Routing r(topo);
  const double mean = r.initial_mean_pair_bandwidth_mbps();
  EXPECT_GT(mean, kMinBandwidthMbps);
  EXPECT_LT(mean, kMaxBandwidthMbps);
}

}  // namespace
}  // namespace dpjit::net
