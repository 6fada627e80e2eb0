#include "net/topology.hpp"

#include <gtest/gtest.h>

namespace dpjit::net {
namespace {

class WaxmanProperty : public ::testing::TestWithParam<int> {};

TEST_P(WaxmanProperty, ConnectedWithBoundedDegreesAndWeights) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  TopologyParams params;
  params.node_count = 50 + GetParam() * 13;
  const auto topo = Topology::generate_waxman(params, rng);

  EXPECT_EQ(topo.node_count(), params.node_count);
  EXPECT_TRUE(topo.connected());
  // Incremental growth: (n-1) nodes x up to kLinksPerNode links.
  EXPECT_LE(topo.link_count(),
            static_cast<std::size_t>(params.node_count - 1) *
                static_cast<std::size_t>(kLinksPerNode));
  EXPECT_GE(topo.link_count(), static_cast<std::size_t>(params.node_count - 1));

  for (const auto& link : topo.links()) {
    EXPECT_GE(link.bandwidth_mbps, kMinBandwidthMbps);
    EXPECT_LE(link.bandwidth_mbps, kMaxBandwidthMbps);
    EXPECT_GE(link.latency_s, 0.0);
    EXPECT_NE(link.a, link.b);
  }
  for (int i = 0; i < topo.node_count(); ++i) {
    const auto& p = topo.position(NodeId{i});
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, kPlaneSize);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, kPlaneSize);
    EXPECT_FALSE(topo.incident(NodeId{i}).empty()) << "isolated node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WaxmanProperty, ::testing::Range(1, 13));

TEST(Topology, DeterministicForSeed) {
  TopologyParams params;
  params.node_count = 80;
  util::Rng r1(5), r2(5);
  const auto a = Topology::generate_waxman(params, r1);
  const auto b = Topology::generate_waxman(params, r2);
  ASSERT_EQ(a.link_count(), b.link_count());
  for (std::size_t i = 0; i < a.link_count(); ++i) {
    const auto& la = a.link(LinkId{static_cast<LinkId::underlying_type>(i)});
    const auto& lb = b.link(LinkId{static_cast<LinkId::underlying_type>(i)});
    EXPECT_EQ(la.a, lb.a);
    EXPECT_EQ(la.b, lb.b);
    EXPECT_DOUBLE_EQ(la.bandwidth_mbps, lb.bandwidth_mbps);
  }
}

TEST(Topology, SingleNode) {
  TopologyParams params;
  params.node_count = 1;
  util::Rng rng(1);
  const auto topo = Topology::generate_waxman(params, rng);
  EXPECT_EQ(topo.link_count(), 0u);
  EXPECT_TRUE(topo.connected());
}

TEST(Topology, FromLinksAndOtherEnd) {
  std::vector<Link> links{{NodeId{0}, NodeId{1}, 5.0, 0.01}, {NodeId{1}, NodeId{2}, 2.0, 0.02}};
  const auto topo = Topology::from_links(3, links);
  EXPECT_TRUE(topo.connected());
  EXPECT_EQ(topo.other_end(LinkId{0}, NodeId{0}), NodeId{1});
  EXPECT_EQ(topo.other_end(LinkId{0}, NodeId{1}), NodeId{0});
}

TEST(Topology, FromLinksValidates) {
  EXPECT_THROW(Topology::from_links(2, {{NodeId{0}, NodeId{5}, 1.0, 0.0}}), std::out_of_range);
  EXPECT_THROW(Topology::from_links(2, {{NodeId{0}, NodeId{1}, -1.0, 0.0}}),
               std::invalid_argument);
  // Zero capacity is a legal dead/saturated link (the fair-sharing model
  // assigns rate 0 across it; the bottleneck model treats it as unreachable).
  EXPECT_NO_THROW(Topology::from_links(2, {{NodeId{0}, NodeId{1}, 0.0, 0.0}}));
}

TEST(Topology, DisconnectedDetected) {
  const auto topo = Topology::from_links(3, {{NodeId{0}, NodeId{1}, 1.0, 0.0}});
  EXPECT_FALSE(topo.connected());
}

TEST(Topology, ParamValidation) {
  util::Rng rng(1);
  TopologyParams p;
  p.node_count = 0;
  EXPECT_THROW(Topology::generate_waxman(p, rng), std::invalid_argument);
}

TEST(Distance, Euclidean) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance({1, 1}, {1, 1}), 0.0);
}

}  // namespace
}  // namespace dpjit::net
