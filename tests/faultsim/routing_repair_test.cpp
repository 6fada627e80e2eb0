// Incremental routing repair under link failure/recovery (sim::FaultPlan
// waves). The load-bearing property is the differential at the bottom:
// set_link_state's row repairs must reproduce EXACTLY what a from-scratch
// build over the surviving links produces, for any fail/recover sequence.
#include "net/routing.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "net/topology.hpp"
#include "util/rng.hpp"

namespace dpjit::net {
namespace {

//   0 --(bw 10, lat 1)-- 1 --(bw 2, lat 1)-- 2
//   0 --------(bw 5, lat 5)---------------- 2
Topology triangle() {
  return Topology::from_links(3, {{NodeId{0}, NodeId{1}, 10.0, 1.0},
                                  {NodeId{1}, NodeId{2}, 2.0, 1.0},
                                  {NodeId{0}, NodeId{2}, 5.0, 5.0}});
}

TEST(RoutingRepair, FailedLinkReroutesAroundIt) {
  const auto topo = triangle();
  Routing r(topo, 1);
  ASSERT_DOUBLE_EQ(r.latency_s(NodeId{0}, NodeId{2}), 2.0);  // via node 1

  r.set_link_state(LinkId{1}, false);  // cut 1 -- 2
  EXPECT_DOUBLE_EQ(r.latency_s(NodeId{0}, NodeId{2}), 5.0);  // direct now
  EXPECT_DOUBLE_EQ(r.bandwidth_mbps(NodeId{0}, NodeId{2}), 5.0);
  EXPECT_EQ(r.hops(NodeId{0}, NodeId{2}), 1);
  // 1 -> 2 detours through 0: latency 1 + 5, bottleneck min(10, 5).
  EXPECT_DOUBLE_EQ(r.latency_s(NodeId{1}, NodeId{2}), 6.0);
  EXPECT_DOUBLE_EQ(r.bandwidth_mbps(NodeId{1}, NodeId{2}), 5.0);
}

TEST(RoutingRepair, DisconnectionYieldsUnreachable) {
  // 0 -- 1 -- 2 line: cutting 1--2 isolates node 2.
  const auto topo = Topology::from_links(
      3, {{NodeId{0}, NodeId{1}, 10.0, 1.0}, {NodeId{1}, NodeId{2}, 2.0, 1.0}});
  Routing r(topo, 1);
  r.set_link_state(LinkId{1}, false);
  EXPECT_TRUE(std::isinf(r.latency_s(NodeId{0}, NodeId{2})));
  EXPECT_DOUBLE_EQ(r.bandwidth_mbps(NodeId{0}, NodeId{2}), 0.0);
  EXPECT_TRUE(r.path_links(NodeId{0}, NodeId{2}).empty());
  r.set_link_state(LinkId{1}, true);
  EXPECT_DOUBLE_EQ(r.latency_s(NodeId{0}, NodeId{2}), 2.0);
}

TEST(RoutingRepair, RecoveryRestoresTheOriginalMatrices) {
  const auto topo = triangle();
  Routing fresh(topo, 1);
  Routing r(topo, 1);
  r.set_link_state(LinkId{0}, false);
  r.set_link_state(LinkId{0}, true);
  for (int u = 0; u < 3; ++u) {
    for (int v = 0; v < 3; ++v) {
      EXPECT_EQ(r.latency_s(NodeId{u}, NodeId{v}), fresh.latency_s(NodeId{u}, NodeId{v}));
      EXPECT_EQ(r.bandwidth_mbps(NodeId{u}, NodeId{v}), fresh.bandwidth_mbps(NodeId{u}, NodeId{v}));
      EXPECT_EQ(r.hops(NodeId{u}, NodeId{v}), fresh.hops(NodeId{u}, NodeId{v}));
    }
  }
}

TEST(RoutingRepair, OffTreeLinkTouchesNoRows) {
  // The direct 0--2 link (lat 5) loses to the 2-hop path (lat 2), so no
  // shortest-path tree uses it: failing or restoring it must repair nothing.
  const auto topo = triangle();
  Routing r(topo, 1);
  r.set_link_state(LinkId{2}, false);
  EXPECT_EQ(r.repaired_rows(), 0u);
  r.set_link_state(LinkId{2}, true);
  EXPECT_EQ(r.repaired_rows(), 0u);
  EXPECT_DOUBLE_EQ(r.latency_s(NodeId{0}, NodeId{2}), 2.0);
}

TEST(RoutingRepair, RedundantStateChangesAreNoOps) {
  const auto topo = triangle();
  Routing r(topo, 1);
  r.set_link_state(LinkId{0}, true);  // already up
  EXPECT_EQ(r.repaired_rows(), 0u);
  r.set_link_state(LinkId{0}, false);
  const std::uint64_t after_fail = r.repaired_rows();
  r.set_link_state(LinkId{0}, false);  // already down
  EXPECT_EQ(r.repaired_rows(), after_fail);
}

TEST(RoutingRepair, MeanPairBandwidthStaysFrozen) {
  // eft ranks against the healthy-network average by design; repairs must not
  // silently move it.
  const auto topo = triangle();
  Routing r(topo, 1);
  const double healthy = r.initial_mean_pair_bandwidth_mbps();
  r.set_link_state(LinkId{0}, false);
  EXPECT_DOUBLE_EQ(r.initial_mean_pair_bandwidth_mbps(), healthy);
}

TEST(RoutingRepair, RepairMatchesFullRebuildOnRandomWaxmanSequences) {
  TopologyParams params;
  params.node_count = 40;
  util::Rng topo_rng(11);
  const auto topo = Topology::generate_waxman(params, topo_rng);
  Routing live(topo, 1);

  std::vector<char> up(topo.link_count(), 1);
  util::Rng fault_rng(99);
  for (int step = 0; step < 25; ++step) {
    const auto raw = fault_rng.index(topo.link_count());
    const auto l = LinkId{static_cast<LinkId::underlying_type>(raw)};
    up[raw] = up[raw] ? 0 : 1;
    live.set_link_state(l, up[raw] != 0);

    // Reference: a from-scratch build over only the surviving links.
    std::vector<Link> surviving;
    for (std::size_t i = 0; i < topo.link_count(); ++i) {
      if (up[i]) surviving.push_back(topo.links()[i]);
    }
    const auto reduced = Topology::from_links(topo.node_count(), std::move(surviving));
    Routing ref(reduced, 1);
    for (int u = 0; u < topo.node_count(); ++u) {
      for (int v = 0; v < topo.node_count(); ++v) {
        const double ll = live.latency_s(NodeId{u}, NodeId{v});
        const double rl = ref.latency_s(NodeId{u}, NodeId{v});
        if (std::isinf(rl)) {
          ASSERT_TRUE(std::isinf(ll)) << "step " << step << " pair " << u << "->" << v;
          continue;
        }
        ASSERT_EQ(ll, rl) << "step " << step << " pair " << u << "->" << v;
        ASSERT_EQ(live.bandwidth_mbps(NodeId{u}, NodeId{v}),
                  ref.bandwidth_mbps(NodeId{u}, NodeId{v}))
            << "step " << step << " pair " << u << "->" << v;
        ASSERT_EQ(live.hops(NodeId{u}, NodeId{v}), ref.hops(NodeId{u}, NodeId{v}))
            << "step " << step << " pair " << u << "->" << v;
      }
    }
  }
  EXPECT_GT(live.repaired_rows(), 0u);
}

}  // namespace
}  // namespace dpjit::net
