// TransferManager::run_quantised: the serial epoch-barrier loop that drives a
// quantised-fair run. Checks the worked end-to-end timeline (admission ->
// lazy per-epoch integration -> drain -> delivery one barrier after
// detection), mid-epoch aborts, the derived-epoch rule, and that a drained
// flow keeps its solver share until it is delivered.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/grid_system.hpp"
#include "grid/transfer_manager.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "util/types.hpp"

namespace dpjit::core {
namespace {

net::Topology line_topology(int nodes) {
  std::vector<net::Link> links;
  for (int i = 0; i + 1 < nodes; ++i) {
    links.push_back({NodeId(i), NodeId(i + 1), 10.0, 1.0});
  }
  return net::Topology::from_links(nodes, std::move(links));
}

TEST(QuantisedLoop, DerivedEpochIsRequestedOrLatencyFlooredAtSixtySeconds) {
  // A 1 s minimum routed latency: the 60 s floor wins.
  EXPECT_DOUBLE_EQ(derive_quantised_epoch(1.0, 5.0), 5.0);
  EXPECT_DOUBLE_EQ(derive_quantised_epoch(1.0, 0.0), 60.0);
  EXPECT_DOUBLE_EQ(derive_quantised_epoch(1.0, -3.0), 60.0);
  // Above the floor the minimum routed latency itself; fewer than two nodes
  // (+inf) fall back to the floor.
  EXPECT_DOUBLE_EQ(derive_quantised_epoch(90.0, 0.0), 90.0);
  EXPECT_DOUBLE_EQ(derive_quantised_epoch(kInf, 0.0), 60.0);
}

TEST(QuantisedLoop, EndToEndTimelineOfOneFlow) {
  // 0 -1s- 1 -1s- 2, both links 10 MB/s. One 100 MB flow 0 -> 2 started at
  // t = 0, epoch 1 s:
  //   t = 2   propagation done, admitted at barrier B_2 at rate 10
  //   t = 3   B_3 integrates [2, 3)
  //   t = 12  B_12 integrates [11, 12): remaining hits 0, drain t_f = 12
  //   t = 13  B_13 delivers it
  sim::Engine world;
  const net::Topology topo = line_topology(3);
  const net::Routing routing(topo, 1);
  grid::TransferManager tm(world, topo, routing, grid::TransferManager::Mode::kQuantisedFair);

  double done_at = -1.0;
  bool ok_seen = false;
  tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool ok) {
    done_at = world.now();
    ok_seen = ok;
  });

  tm.run_quantised(1.0, 20.0);
  EXPECT_TRUE(ok_seen);
  EXPECT_DOUBLE_EQ(done_at, 13.0);
  EXPECT_EQ(tm.completed_count(), 1u);
  EXPECT_DOUBLE_EQ(tm.total_delivered_mb(), 100.0);
  EXPECT_EQ(tm.barrier_stamp(), 21u);  // B_0 .. B_20
  EXPECT_DOUBLE_EQ(world.now(), 20.0);
}

TEST(QuantisedLoop, MidEpochAbortFiresOnceAndIsNeverDelivered) {
  sim::Engine world;
  const net::Topology topo = line_topology(3);
  const net::Routing routing(topo, 1);
  grid::TransferManager tm(world, topo, routing, grid::TransferManager::Mode::kQuantisedFair);

  int calls = 0;
  bool ok_seen = true;
  double done_at = -1.0;
  const std::uint64_t id = tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool ok) {
    ++calls;
    done_at = world.now();
    ok_seen = ok;
  });
  // The abort is a world event mid-epoch: the failure callback fires right
  // there (t = 5.5, inside barrier B_6's world advance), and the flow leaves
  // the pool before B_6 integrates anything.
  world.schedule_at(5.5, [&tm, id] { (void)tm.abort(id); });

  tm.run_quantised(1.0, 20.0);
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(ok_seen);
  EXPECT_DOUBLE_EQ(done_at, 5.5);
  EXPECT_EQ(tm.completed_count(), 0u);
  EXPECT_EQ(tm.quantised_active(), 0u);
}

TEST(QuantisedLoop, DrainedFlowKeepsItsShareUntilDeliveredTwoBarriersLater) {
  // Two flows 0 -> 2 share both links, admitted together at B_2 at 5 MB/s.
  //   a (50 MB) drains in epoch [11, 12); B_12 detects it, B_13 delivers it.
  //   b (100 MB) keeps rate 5 through [12, 13) because a still holds its
  //   solver share at B_12: 45 MB remain at t = 13. From B_13 on, b runs at
  //   10 and drains at 17.5 in epoch [17, 18), so B_19 delivers it.
  // Releasing a's share at detection (B_12) would deliver b at t = 18.
  sim::Engine world;
  const net::Topology topo = line_topology(3);
  const net::Routing routing(topo, 1);
  grid::TransferManager tm(world, topo, routing, grid::TransferManager::Mode::kQuantisedFair);

  double a_done = -1.0;
  double b_done = -1.0;
  tm.start(NodeId{0}, NodeId{2}, 50.0, [&](bool ok) { a_done = ok ? world.now() : -2.0; });
  tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool ok) { b_done = ok ? world.now() : -2.0; });

  tm.run_quantised(1.0, 30.0);
  EXPECT_DOUBLE_EQ(a_done, 13.0);
  EXPECT_DOUBLE_EQ(b_done, 19.0);
  EXPECT_EQ(tm.completed_count(), 2u);
}

}  // namespace
}  // namespace dpjit::core
