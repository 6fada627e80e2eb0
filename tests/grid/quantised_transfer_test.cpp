// Unit tests of the quantised-fair barrier protocol (models/quantised_fair):
// admission at barriers, frozen rates in between, immediate aborts, drain
// delivery, and the barrier-stamped probe cache. Tests either call
// quantised_barrier() directly or run the serial barrier loop
// (run_quantised) and observe callbacks and completion times.
#include <gtest/gtest.h>

#include <vector>

#include "grid/transfer_manager.hpp"

namespace dpjit::grid {
namespace {

// 0 --(bw 10, lat 1)-- 1 --(bw 10, lat 1)-- 2 ; flows 0->2 cross both links.
struct Fixture {
  Fixture() : topo(net::Topology::from_links(3, {{NodeId{0}, NodeId{1}, 10.0, 1.0},
                                                 {NodeId{1}, NodeId{2}, 10.0, 1.0}})),
              routing(topo) {}
  sim::Engine engine;
  net::Topology topo;
  net::Routing routing;
};

TEST(QuantisedBarrier, AdmitsAfterLatencyAndReportsJoinAtFullVolume) {
  Fixture f;
  TransferManager tm(f.engine, f.topo, f.routing, TransferManager::Mode::kQuantisedFair);
  tm.start(NodeId{0}, NodeId{2}, 100.0, [](bool) {});
  // A probe for a second 0 -> 2 flow sees the whole path until the first
  // one joins the solver, and half of it after.
  const auto probe = [&tm] { return tm.predicted_rate_mbps(NodeId{0}, NodeId{2}); };
  f.engine.run_until(1.0);
  // Propagation (2 s) not over: nothing to admit yet.
  tm.quantised_barrier();
  EXPECT_DOUBLE_EQ(probe(), 10.0);

  f.engine.run_until(2.0);
  EXPECT_DOUBLE_EQ(probe(), 10.0);  // join pending, not admitted between barriers
  tm.quantised_barrier();
  EXPECT_DOUBLE_EQ(probe(), 5.0);

  // No completion machinery in this mode: with the latency phase done the
  // manager has NO scheduled events, so the engine goes idle with the flow
  // still in flight (the fluid mode would have armed a completion here).
  f.engine.run_all();
  EXPECT_EQ(tm.active_count(), 1u);
  EXPECT_DOUBLE_EQ(probe(), 5.0);
  EXPECT_EQ(tm.completed_count(), 0u);

  // Under the barrier loop the join starts from the FULL volume at rate 10:
  // admitted at B_2, 10 epochs of 10 MB drain it at t = 12, B_13 delivers.
  Fixture g;
  TransferManager loop(g.engine, g.topo, g.routing, TransferManager::Mode::kQuantisedFair);
  double done_at = -1.0;
  loop.start(NodeId{0}, NodeId{2}, 100.0, [&](bool ok) { done_at = ok ? g.engine.now() : -2.0; });
  loop.run_quantised(1.0, 20.0);
  EXPECT_DOUBLE_EQ(done_at, 13.0);
}

TEST(QuantisedBarrier, ZeroSizeFlowDeliversAtAdmissionWithoutJoining) {
  Fixture f;
  TransferManager tm(f.engine, f.topo, f.routing, TransferManager::Mode::kQuantisedFair);
  bool delivered = false;
  tm.start(NodeId{0}, NodeId{2}, 0.0, [&](bool ok) { delivered = ok; });
  f.engine.run_until(2.0);
  tm.quantised_barrier();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(tm.completed_count(), 1u);
  EXPECT_EQ(tm.active_count(), 0u);
}

TEST(QuantisedBarrier, RatesFreezeBetweenBarriersAndRefreezeAtThem) {
  // a (100 MB) is admitted at B_2 at rate 10. b (100 MB) finishes its
  // propagation mid-epoch at 4.5 but only touches the solver at B_5, so a
  // keeps 10 through [4, 5): 70 MB remain at t = 5. B_5 re-freezes both at 5:
  // a drains at 19 (B_20 delivers). b has 25 MB left at t = 20, runs at 10
  // from B_20 on, drains at 22.5 and B_24 delivers it.
  Fixture f;
  TransferManager tm(f.engine, f.topo, f.routing, TransferManager::Mode::kQuantisedFair);
  double a_done = -1.0;
  double b_done = -1.0;
  tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool ok) { a_done = ok ? f.engine.now() : -2.0; });
  f.engine.schedule_at(2.5, [&] {
    tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool ok) { b_done = ok ? f.engine.now() : -2.0; });
  });
  tm.run_quantised(1.0, 30.0);
  EXPECT_DOUBLE_EQ(a_done, 20.0);
  EXPECT_DOUBLE_EQ(b_done, 24.0);
}

TEST(QuantisedBarrier, AbortFiresNowButSurvivorRatesMoveAtTheNextBarrier) {
  // Both flows are admitted at B_2 at 5. a aborts at 2.5: its callback fires
  // right there (the grid layer retries on it) and the solver forgets it,
  // but b keeps its frozen 5 for the rest of [2, 3): 95 MB remain at t = 3.
  // B_3 re-freezes b at 10: it drains at 12.5 and B_14 delivers it.
  Fixture f;
  TransferManager tm(f.engine, f.topo, f.routing, TransferManager::Mode::kQuantisedFair);
  bool aborted_ok = true;
  double aborted_at = -1.0;
  double b_done = -1.0;
  const std::uint64_t a = tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool ok) {
    aborted_ok = ok;
    aborted_at = f.engine.now();
  });
  tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool ok) { b_done = ok ? f.engine.now() : -2.0; });
  f.engine.schedule_at(2.5, [&] {
    EXPECT_TRUE(tm.abort(a));
    EXPECT_EQ(tm.active_count(), 1u);
  });
  tm.run_quantised(1.0, 30.0);
  EXPECT_FALSE(aborted_ok);
  EXPECT_DOUBLE_EQ(aborted_at, 2.5);
  EXPECT_DOUBLE_EQ(b_done, 14.0);
}

TEST(QuantisedBarrier, DeliverReportsSuccessAndSkipsDeadFlows) {
  // Both flows run at 5 from B_2 and drain at 22; B_22 detects the drains
  // and B_23 delivers them. b aborts at 22.5, between detection and
  // delivery: its failure callback is the only one it gets.
  Fixture f;
  TransferManager tm(f.engine, f.topo, f.routing, TransferManager::Mode::kQuantisedFair);
  int done = 0;
  bool a_ok = false;
  double a_done = -1.0;
  bool b_ok = true;
  tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool ok) {
    ++done;
    a_ok = ok;
    a_done = f.engine.now();
  });
  const std::uint64_t b = tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool ok) {
    ++done;
    b_ok = ok;
  });
  f.engine.schedule_at(22.5, [&] { EXPECT_TRUE(tm.abort(b)); });
  tm.run_quantised(1.0, 30.0);
  EXPECT_EQ(done, 2);
  EXPECT_TRUE(a_ok);
  EXPECT_DOUBLE_EQ(a_done, 23.0);
  EXPECT_FALSE(b_ok);
  EXPECT_EQ(tm.completed_count(), 1u);
  EXPECT_DOUBLE_EQ(tm.total_delivered_mb(), 100.0);
  EXPECT_EQ(tm.active_count(), 0u);
}

TEST(QuantisedBarrier, ZeroCapacityPathStallsAtBarrierIntoSameDeltaCancel) {
  // Middle link has zero capacity: the flow can join the solver but gets
  // rate 0 - the barrier's stall guard must abort it in the same pass.
  sim::Engine engine;
  const auto topo = net::Topology::from_links(3, {{NodeId{0}, NodeId{1}, 10.0, 1.0},
                                                  {NodeId{1}, NodeId{2}, 0.0, 1.0}});
  const net::Routing routing(topo);
  TransferManager tm(engine, topo, routing, TransferManager::Mode::kQuantisedFair);
  bool ok_seen = true;
  double failed_at = -1.0;
  tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool ok) {
    ok_seen = ok;
    failed_at = engine.now();
  });
  tm.run_quantised(1.0, 10.0);
  EXPECT_FALSE(ok_seen);
  EXPECT_DOUBLE_EQ(failed_at, 2.0);  // B_2, the admitting barrier
  EXPECT_EQ(tm.active_count(), 0u);
  EXPECT_EQ(tm.completed_count(), 0u);
}

TEST(QuantisedBarrier, NodeLeftTearsDownActiveAndPendingFlowsImmediately) {
  Fixture f;
  TransferManager tm(f.engine, f.topo, f.routing, TransferManager::Mode::kQuantisedFair);
  std::vector<bool> results;
  tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool ok) { results.push_back(ok); });
  f.engine.run_until(2.0);
  tm.quantised_barrier();
  tm.start(NodeId{2}, NodeId{0}, 100.0, [&](bool ok) { results.push_back(ok); });  // in latency
  f.engine.run_until(2.5);

  tm.node_left(NodeId{2});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0]);
  EXPECT_FALSE(results[1]);
  EXPECT_EQ(tm.active_count(), 0u);

  // Nothing is left for a later barrier to admit, integrate or deliver.
  tm.run_quantised(1.0, 10.0);
  EXPECT_EQ(results.size(), 2u);
  EXPECT_EQ(tm.completed_count(), 0u);
}

TEST(QuantisedBarrier, BarrierStampInvalidatesTheProbeCache) {
  Fixture f;
  TransferManager tm(f.engine, f.topo, f.routing, TransferManager::Mode::kQuantisedFair);
  EXPECT_DOUBLE_EQ(tm.predicted_rate_mbps(NodeId{0}, NodeId{2}), 10.0);
  EXPECT_DOUBLE_EQ(tm.predicted_rate_mbps(NodeId{0}, NodeId{2}), 10.0);
  EXPECT_EQ(tm.probe_cache_misses(), 1u);
  EXPECT_EQ(tm.probe_cache_hits(), 1u);

  // A barrier re-freezes the rate landscape even when the solver's flow set
  // did not change; cached answers from the previous epoch must not survive.
  const std::uint64_t stamp = tm.barrier_stamp();
  tm.quantised_barrier();
  EXPECT_EQ(tm.barrier_stamp(), stamp + 1);
  EXPECT_DOUBLE_EQ(tm.predicted_rate_mbps(NodeId{0}, NodeId{2}), 10.0);
  EXPECT_EQ(tm.probe_cache_misses(), 2u);
}

}  // namespace
}  // namespace dpjit::grid
