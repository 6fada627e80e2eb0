// Randomized stress of the fair-sharing fluid model: starts/aborts flows at
// random instants and checks conservation-style invariants that must hold for
// any schedule of operations.
#include <gtest/gtest.h>

#include "grid/transfer_manager.hpp"
#include "util/rng.hpp"

namespace dpjit::grid {
namespace {

class TransferStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TransferStress, EveryTransferResolvesExactlyOnce) {
  util::Rng rng(GetParam());
  net::TopologyParams params;
  params.node_count = 12;
  auto topo_rng = rng.fork("topo");
  const auto topo = net::Topology::generate_waxman(params, topo_rng);
  const net::Routing routing(topo);
  sim::Engine engine;
  TransferManager tm(engine, topo, routing, TransferManager::Mode::kFluidFair);

  int resolved = 0;
  int succeeded = 0;
  std::vector<std::uint64_t> ids;
  const int kFlows = 40;
  for (int i = 0; i < kFlows; ++i) {
    const double start_at = rng.uniform(0.0, 500.0);
    engine.schedule_at(start_at, [&, i] {
      const auto src = NodeId{static_cast<int>(rng.index(12))};
      const auto dst = NodeId{static_cast<int>(rng.index(12))};
      ids.push_back(tm.start(src, dst, rng.uniform(0.0, 500.0), [&](bool ok) {
        ++resolved;
        succeeded += ok ? 1 : 0;
      }));
    });
  }
  // Random aborts midway.
  engine.schedule_at(600.0, [&] {
    for (std::size_t k = 0; k < ids.size(); k += 3) tm.abort(ids[k]);
  });
  engine.run_all();

  EXPECT_EQ(resolved, kFlows);  // every callback fired exactly once
  EXPECT_EQ(tm.active_count(), 0u);
  EXPECT_EQ(tm.completed_count(), static_cast<std::uint64_t>(succeeded));
}

TEST_P(TransferStress, FairNeverBeatsDedicatedBottleneckTime) {
  // A flow sharing links with others can never finish earlier than it would
  // alone on the bottleneck model (same route, full bandwidth).
  util::Rng rng(GetParam() * 7919);
  net::TopologyParams params;
  params.node_count = 10;
  auto topo_rng = rng.fork("topo");
  const auto topo = net::Topology::generate_waxman(params, topo_rng);
  const net::Routing routing(topo);
  sim::Engine engine;
  TransferManager fair(engine, topo, routing, TransferManager::Mode::kFluidFair);

  struct Probe {
    NodeId src, dst;
    double mb;
    double finished_at = -1;
  };
  std::vector<Probe> probes;
  for (int i = 0; i < 12; ++i) {
    Probe p;
    p.src = NodeId{static_cast<int>(rng.index(10))};
    p.dst = NodeId{static_cast<int>(rng.index(10))};
    p.mb = rng.uniform(1.0, 300.0);
    probes.push_back(p);
  }
  for (auto& p : probes) {
    fair.start(p.src, p.dst, p.mb, [&engine, &p](bool ok) {
      if (ok) p.finished_at = engine.now();
    });
  }
  engine.run_all();
  const TransferManager dedicated(engine, topo, routing, TransferManager::Mode::kBottleneck);
  for (const auto& p : probes) {
    ASSERT_GE(p.finished_at, 0.0);
    const double solo = dedicated.expected_transfer_time_s(p.src, p.dst, p.mb);
    // Routing stores bandwidths as float while the fluid model computes in
    // double, so allow the float-rounding slack (~1e-7 relative).
    EXPECT_GE(p.finished_at, solo - std::max(1e-6, solo * 1e-5))
        << "fair flow finished faster than dedicated path";
  }
}

TEST_P(TransferStress, ChurnTeardownResolvesEverythingExactlyOnce) {
  // Random starts interleaved with node departures (batched fair-mode
  // teardown): every callback fires exactly once, accounting stays exact,
  // and the pool is empty at the end.
  util::Rng rng(GetParam() * 104729);
  net::TopologyParams params;
  params.node_count = 14;
  auto topo_rng = rng.fork("topo");
  const auto topo = net::Topology::generate_waxman(params, topo_rng);
  const net::Routing routing(topo);
  sim::Engine engine;
  TransferManager tm(engine, topo, routing, TransferManager::Mode::kFluidFair);

  int resolved = 0;
  int succeeded = 0;
  double succeeded_mb = 0.0;
  const int kFlows = 60;
  for (int i = 0; i < kFlows; ++i) {
    const double start_at = rng.uniform(0.0, 400.0);
    const double mb = rng.uniform(0.0, 400.0);
    engine.schedule_at(start_at, [&, mb] {
      const auto src = NodeId{static_cast<int>(rng.index(14))};
      const auto dst = NodeId{static_cast<int>(rng.index(14))};
      tm.start(src, dst, mb, [&, mb](bool ok) {
        ++resolved;
        if (ok) {
          ++succeeded;
          succeeded_mb += mb;
        }
      });
    });
  }
  // Three departure waves while transfers are in flight.
  for (int wave = 0; wave < 3; ++wave) {
    engine.schedule_at(150.0 + 120.0 * wave, [&] {
      tm.node_left(NodeId{static_cast<int>(rng.index(14))});
    });
  }
  engine.run_all();

  EXPECT_EQ(resolved, kFlows);
  EXPECT_EQ(tm.active_count(), 0u);
  EXPECT_EQ(tm.completed_count(), static_cast<std::uint64_t>(succeeded));
  EXPECT_DOUBLE_EQ(tm.total_delivered_mb(), succeeded_mb);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransferStress, ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace dpjit::grid
