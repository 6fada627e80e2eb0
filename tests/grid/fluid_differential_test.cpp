// Randomized differential suite for the NetworkModel seam (PR 9): the fluid
// fair-sharing mode is the REFERENCE the refactor must not move, so (a) a
// random fluid workload replayed from the same seed produces a bit-identical
// completion transcript, (b) cached probes match the uncached and the legacy
// from-scratch probe bit-for-bit at random instants, and (c) the quantised
// mode's single-flow completion time decreases monotonically towards the
// fluid answer as the epoch shrinks (the property behind the scenario-tier
// convergence test).
#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "grid/transfer_manager.hpp"
#include "util/rng.hpp"

namespace dpjit::grid {
namespace {

class FluidDifferential : public ::testing::TestWithParam<std::uint64_t> {};

struct FlowSpec {
  NodeId src, dst;
  double mb;
  double start_at;
};

std::vector<FlowSpec> random_flows(util::Rng& rng, int nodes, int count) {
  std::vector<FlowSpec> specs;
  specs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    FlowSpec s;
    s.src = NodeId{static_cast<int>(rng.index(static_cast<std::size_t>(nodes)))};
    s.dst = NodeId{static_cast<int>(rng.index(static_cast<std::size_t>(nodes)))};
    s.mb = rng.uniform(0.0, 400.0);
    s.start_at = rng.uniform(0.0, 300.0);
    specs.push_back(s);
  }
  return specs;
}

TEST_P(FluidDifferential, ReplayedFluidRunIsBitIdentical) {
  util::Rng seed_rng(GetParam());
  net::TopologyParams params;
  params.node_count = 12;
  auto topo_rng = seed_rng.fork("topo");
  const auto topo = net::Topology::generate_waxman(params, topo_rng);
  const net::Routing routing(topo);
  auto flow_rng = seed_rng.fork("flows");
  const auto specs = random_flows(flow_rng, 12, 40);

  const auto run = [&] {
    sim::Engine engine;
    TransferManager tm(engine, topo, routing, TransferManager::Mode::kFluidFair);
    std::vector<std::pair<double, bool>> transcript;
    for (const FlowSpec& s : specs) {
      engine.schedule_at(s.start_at, [&tm, &engine, &transcript, s] {
        tm.start(s.src, s.dst, s.mb,
                 [&engine, &transcript](bool ok) { transcript.emplace_back(engine.now(), ok); });
      });
    }
    engine.run_all();
    return transcript;
  };

  const auto first = run();
  const auto second = run();
  ASSERT_EQ(first.size(), specs.size());
  // operator== on double is deliberate: "bit-identical", not "close".
  EXPECT_EQ(first, second);
}

TEST_P(FluidDifferential, CachedProbeMatchesUncachedAndLegacyReferenceBitForBit) {
  util::Rng rng(GetParam() * 6151);
  net::TopologyParams params;
  params.node_count = 10;
  auto topo_rng = rng.fork("topo");
  const auto topo = net::Topology::generate_waxman(params, topo_rng);
  const net::Routing routing(topo);
  sim::Engine engine;
  TransferManager tm(engine, topo, routing, TransferManager::Mode::kFluidFair);

  for (const FlowSpec& s : random_flows(rng, 10, 25)) {
    engine.schedule_at(s.start_at, [&tm, s] { tm.start(s.src, s.dst, s.mb, [](bool) {}); });
  }
  // Probe random pairs at random instants while the flow set churns. Each
  // pair is probed twice so the second answer exercises an actual cache hit.
  for (int i = 0; i < 60; ++i) {
    const double at = rng.uniform(0.0, 400.0);
    const auto src = NodeId{static_cast<int>(rng.index(10))};
    const auto dst = NodeId{static_cast<int>(rng.index(10))};
    engine.schedule_at(at, [&tm, src, dst] {
      const double cached_cold = tm.predicted_rate_mbps(src, dst);
      const double cached_warm = tm.predicted_rate_mbps(src, dst);
      const double uncached = tm.predicted_rate_mbps_uncached(src, dst);
      const double legacy = tm.predicted_rate_mbps_reference(src, dst);
      EXPECT_EQ(cached_cold, cached_warm);
      EXPECT_EQ(cached_cold, uncached);
      EXPECT_EQ(cached_cold, legacy);
    });
  }
  engine.run_all();
  EXPECT_GT(tm.probe_cache_hits(), 0u);
}

TEST_P(FluidDifferential, QuantisedSingleFlowConvergesMonotonicallyToFluid) {
  // One uncontended flow: quantising can only ADD delay (admission waits for
  // a barrier, the drain is detected at the next barrier, delivery waits one
  // more epoch), so completion time is non-increasing as the epoch
  // shrinks and bounded below by the fluid completion time.
  util::Rng rng(GetParam() * 9973);
  net::TopologyParams params;
  params.node_count = 8;
  auto topo_rng = rng.fork("topo");
  const auto topo = net::Topology::generate_waxman(params, topo_rng);
  const net::Routing routing(topo);

  NodeId src{0}, dst{0};
  while (src == dst) {
    src = NodeId{static_cast<int>(rng.index(8))};
    dst = NodeId{static_cast<int>(rng.index(8))};
  }
  const double mb = rng.uniform(50.0, 400.0);

  double fluid_done = -1.0;
  {
    sim::Engine engine;
    TransferManager tm(engine, topo, routing, TransferManager::Mode::kFluidFair);
    tm.start(src, dst, mb, [&](bool ok) {
      if (ok) fluid_done = engine.now();
    });
    engine.run_all();
  }
  ASSERT_GT(fluid_done, 0.0);

  double prev = std::numeric_limits<double>::infinity();
  for (const double epoch : {16.0, 8.0, 4.0, 2.0, 1.0, 0.5}) {
    sim::Engine world;
    TransferManager tm(world, topo, routing, TransferManager::Mode::kQuantisedFair);
    double done = -1.0;
    tm.start(src, dst, mb, [&](bool ok) {
      if (ok) done = world.now();
    });
    tm.run_quantised(epoch, fluid_done + 20.0 * epoch + 10.0);
    ASSERT_GT(done, 0.0) << "epoch=" << epoch;
    EXPECT_LE(done, prev) << "epoch=" << epoch;
    // Quantisation never beats the fluid answer, and at epoch E the overhead
    // is bounded by one admission wait + one drain window + one delivery hop.
    EXPECT_GE(done, fluid_done - 1e-9) << "epoch=" << epoch;
    EXPECT_LE(done, fluid_done + 3.0 * epoch + 1e-9) << "epoch=" << epoch;
    prev = done;
  }
}

TEST_P(FluidDifferential, QuantisedContendedErrorIsLinearInTheEpochAndMonotone) {
  // The full epoch -> 0 differential: a CONTENDED open-loop flow set, fluid
  // completion times as the reference, the quantised barrier driver at
  // halving epochs. Per-flow absolute error halves with the epoch (barrier
  // grids nest under halving) and stays within a small linear envelope
  // (admission wait + drain-window rounding + the one-epoch delivery hop are each
  // O(E); measured slope is ~2.2 E across seeds, asserted at 3.5 E).
  util::Rng rng(GetParam() * 12289);
  net::TopologyParams params;
  params.node_count = 10;
  auto topo_rng = rng.fork("topo");
  const auto topo = net::Topology::generate_waxman(params, topo_rng);
  const net::Routing routing(topo);
  const auto specs = [&] {
    auto flow_rng = rng.fork("flows");
    auto s = random_flows(flow_rng, 10, 20);
    for (auto& f : s) {
      f.mb = 10.0 + f.mb;       // no zero-size flows: every id must finish
      f.start_at = f.start_at / 3.0;  // tighter arrivals -> real contention
    }
    return s;
  }();

  std::vector<double> fluid_done(specs.size(), -1.0);
  {
    sim::Engine engine;
    TransferManager tm(engine, topo, routing, TransferManager::Mode::kFluidFair);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const FlowSpec& s = specs[i];
      engine.schedule_at(s.start_at, [&tm, &engine, &fluid_done, s, i] {
        tm.start(s.src, s.dst, s.mb, [&engine, &fluid_done, i](bool ok) {
          if (ok) fluid_done[i] = engine.now();
        });
      });
    }
    engine.run_all();
  }

  double prev_err = std::numeric_limits<double>::infinity();
  for (const double epoch : {16.0, 8.0, 4.0, 2.0, 1.0, 0.5}) {
    sim::Engine world;
    TransferManager tm(world, topo, routing, TransferManager::Mode::kQuantisedFair);
    std::vector<double> done(specs.size(), -1.0);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const FlowSpec& s = specs[i];
      world.schedule_at(s.start_at, [&tm, &world, &done, s, i] {
        tm.start(s.src, s.dst, s.mb, [&world, &done, i](bool ok) {
          if (ok) done[i] = world.now();
        });
      });
    }
    tm.run_quantised(epoch, 100000.0);

    double err = 0.0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      ASSERT_GT(fluid_done[i], 0.0) << i;
      ASSERT_GT(done[i], 0.0) << "epoch=" << epoch << " flow " << i;
      err += std::abs(done[i] - fluid_done[i]);
    }
    err /= static_cast<double>(specs.size());
    EXPECT_LT(err, prev_err) << "epoch=" << epoch;
    EXPECT_LE(err, 3.5 * epoch) << "epoch=" << epoch;
    prev_err = err;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FluidDifferential, ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace dpjit::grid
