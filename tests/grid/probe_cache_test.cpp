// The TransferManager's epoch-keyed probe cache must be invisible: every
// cached predicted_rate_mbps answer must be bit-identical to a fresh uncached
// probe of the live solver, at EVERY step of arbitrary flow churn and
// link-state histories. (A sampled NDEBUG assert inside the manager mirrors
// this in Debug runs; these tests check every pair after every mutation, in
// Release too.)
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "grid/transfer_manager.hpp"
#include "util/rng.hpp"

namespace dpjit::grid {
namespace {

/// Asserts cached == uncached, bit-for-bit, over every ordered pair - and
/// that asking again (now guaranteed to be served from the cache) still
/// agrees. EXPECT_EQ on doubles is exact equality, which for the non-NaN
/// values rates take (finite, 0, +inf) is bit equality.
void expect_cache_transparent(const TransferManager& tm, int n) {
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      const double fresh = tm.predicted_rate_mbps_uncached(NodeId{u}, NodeId{v});
      EXPECT_EQ(tm.predicted_rate_mbps(NodeId{u}, NodeId{v}), fresh) << u << "->" << v;
      EXPECT_EQ(tm.predicted_rate_mbps(NodeId{u}, NodeId{v}), fresh) << u << "->" << v;
    }
  }
}

class ProbeCache : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProbeCache, BitIdenticalUnderRandomizedFlowChurn) {
  util::Rng rng(GetParam());
  net::TopologyParams params;
  params.node_count = 14;
  auto topo_rng = rng.fork("topo");
  const auto topo = net::Topology::generate_waxman(params, topo_rng);
  const net::Routing routing(topo);
  sim::Engine engine;
  TransferManager tm(engine, topo, routing, TransferManager::Mode::kFluidFair);

  std::vector<std::uint64_t> live;
  double t = 0.0;
  for (int step = 0; step < 60; ++step) {
    // Advance past an arbitrary slice of completions/latency expiries, then
    // mutate the flow set, then require full transparency.
    t += rng.uniform(0.0, 40.0);
    engine.run_until(t);
    const int action = static_cast<int>(rng.index(3));
    if (action == 0 || live.size() < 4) {
      const auto src = NodeId{static_cast<int>(rng.index(params.node_count))};
      const auto dst = NodeId{static_cast<int>(rng.index(params.node_count))};
      live.push_back(tm.start(src, dst, rng.uniform(1.0, 800.0), [](bool) {}));
    } else if (action == 1) {
      tm.abort(live[rng.index(live.size())]);  // false if already resolved: fine
    } else {
      tm.node_left(NodeId{static_cast<int>(rng.index(params.node_count))});
    }
    expect_cache_transparent(tm, params.node_count);
  }
  engine.run_all();
  expect_cache_transparent(tm, params.node_count);
  // The history above must actually have exercised the cache on both sides.
  EXPECT_GT(tm.probe_cache_hits(), 0u);
  EXPECT_GT(tm.probe_cache_misses(), 0u);
}

TEST_P(ProbeCache, BitIdenticalUnderLinkStateWaves) {
  util::Rng rng(GetParam() * 6364136223846793005ull + 1442695040888963407ull);
  net::TopologyParams params;
  params.node_count = 12;
  auto topo_rng = rng.fork("topo");
  const auto topo = net::Topology::generate_waxman(params, topo_rng);
  net::Routing routing(topo, /*threads=*/1);
  sim::Engine engine;
  TransferManager tm(engine, topo, routing, TransferManager::Mode::kFluidFair);

  std::vector<LinkId> downed;
  double t = 0.0;
  for (int step = 0; step < 50; ++step) {
    t += rng.uniform(0.0, 30.0);
    engine.run_until(t);
    if (rng.index(2) == 0) {
      const auto src = NodeId{static_cast<int>(rng.index(params.node_count))};
      const auto dst = NodeId{static_cast<int>(rng.index(params.node_count))};
      tm.start(src, dst, rng.uniform(1.0, 500.0), [](bool) {});
    }
    // Wave: fail or repair one random link, production call order (Routing
    // reroutes first, then the manager reacts). Repairs MUST invalidate the
    // cache too - the route set changes even though no transfer aborts.
    if (!downed.empty() && rng.index(3) == 0) {
      const std::size_t k = rng.index(downed.size());
      const LinkId l = downed[k];
      downed.erase(downed.begin() + static_cast<std::ptrdiff_t>(k));
      routing.set_link_state(l, true);
      tm.link_state_changed(l, true);
    } else {
      const auto l = LinkId{static_cast<int>(rng.index(topo.link_count()))};
      if (routing.link_state(l)) {
        routing.set_link_state(l, false);
        tm.link_state_changed(l, false);
        downed.push_back(l);
      }
    }
    expect_cache_transparent(tm, params.node_count);
  }
  // Repair everything: probes must immediately see the healed routes.
  for (const LinkId l : downed) {
    routing.set_link_state(l, true);
    tm.link_state_changed(l, true);
  }
  expect_cache_transparent(tm, params.node_count);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProbeCache, ::testing::Values(1u, 7u, 42u, 1337u));

TEST(ProbeCacheCounters, HitsRequireUnchangedStamps) {
  const auto topo = net::Topology::from_links(3, {{NodeId{0}, NodeId{1}, 10.0, 0.1},
                                                  {NodeId{1}, NodeId{2}, 10.0, 0.1}});
  net::Routing routing(topo, /*threads=*/1);
  sim::Engine engine;
  TransferManager tm(engine, topo, routing, TransferManager::Mode::kFluidFair);

  // First ask solves, second is served from the cache.
  EXPECT_DOUBLE_EQ(tm.predicted_rate_mbps(NodeId{0}, NodeId{2}), 10.0);
  EXPECT_EQ(tm.probe_cache_misses(), 1u);
  EXPECT_DOUBLE_EQ(tm.predicted_rate_mbps(NodeId{0}, NodeId{2}), 10.0);
  EXPECT_EQ(tm.probe_cache_hits(), 1u);

  // A flow joining the fluid pool moves the solver's mutation stamp: the next
  // probe must re-solve and see the halved share.
  tm.start(NodeId{0}, NodeId{2}, 1000.0, [](bool) {});
  engine.run_until(1.0);  // past the 0.2 s latency phase
  EXPECT_DOUBLE_EQ(tm.predicted_rate_mbps(NodeId{0}, NodeId{2}), 5.0);
  EXPECT_EQ(tm.probe_cache_misses(), 2u);

  // A link REPAIR must also invalidate: fail+repair of an off-path link is a
  // route no-op but the stamp discipline stays conservative and correct.
  routing.set_link_state(LinkId{0}, false);
  tm.link_state_changed(LinkId{0}, false);
  const double after_fail = tm.predicted_rate_mbps(NodeId{1}, NodeId{2});
  EXPECT_EQ(after_fail, tm.predicted_rate_mbps_uncached(NodeId{1}, NodeId{2}));
  routing.set_link_state(LinkId{0}, true);
  tm.link_state_changed(LinkId{0}, true);
  const std::uint64_t misses = tm.probe_cache_misses();
  EXPECT_DOUBLE_EQ(tm.predicted_rate_mbps(NodeId{0}, NodeId{1}),
                   tm.predicted_rate_mbps_uncached(NodeId{0}, NodeId{1}));
  EXPECT_EQ(tm.probe_cache_misses(), misses + 1);  // repair emptied the cache

  // Bottleneck mode never touches the cache: the matrix read is already live.
  TransferManager bn(engine, topo, routing, TransferManager::Mode::kBottleneck);
  EXPECT_DOUBLE_EQ(bn.predicted_rate_mbps(NodeId{0}, NodeId{2}), 10.0);
  EXPECT_EQ(bn.probe_cache_hits() + bn.probe_cache_misses(), 0u);
}

}  // namespace
}  // namespace dpjit::grid
