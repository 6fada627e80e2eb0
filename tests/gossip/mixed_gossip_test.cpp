#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "gossip/mixed_gossip.hpp"

namespace dpjit::gossip {
namespace {

/// A harness with n synthetic nodes: capacity i+1 MIPS, load 10*i, all alive,
/// zero message latency, local bandwidth 2*(i+1).
class GossipHarness {
 public:
  explicit GossipHarness(int n, GossipParams params = {})
      : n_(n), alive_(static_cast<std::size_t>(n), 1) {
    service_ = std::make_unique<MixedGossipService>(
        engine_, params, n,
        [this](NodeId id, double& load, double& cap) {
          load = 10.0 * id.get();
          cap = 1.0 + id.get();
        },
        alive_, [](NodeId, NodeId) { return 0.001; },
        [](NodeId id) { return 2.0 * (1.0 + id.get()); }, util::Rng(42));
    // Bootstrap: every node knows its ring successor.
    for (int i = 0; i < n; ++i) {
      service_->node_joined(NodeId{i}, {NodeId{(i + 1) % n}});
    }
  }

  /// Runs `cycles` cycles, `step_s` simulated seconds apart (the default
  /// just flushes in-flight messages).
  void run_cycles(int cycles, double step_s = 1.0) {
    for (int c = 0; c < cycles; ++c) {
      service_->run_cycle(static_cast<std::uint64_t>(c));
      engine_.run_until(engine_.now() + step_s);
    }
  }

  sim::Engine engine_;
  int n_;
  std::vector<std::uint8_t> alive_;
  std::unique_ptr<MixedGossipService> service_;
};

TEST(MixedGossip, ViewsPopulateWithinFewCycles) {
  GossipHarness h(64);
  h.run_cycles(6);
  // After TTL*log(n) style spreading, every node should know a healthy number
  // of peers (bounded by the cache size).
  const double mean = h.service_->mean_rss_size();
  EXPECT_GT(mean, 4.0);
  EXPECT_LE(mean, static_cast<double>(h.service_->rss(NodeId{0}).capacity()));
}

TEST(MixedGossip, RssBoundedByCacheSize) {
  GossipHarness h(128);
  h.run_cycles(10);
  for (int i = 0; i < h.n_; ++i) {
    EXPECT_LE(h.service_->rss(NodeId{i}).size(), h.service_->rss(NodeId{i}).capacity());
  }
}

TEST(MixedGossip, CacheSizeScalesLogarithmically) {
  sim::Engine engine;
  GossipParams params;
  const std::vector<std::uint8_t> alive(2000, 1);
  auto make = [&](int n) {
    return MixedGossipService(engine, params, n, [](NodeId, double&, double&) {},
                              std::span(alive).first(static_cast<std::size_t>(n)),
                              [](NodeId, NodeId) { return 0.0; }, [](NodeId) { return 1.0; },
                              util::Rng(1));
  };
  const auto c100 = make(100).rss(NodeId{0}).capacity();
  const auto c2000 = make(2000).rss(NodeId{0}).capacity();
  EXPECT_GE(c100, 8u);
  EXPECT_LE(c100, 30u);
  EXPECT_GE(c2000, c100);  // grows with n...
  EXPECT_LE(c2000, 30u);    // ...but stays bounded (Fig. 11a)
}

TEST(MixedGossip, CacheSizeBeyondTheSlotIndexThrows) {
  // View slots are 16-bit with 0xffff meaning "no slot", so a larger cache
  // would corrupt the slot index of a Release build: the constructor's
  // set_capacity on every view refuses it.
  sim::Engine engine;
  GossipParams params;
  const std::vector<std::uint8_t> alive(4, 1);
  auto make = [&](int cache_size) {
    params.cache_size = cache_size;
    return MixedGossipService(engine, params, 4, [](NodeId, double&, double&) {}, alive,
                              [](NodeId, NodeId) { return 0.0; }, [](NodeId) { return 1.0; },
                              util::Rng(1));
  };
  EXPECT_THROW(static_cast<void>(make(65535)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(make(1 << 20)), std::invalid_argument);
  EXPECT_EQ(make(65534).rss(NodeId{0}).capacity(), 65534u);
}

TEST(MixedGossip, AggregationConvergesToTrueMeans) {
  const int n = 64;
  GossipHarness h(n);
  h.run_cycles(2 * kAggregationEpochCycles + 1);  // two full epochs
  // True mean capacity: mean(1..n) = (n+1)/2; bandwidth double that.
  const double true_cap = (n + 1) / 2.0;
  int close = 0;
  for (int i = 0; i < n; ++i) {
    const auto avg = h.service_->averages(NodeId{i});
    if (std::abs(avg.capacity_mips - true_cap) / true_cap < 0.25) ++close;
  }
  // Push-pull averaging converges exponentially; most nodes should be close.
  EXPECT_GT(close, n * 3 / 4);
}

TEST(MixedGossip, FreshStateOverwritesStale) {
  GossipHarness h(16);
  h.run_cycles(8);
  // All views carry entries stamped within the staleness bound.
  for (int i = 0; i < h.n_; ++i) {
    for (const auto& e : h.service_->rss(NodeId{i}).entries()) {
      EXPECT_GE(e.stamped_at, 0.0);
      EXPECT_LE(e.stamped_at, h.engine_.now());
    }
  }
}

TEST(MixedGossip, DeadNodesFadeFromViews) {
  const double cycle = GossipParams{}.cycle_s;
  GossipHarness h(32);
  h.run_cycles(6, cycle);
  // Kill node 5, keep gossiping; its entries must disappear once they are
  // older than the staleness bound.
  h.alive_[5] = 0;
  h.service_->node_left(NodeId{5});
  h.run_cycles(static_cast<int>(kStalenessBoundS / cycle) + 2, cycle);
  for (int i = 0; i < h.n_; ++i) {
    if (i == 5) continue;
    EXPECT_EQ(h.service_->rss(NodeId{i}).find(NodeId{5}), nullptr)
        << "node " << i << " still believes in dead node 5";
  }
}

TEST(MixedGossip, DeadNodeExpiresAtTheStalenessBound) {
  // Views with room to spare (capacity above n) never evict, so only the
  // staleness bound can drop the dead node: every survivor still lists it
  // while its freshest entry is younger than the bound, and none does once
  // every entry is older.
  GossipParams params;
  params.cache_size = 32;
  const double cycle = params.cycle_s;
  GossipHarness h(16, params);
  h.run_cycles(6, cycle);
  h.alive_[5] = 0;
  h.service_->node_left(NodeId{5});
  // Node 5's last summary is a cycle old at the kill, so after
  // bound / cycle - 2 more cycles it is at most bound - cycle old.
  const int cycles_within_bound = static_cast<int>(kStalenessBoundS / cycle) - 2;
  h.run_cycles(cycles_within_bound, cycle);
  for (int i = 0; i < h.n_; ++i) {
    if (i == 5) continue;
    EXPECT_NE(h.service_->rss(NodeId{i}).find(NodeId{5}), nullptr)
        << "node " << i << " dropped dead node 5 before the staleness bound";
  }
  h.run_cycles(4, cycle);
  for (int i = 0; i < h.n_; ++i) {
    if (i == 5) continue;
    EXPECT_EQ(h.service_->rss(NodeId{i}).find(NodeId{5}), nullptr)
        << "node " << i << " still believes in dead node 5";
  }
}

TEST(MixedGossip, JoinedNodeIntegrates) {
  GossipHarness h(32);
  h.alive_[7] = 0;
  h.service_->node_left(NodeId{7});
  h.run_cycles(4);
  h.alive_[7] = 1;
  h.service_->node_joined(NodeId{7}, {NodeId{0}, NodeId{1}});
  h.run_cycles(6);
  EXPECT_GT(h.service_->rss(NodeId{7}).size(), 2u);
}

TEST(MixedGossip, MessageCounterAdvances) {
  GossipHarness h(16);
  const auto before = h.service_->messages_sent();
  h.run_cycles(2);
  EXPECT_GT(h.service_->messages_sent(), before);
}

TEST(MixedGossip, MeanIdleKnownCountsZeroLoad) {
  // Node 0 has load 0 (10*0); others positive.
  GossipHarness h(16);
  h.run_cycles(6);
  EXPECT_GE(h.service_->mean_idle_known(), 0.0);
  EXPECT_LE(h.service_->mean_idle_known(), h.service_->mean_rss_size());
}

TEST(MixedGossip, EpochBoundaryPublishesConvergedValue) {
  GossipHarness h(32);
  // Before the first epoch completes, nodes publish their local observation.
  const auto before = h.service_->averages(NodeId{0});
  EXPECT_DOUBLE_EQ(before.capacity_mips, 1.0);  // node 0's own capacity
  h.run_cycles(kAggregationEpochCycles);
  EXPECT_DOUBLE_EQ(h.service_->averages(NodeId{0}).capacity_mips, 1.0);
  h.run_cycles(kAggregationEpochCycles + 1);  // crosses the first epoch boundary
  const auto after = h.service_->averages(NodeId{0});
  // The published value moved toward the true mean ((n+1)/2 = 16.5).
  EXPECT_GT(after.capacity_mips, before.capacity_mips);
}

TEST(MixedGossip, BytesAccountingGrowsWithMessages) {
  GossipHarness h(16);
  EXPECT_EQ(h.service_->bytes_sent(), 0u);
  h.run_cycles(3);
  EXPECT_GT(h.service_->bytes_sent(), 0u);
  // Every message costs at least the 20-byte header.
  EXPECT_GE(h.service_->bytes_sent(), h.service_->messages_sent() * 20);
}

TEST(MixedGossip, NoSelfEntries) {
  GossipHarness h(24);
  h.run_cycles(6);
  for (int i = 0; i < h.n_; ++i) {
    EXPECT_EQ(h.service_->rss(NodeId{i}).find(NodeId{i}), nullptr);
  }
}

TEST(MixedGossip, MessageModeDetectorSeesEntriesBelowTheStampFloor) {
  // Five nodes with room for three peers each: once the receiver has
  // forgotten the dead peer, its three alive peers fill the view.
  GossipParams params;
  params.message_level = true;
  params.cache_size = 3;
  GossipHarness h(5, params);
  const double cycle = params.cycle_s;
  h.service_->start();
  h.engine_.run_until(3 * cycle);  // views populate while everyone is up

  const NodeId dead{4};
  h.alive_[4] = 0;
  const FailureDetector* detector = h.service_->detector();
  ASSERT_NE(detector, nullptr);
  std::optional<NodeId> receiver;
  double declared_by = 3 * cycle;
  while (!receiver && declared_by < 30 * cycle) {
    declared_by += cycle;
    h.engine_.run_until(declared_by);
    for (int i = 0; i < 4 && !receiver; ++i) {
      if (detector->believes_dead(NodeId{i}, dead)) receiver = NodeId{i};
    }
  }
  ASSERT_TRUE(receiver.has_value()) << "no node declared the silent peer dead";
  // Later rounds refresh the receiver's view past the declaration time.
  h.engine_.run_until(declared_by + 4 * cycle);
  const ResourceView& view = h.service_->rss(*receiver);
  ASSERT_EQ(view.size(), view.capacity());
  ASSERT_EQ(view.find(dead), nullptr);
  ASSERT_TRUE(detector->believes_dead(*receiver, dead));

  // Newer than the death declaration (rejoin evidence), staler than every
  // entry the full view holds (no merge could take it).
  const SimTime stamp = declared_by + 1.0;
  ASSERT_LT(stamp, view.stamp_floor());
  const auto refutations = detector->refutations();
  const auto rejections = h.service_->floor_rejections();
  h.service_->receive(*receiver,
                      std::vector<ResourceEntry>{ResourceEntry{dead, 0.0, 1.0, stamp, 4}});
  EXPECT_EQ(detector->refutations(), refutations + 1);
  EXPECT_FALSE(detector->believes_dead(*receiver, dead));
  EXPECT_EQ(view.find(dead), nullptr);
  EXPECT_EQ(h.service_->floor_rejections(), rejections + 1);
}

TEST(MixedGossip, RoundDeliversInPerMessageOrder) {
  // A faulty round (lost, duplicated and delayed copies) on latencies with
  // many equal delivery times, plus foreign events created mid-round and
  // before it at tied times. The reference is the order one engine event per
  // delivery copy produced: copies sorted by time, ties in creation order.
  // Without loss, duplication or extra delay a copy lands at
  // now + 0.25 * ((from + to) % 3).
  const int n = 12;
  sim::FaultParams faults;
  faults.msg_loss_p = 0.1;
  faults.msg_dup_p = 0.3;
  faults.msg_delay_p = 0.3;
  faults.msg_delay_max_s = 1.0;
  sim::Engine engine;
  sim::FaultPlan plan(engine, faults, n, 0, util::Rng(5));
  sim::Engine twin_engine;
  sim::FaultPlan twin(twin_engine, faults, n, 0, util::Rng(5));  // replays the fates
  const std::vector<std::uint8_t> alive(n, 1);

  // Reference items in creation order: a foreign event (node -1) or one
  // posted message (its receiver), created at `now` to land `delay` later.
  struct Item {
    int node;
    double now;
    double delay;
  };
  std::vector<Item> created;
  std::vector<std::pair<int, double>> received;  // foreign events log themselves
  int latency_calls = 0;
  const auto foreign = [&](double delay) {
    created.push_back(Item{-1, engine.now(), delay});
    engine.schedule_in(delay, [&] { received.emplace_back(-1, engine.now()); });
  };
  MixedGossipService service(
      engine, GossipParams{}, n,
      [](NodeId id, double& load, double& cap) {
        load = 10.0 * id.get();
        cap = 1.0 + id.get();
      },
      alive,
      [&](NodeId from, NodeId to) {
        const double latency = 0.25 * ((from.get() + to.get()) % 3);
        if (++latency_calls % 7 == 0) foreign(0.25);  // mid-round, tied
        created.push_back(Item{to.get(), engine.now(), latency});
        return latency;
      },
      [](NodeId) { return 1.0; }, util::Rng(42), &plan);
  for (int i = 0; i < n; ++i) {
    service.node_joined(NodeId{i}, {NodeId{(i + 1) % n}, NodeId{(i + 5) % n}});
  }

  // Posts one round; returns the reference order of what it and the foreign
  // events will deliver, replaying the round's fates on the twin plan.
  const auto post_round = [&](std::uint64_t cycle) {
    created.clear();
    received.clear();
    latency_calls = 0;
    foreign(0.5);  // before the round, tied with its copies
    service.run_cycle(cycle);
    // The round is one pending event, next to the foreign ones.
    const auto foreign_count =
        std::count_if(created.begin(), created.end(), [](const Item& i) { return i.node < 0; });
    EXPECT_EQ(engine.pending(), static_cast<std::size_t>(foreign_count) + 1) << "cycle " << cycle;

    std::vector<std::pair<int, double>> expected;
    for (const Item& item : created) {
      if (item.node < 0) {
        expected.emplace_back(-1, item.now + item.delay);
        continue;
      }
      sim::MessageFate fate = twin.draw_message_fate();
      while (fate.lost) fate = twin.draw_message_fate();  // lost sends never ask latency
      const double at = item.now + (item.delay + fate.extra_delay_s);
      for (int c = 0; c < fate.copies; ++c) expected.emplace_back(item.node, at);
    }
    // Sends lost after the last latency call.
    while (twin.messages_lost() < plan.messages_lost()) {
      EXPECT_TRUE(twin.draw_message_fate().lost);
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& a, const auto& b) { return a.second < b.second; });
    return expected;
  };

  // Warm-up rounds fill the views, so the observed round pushes at full
  // fan-out. They drain in place; only their event count is checked.
  for (std::uint64_t cycle = 0; cycle < 3; ++cycle) {
    const auto expected = post_round(cycle);
    const std::uint64_t before = engine.processed();
    engine.run_until(engine.now() + 2.0);
    ASSERT_EQ(engine.processed() - before, expected.size()) << "cycle " << cycle;
  }

  // The observed round, one event at a time: step() takes nothing in place,
  // so every delivery is re-posted under its reserved seq. Each delivery
  // names its receiver through what it changes: the views are emptied once
  // the round is posted, every message carries its sender's own entry, and
  // an empty view always takes it.
  const auto expected = post_round(3);
  ASSERT_GT(expected.size(), static_cast<std::size_t>(3 * n));
  for (int i = 0; i < n; ++i) service.rss(NodeId{i}).clear();
  const std::uint64_t before = engine.processed();
  const double end = engine.now() + 2.0;
  while (engine.pending() > 0 && engine.next_event_time() <= end) {
    const std::size_t foreign_seen = received.size();
    engine.step();
    std::vector<int> filled;
    for (int i = 0; i < n; ++i) {
      if (service.rss(NodeId{i}).size() > 0) filled.push_back(i);
    }
    if (received.size() > foreign_seen) {
      ASSERT_TRUE(filled.empty());
      continue;
    }
    ASSERT_EQ(filled.size(), 1u) << "event " << engine.processed() - before;
    received.emplace_back(filled.front(), engine.now());
    service.rss(NodeId{filled.front()}).clear();
  }
  EXPECT_EQ(received, expected);
  EXPECT_EQ(engine.processed() - before, expected.size());
  EXPECT_GT(plan.messages_duplicated(), 0u);
  EXPECT_GT(plan.messages_delayed(), 0u);
}

TEST(MixedGossip, LivenessArrayMustCoverEveryNode) {
  sim::Engine engine;
  const std::vector<std::uint8_t> alive(3, 1);
  EXPECT_THROW(MixedGossipService(engine, GossipParams{}, 4, [](NodeId, double&, double&) {},
                                  alive, [](NodeId, NodeId) { return 0.0; },
                                  [](NodeId) { return 1.0; }, util::Rng(1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace dpjit::gossip
