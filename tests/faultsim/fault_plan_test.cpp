#include "sim/fault_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace dpjit::sim {
namespace {

/// One recorded handler invocation: (time, id, went_down).
struct Event {
  SimTime at;
  int id;
  bool down;
  bool operator==(const Event&) const = default;
};

TEST(FaultPlan, ZeroPlanSchedulesNothingAndDrawsDefaults) {
  Engine eng;
  FaultParams p;
  p.force_attach = true;
  FaultPlan plan(eng, p, /*nodes=*/10, /*links=*/10, util::Rng(42).fork("faults"));
  plan.start();
  EXPECT_EQ(eng.pending(), 0u);  // the neutrality invariant: no events at all
  for (int i = 0; i < 50; ++i) {
    const MessageFate fate = plan.draw_message_fate();
    EXPECT_FALSE(fate.lost);
    EXPECT_EQ(fate.copies, 1);
    EXPECT_DOUBLE_EQ(fate.extra_delay_s, 0.0);
  }
  EXPECT_EQ(plan.messages_lost(), 0u);
  EXPECT_EQ(plan.messages_duplicated(), 0u);
  EXPECT_EQ(plan.messages_delayed(), 0u);
}

TEST(FaultPlan, CertainLossLosesEveryMessage) {
  Engine eng;
  FaultParams p;
  p.msg_loss_p = 1.0;
  FaultPlan plan(eng, p, 10, 10, util::Rng(42).fork("faults"));
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(plan.draw_message_fate().lost);
  EXPECT_EQ(plan.messages_lost(), 100u);
}

TEST(FaultPlan, CertainDuplicationDeliversTwice) {
  Engine eng;
  FaultParams p;
  p.msg_dup_p = 1.0;
  FaultPlan plan(eng, p, 10, 10, util::Rng(42).fork("faults"));
  for (int i = 0; i < 100; ++i) {
    const MessageFate fate = plan.draw_message_fate();
    EXPECT_FALSE(fate.lost);
    EXPECT_EQ(fate.copies, 2);
  }
  EXPECT_EQ(plan.messages_duplicated(), 100u);
}

TEST(FaultPlan, CertainDelayStaysInConfiguredRange) {
  Engine eng;
  FaultParams p;
  p.msg_delay_p = 1.0;
  p.msg_delay_max_s = 60.0;
  FaultPlan plan(eng, p, 10, 10, util::Rng(42).fork("faults"));
  for (int i = 0; i < 100; ++i) {
    const MessageFate fate = plan.draw_message_fate();
    EXPECT_GE(fate.extra_delay_s, 0.0);
    EXPECT_LE(fate.extra_delay_s, 60.0);
  }
  EXPECT_EQ(plan.messages_delayed(), 100u);
}

FaultParams wave_params() {
  FaultParams p;
  p.link_wave_period_s = 100.0;
  p.link_first_wave_s = 50.0;
  p.link_fail_fraction = 0.3;
  p.link_downtime_s = 40.0;
  return p;
}

std::vector<Event> run_link_waves(const FaultParams& p, SimTime until) {
  Engine eng;
  FaultPlan plan(eng, p, 10, 20, util::Rng(42).fork("faults"));
  std::vector<Event> events;
  plan.set_link_handlers(
      [&](LinkId l) { events.push_back({eng.now(), static_cast<int>(l.get()), true}); },
      [&](LinkId l) { events.push_back({eng.now(), static_cast<int>(l.get()), false}); });
  plan.start();
  eng.run_until(until);
  return events;
}

TEST(FaultPlan, LinkWavesFailAndRecover) {
  Engine eng;
  FaultParams p = wave_params();
  FaultPlan plan(eng, p, 10, 20, util::Rng(42).fork("faults"));
  int downs = 0;
  int ups = 0;
  plan.set_link_handlers([&](LinkId) { ++downs; }, [&](LinkId) { ++ups; });
  plan.start();
  eng.run_until(500.0);
  EXPECT_GT(downs, 0);
  EXPECT_GT(ups, 0);
  EXPECT_GE(downs, ups);  // last wave's recoveries may lie past the horizon
  EXPECT_EQ(plan.link_failures(), static_cast<std::uint64_t>(downs));
  EXPECT_EQ(plan.link_recoveries(), static_cast<std::uint64_t>(ups));
}

TEST(FaultPlan, LinkWavesAreSeedDeterministic) {
  const auto a = run_link_waves(wave_params(), 500.0);
  const auto b = run_link_waves(wave_params(), 500.0);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(FaultPlan, PermanentLinkFailuresNeverRecover) {
  FaultParams p = wave_params();
  p.link_permanent_p = 1.0;
  Engine eng;
  FaultPlan plan(eng, p, 10, 20, util::Rng(42).fork("faults"));
  std::vector<LinkId> downed;
  plan.set_link_handlers([&](LinkId l) { downed.push_back(l); }, [&](LinkId) { FAIL(); });
  plan.start();
  eng.run_until(1000.0);
  EXPECT_GT(plan.link_failures(), 0u);
  EXPECT_EQ(plan.link_recoveries(), 0u);
  // A link that stays down is never failed again.
  std::sort(downed.begin(), downed.end());
  EXPECT_EQ(std::adjacent_find(downed.begin(), downed.end()), downed.end());
}

TEST(FaultPlan, CrashExemptPrefixNeverCrashes) {
  FaultParams p;
  p.crash_period_s = 100.0;
  p.crash_first_s = 50.0;
  p.crash_fraction = 1.0;
  p.crash_restart_s = 0.0;  // permanent crashes
  p.crash_exempt_fraction = 0.5;
  Engine eng;
  FaultPlan plan(eng, p, /*nodes=*/10, /*links=*/20, util::Rng(42).fork("faults"));
  std::vector<int> crashed;
  plan.set_node_handlers([&](NodeId n) { crashed.push_back(static_cast<int>(n.get())); },
                         [&](NodeId) { FAIL(); });
  plan.start();
  eng.run_until(1000.0);
  // Every non-exempt node crashed exactly once; the home prefix never did.
  EXPECT_EQ(plan.node_crashes(), 5u);
  EXPECT_EQ(plan.node_restarts(), 0u);
  std::sort(crashed.begin(), crashed.end());
  EXPECT_EQ(crashed, (std::vector<int>{5, 6, 7, 8, 9}));
}

TEST(FaultPlan, CrashedNodesRestartAfterDowntime) {
  FaultParams p;
  p.crash_period_s = 200.0;
  p.crash_first_s = 50.0;
  p.crash_fraction = 0.5;
  p.crash_restart_s = 30.0;
  Engine eng;
  FaultPlan plan(eng, p, 10, 20, util::Rng(42).fork("faults"));
  std::vector<Event> events;
  plan.set_node_handlers(
      [&](NodeId n) { events.push_back({eng.now(), static_cast<int>(n.get()), true}); },
      [&](NodeId n) { events.push_back({eng.now(), static_cast<int>(n.get()), false}); });
  plan.start();
  eng.run_until(1000.0);
  EXPECT_GT(plan.node_crashes(), 0u);
  EXPECT_EQ(plan.node_restarts(), plan.node_crashes());
  // Each restart happens exactly crash_restart_s after its crash.
  for (const Event& e : events) {
    if (e.down) continue;
    const auto crash = std::find_if(events.begin(), events.end(), [&](const Event& c) {
      return c.down && c.id == e.id && c.at == e.at - 30.0;
    });
    EXPECT_NE(crash, events.end()) << "restart of node " << e.id << " without matching crash";
  }
  // The last wave's restarts fall before the horizon: every crashed node is
  // up again at the end.
  std::map<int, bool> down;
  for (const Event& e : events) down[e.id] = e.down;
  for (const auto& [node, is_down] : down) EXPECT_FALSE(is_down) << "node " << node;
}

TEST(FaultPlan, StopCancelsFutureWaves) {
  FaultParams p = wave_params();
  Engine eng;
  FaultPlan plan(eng, p, 10, 20, util::Rng(42).fork("faults"));
  plan.set_link_handlers([](LinkId) {}, [](LinkId) {});
  plan.start();
  eng.run_until(60.0);  // first wave fired
  const std::uint64_t failures = plan.link_failures();
  EXPECT_GT(failures, 0u);
  plan.stop();
  eng.run_until(1000.0);
  EXPECT_EQ(plan.link_failures(), failures);
}

}  // namespace
}  // namespace dpjit::sim
