#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace dpjit::sim {
namespace {

TEST(Engine, NowAdvancesWithEvents) {
  Engine e;
  std::vector<double> times;
  e.schedule_at(10.0, [&] { times.push_back(e.now()); });
  e.schedule_at(5.0, [&] { times.push_back(e.now()); });
  e.run_all();
  EXPECT_EQ(times, (std::vector<double>{5.0, 10.0}));
}

TEST(Engine, ScheduleInIsRelative) {
  Engine e;
  double fired_at = -1;
  e.schedule_at(10.0, [&] {
    e.schedule_in(5.0, [&] { fired_at = e.now(); });
  });
  e.run_all();
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(Engine, RejectsPastScheduling) {
  Engine e;
  e.schedule_at(10.0, [] {});
  e.run_all();
  EXPECT_THROW(e.schedule_at(5.0, [] {}), std::logic_error);
  EXPECT_THROW(e.schedule_in(-1.0, [] {}), std::logic_error);
}

TEST(Engine, RunUntilStopsAtBoundaryInclusive) {
  Engine e;
  std::vector<double> fired;
  e.schedule_at(1.0, [&] { fired.push_back(1.0); });
  e.schedule_at(2.0, [&] { fired.push_back(2.0); });
  e.schedule_at(3.0, [&] { fired.push_back(3.0); });
  e.run_until(2.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
  e.run_until(10.0);
  EXPECT_EQ(fired.size(), 3u);
  EXPECT_DOUBLE_EQ(e.now(), 10.0);  // clock advances to the horizon
}

TEST(Engine, EventsScheduledDuringRunExecute) {
  Engine e;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) e.schedule_in(1.0, chain);
  };
  e.schedule_at(0.0, chain);
  e.run_all();
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(e.now(), 4.0);
}

TEST(Engine, StepExecutesOne) {
  Engine e;
  int count = 0;
  e.schedule_at(1.0, [&] { ++count; });
  e.schedule_at(2.0, [&] { ++count; });
  EXPECT_TRUE(e.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
  EXPECT_EQ(count, 2);
}

TEST(Engine, CancelViaEngine) {
  Engine e;
  bool ran = false;
  auto h = e.schedule_at(1.0, [&] { ran = true; });
  EXPECT_TRUE(e.cancel(h));
  e.run_all();
  EXPECT_FALSE(ran);
}

TEST(Engine, ProcessedCount) {
  Engine e;
  for (int i = 0; i < 7; ++i) e.schedule_at(i, [] {});
  e.run_all();
  EXPECT_EQ(e.processed(), 7u);
}

TEST(Engine, NextEventTimePeeksWithoutMutating) {
  Engine e;
  e.schedule_at(5.0, [] {});
  auto h = e.schedule_at(2.0, [] {});
  // The peek path is const: repeated peeks see the same earliest event.
  const Engine& ce = e;
  EXPECT_DOUBLE_EQ(ce.next_event_time(), 2.0);
  EXPECT_DOUBLE_EQ(ce.next_event_time(), 2.0);
  EXPECT_EQ(e.pending(), 2u);
  // Cancelling the earliest event re-exposes the next one (true removal, so
  // the peek needs no dead-entry skipping).
  EXPECT_TRUE(e.cancel(h));
  EXPECT_DOUBLE_EQ(ce.next_event_time(), 5.0);
  e.run_all();
  EXPECT_DOUBLE_EQ(e.now(), 5.0);
}

TEST(Engine, DeterministicInterleaving) {
  auto run = [] {
    Engine e;
    std::vector<int> order;
    for (int i = 0; i < 20; ++i) {
      e.schedule_at(static_cast<double>(i % 3), [&order, i] { order.push_back(i); });
    }
    e.run_all();
    return order;
  };
  EXPECT_EQ(run(), run());
}

TEST(Engine, RejectsNanTimes) {
  // `t < now` and `delay < 0` are both false for NaN; a NaN key would then
  // sort arbitrarily in the heap.
  Engine e;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(e.schedule_at(nan, [] {}), std::logic_error);
  EXPECT_THROW(e.schedule_in(nan, [] {}), std::logic_error);
  EXPECT_THROW(e.schedule_reserved(nan, e.reserve_seq(), [] {}), std::logic_error);
  EXPECT_EQ(e.pending(), 0u);
  e.schedule_at(2.0, [] {});
  e.run_all();
  EXPECT_THROW(e.schedule_reserved(1.0, e.reserve_seq(), [] {}), std::logic_error);
  EXPECT_NO_THROW(e.schedule_at(std::numeric_limits<double>::infinity(), [] {}));
}

TEST(Engine, ScheduleReservedKeepsReservationOrder) {
  Engine e;
  std::vector<int> order;
  const std::uint64_t early = e.reserve_seq();
  e.schedule_at(1.0, [&] { order.push_back(1); });
  const std::uint64_t late = e.reserve_seq();
  e.schedule_at(1.0, [&] { order.push_back(3); });
  // Scheduled last, but each runs where its reservation put it.
  e.schedule_reserved(1.0, late, [&] { order.push_back(2); });
  e.schedule_reserved(1.0, early, [&] { order.push_back(0); });
  e.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Engine, PendingMaxTracksTheDeepestQueue) {
  Engine e;
  EXPECT_EQ(e.pending_max(), 0u);
  for (int i = 0; i < 3; ++i) e.schedule_at(i, [] {});
  e.run_all();
  e.schedule_at(5.0, [] {});
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_EQ(e.pending_max(), 3u);
}

TEST(Engine, TakeNextRunsAHeldEventInPlace) {
  Engine e;
  const std::uint64_t seq = e.reserve_seq();
  bool taken = false;
  e.schedule_at(1.0, [&] {
    taken = e.take_next(4.0, seq);
    EXPECT_DOUBLE_EQ(e.now(), 4.0);
    EXPECT_EQ(e.processed(), 2u);  // the held event counts as one
  });
  e.schedule_at(5.0, [] {});
  e.run_all();
  EXPECT_TRUE(taken);
  EXPECT_EQ(e.processed(), 3u);
}

TEST(Engine, TakeNextRefusesPastTheRunUntilEnd) {
  Engine e;
  bool past = true;
  bool at_end = false;
  e.schedule_at(1.0, [&] {
    past = e.take_next(2.5, e.reserve_seq());
    at_end = e.take_next(2.0, e.reserve_seq());  // events at exactly `end` still run
  });
  e.run_until(2.0);
  EXPECT_FALSE(past);
  EXPECT_TRUE(at_end);
  EXPECT_EQ(e.processed(), 2u);
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
}

TEST(Engine, TakeNextRefusesInsideStep) {
  // step() runs exactly one event, even one that holds successors back.
  Engine e;
  bool taken = true;
  e.schedule_at(1.0, [&] { taken = e.take_next(1.0, e.reserve_seq()); });
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(taken);
  EXPECT_EQ(e.processed(), 1u);
  // ...including a step() taken from inside a run loop's event.
  e.schedule_at(2.0, [&] { e.step(); });
  e.schedule_at(3.0, [&] { taken = e.take_next(3.0, e.reserve_seq()); });
  e.run_all();
  EXPECT_FALSE(taken);
  EXPECT_EQ(e.processed(), 3u);
}

TEST(Engine, TakeNextRefusesOutsideARunLoop) {
  Engine e;
  EXPECT_FALSE(e.take_next(0.0, e.reserve_seq()));
  EXPECT_EQ(e.processed(), 0u);
}

TEST(Engine, TakeNextRefusesBehindAnEqualTimeLowerSeq) {
  Engine e;
  const std::uint64_t before_foreign = e.reserve_seq();
  std::vector<int> order;
  e.schedule_at(3.0, [&] { order.push_back(1); });  // the foreign event
  const std::uint64_t after_foreign = e.reserve_seq();
  bool behind = true;
  bool ahead = false;
  e.schedule_at(1.0, [&] {
    behind = e.take_next(3.0, after_foreign);
    ahead = e.take_next(3.0, before_foreign);
    if (ahead) order.push_back(0);
  });
  e.run_all();
  EXPECT_FALSE(behind);
  EXPECT_TRUE(ahead);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(e.processed(), 3u);
}

}  // namespace
}  // namespace dpjit::sim
