#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

namespace dpjit::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule_reserved(3.0, q.reserve_seq(), [&] { fired.push_back(3); });
  q.schedule_reserved(1.0, q.reserve_seq(), [&] { fired.push_back(1); });
  q.schedule_reserved(2.0, q.reserve_seq(), [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.schedule_reserved(5.0, q.reserve_seq(), [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  auto h = q.schedule_reserved(1.0, q.reserve_seq(), [&] { ran = true; });
  EXPECT_TRUE(q.cancel(h));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  auto h = q.schedule_reserved(1.0, q.reserve_seq(), [] {});
  EXPECT_TRUE(q.cancel(h));
  EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueue, CancelledEventsSkippedOnPop) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule_reserved(1.0, q.reserve_seq(), [&] { fired.push_back(1); });
  auto h = q.schedule_reserved(2.0, q.reserve_seq(), [&] { fired.push_back(2); });
  q.schedule_reserved(3.0, q.reserve_seq(), [&] { fired.push_back(3); });
  q.cancel(h);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  auto h = q.schedule_reserved(1.0, q.reserve_seq(), [] {});
  q.schedule_reserved(5.0, q.reserve_seq(), [] {});
  q.cancel(h);
  EXPECT_DOUBLE_EQ(q.next_time(), 5.0);
}

TEST(EventQueue, SizeCountsLiveOnly) {
  EventQueue q;
  auto h = q.schedule_reserved(1.0, q.reserve_seq(), [] {});
  q.schedule_reserved(2.0, q.reserve_seq(), [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(h);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, PopReturnsTime) {
  EventQueue q;
  q.schedule_reserved(7.5, q.reserve_seq(), [] {});
  auto [t, fn] = q.pop();
  EXPECT_DOUBLE_EQ(t, 7.5);
}

TEST(EventQueue, InvalidHandleIsNeverIssuedAndCancelsToFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventQueue::kInvalidHandle));
  for (int i = 0; i < 100; ++i) {
    EXPECT_NE(q.schedule_reserved(1.0 * i, q.reserve_seq(), [] {}), EventQueue::kInvalidHandle);
  }
}

TEST(EventQueue, StaleHandleFromFiredEventIsRejected) {
  EventQueue q;
  auto h = q.schedule_reserved(1.0, q.reserve_seq(), [] {});
  q.pop().second();
  // The slot is free now; cancelling the fired event's handle must fail ...
  EXPECT_FALSE(q.cancel(h));
  // ... and must keep failing after the slot has been reused.
  bool ran = false;
  auto h2 = q.schedule_reserved(2.0, q.reserve_seq(), [&] { ran = true; });
  EXPECT_FALSE(q.cancel(h));
  EXPECT_NE(h, h2);
  q.pop().second();
  EXPECT_TRUE(ran);
}

TEST(EventQueue, StaleHandleFromCancelledEventIsRejectedAfterSlotReuse) {
  EventQueue q;
  auto h = q.schedule_reserved(1.0, q.reserve_seq(), [] {});
  EXPECT_TRUE(q.cancel(h));
  auto h2 = q.schedule_reserved(1.0, q.reserve_seq(), [] {});  // reuses the freed slot
  EXPECT_FALSE(q.cancel(h));         // generation check rejects the old handle
  EXPECT_TRUE(q.cancel(h2));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, FifoTieBreakSurvivesInterleavedCancels) {
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventQueue::Handle> handles;
  for (int i = 0; i < 64; ++i) {
    handles.push_back(
        q.schedule_reserved(5.0, q.reserve_seq(), [&fired, i] { fired.push_back(i); }));
  }
  for (int i = 0; i < 64; i += 2) q.cancel(handles[static_cast<std::size_t>(i)]);
  while (!q.empty()) q.pop().second();
  std::vector<int> expected;
  for (int i = 1; i < 64; i += 2) expected.push_back(i);
  EXPECT_EQ(fired, expected);
}

TEST(EventQueue, CancelDestroysCallbackImmediately) {
  EventQueue q;
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  auto h = q.schedule_reserved(1.0, q.reserve_seq(), [t = std::move(token)] { (void)*t; });
  EXPECT_FALSE(watch.expired());
  EXPECT_TRUE(q.cancel(h));
  // True removal: no tombstone keeps the capture alive until pop time.
  EXPECT_TRUE(watch.expired());
}

/// Differential test: the queue must agree with a trivially correct reference
/// model (ordered multimap) through a long random schedule/cancel/pop mix.
TEST(EventQueue, MatchesReferenceModelThroughRandomMix) {
  EventQueue q;
  // Reference: key = (time, seq) -> id; std::map iterates in pop order.
  std::map<std::pair<SimTime, std::uint64_t>, int> model;
  std::unordered_map<int, EventQueue::Handle> live_handles;
  std::uint64_t rng = 0x243f6a8885a308d3ULL;
  auto rand = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  std::vector<int> fired;
  std::uint64_t seq = 0;
  int next_id = 0;
  double now = 0.0;
  for (int step = 0; step < 20000; ++step) {
    const auto roll = rand() % 100;
    if (roll < 50 || model.empty()) {
      // Schedule (times collide often to stress the FIFO tie-break).
      const double t = now + static_cast<double>(rand() % 16);
      const int id = next_id++;
      live_handles[id] =
          q.schedule_reserved(t, q.reserve_seq(), [&fired, id] { fired.push_back(id); });
      model.emplace(std::make_pair(t, seq++), id);
    } else if (roll < 75) {
      // Cancel a random live event.
      auto it = model.begin();
      std::advance(it, static_cast<long>(rand() % model.size()));
      const int id = it->second;
      EXPECT_TRUE(q.cancel(live_handles.at(id)));
      live_handles.erase(id);
      model.erase(it);
    } else {
      // Pop; both must agree on which event fires.
      ASSERT_FALSE(q.empty());
      const auto expected = model.begin();
      fired.clear();
      auto [t, fn] = q.pop();
      fn();
      ASSERT_EQ(fired.size(), 1u);
      EXPECT_EQ(fired.front(), expected->second);
      EXPECT_DOUBLE_EQ(t, expected->first.first);
      now = t;
      live_handles.erase(expected->second);
      model.erase(expected);
    }
    ASSERT_EQ(q.size(), model.size());
  }
}

/// Cancel-heavy stress: a million schedule/cancel pairs must not grow the
/// slab (no tombstones by construction) and every freed handle must be
/// rejected. Run under ASan (ctest -L sim on the asan preset) this also
/// proves the cancelled callbacks' captures are destroyed exactly once.
TEST(EventQueueStress, MillionScheduleCancelKeepsMemoryBounded) {
  EventQueue q;
  constexpr int kLive = 512;
  std::vector<EventQueue::Handle> live;
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  auto rand = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int i = 0; i < kLive; ++i) {
    live.push_back(
        q.schedule_reserved(static_cast<double>(rand() % 1000000), q.reserve_seq(), [] {}));
  }
  std::vector<EventQueue::Handle> stale;
  for (int i = 0; i < 1000000; ++i) {
    const std::size_t victim = rand() % live.size();
    ASSERT_TRUE(q.cancel(live[victim]));
    stale.push_back(live[victim]);
    live[victim] =
        q.schedule_reserved(static_cast<double>(rand() % 1000000), q.reserve_seq(), [] {});
    if (stale.size() >= 64) {
      // Freed-slot handles must all be dead, however the slots were reused.
      for (auto h : stale) ASSERT_FALSE(q.cancel(h));
      stale.clear();
    }
  }
  EXPECT_EQ(q.size(), static_cast<std::size_t>(kLive));
  // Bounded by construction: slots are reused, never accumulated. (The old
  // lazy-cancel design kept one tombstone per cancel - a million of them.) A
  // handle's low 24 bits are its slot index.
  for (auto h : live) EXPECT_LE(h & 0xffffffU, static_cast<std::uint64_t>(kLive) + 1);
  while (!q.empty()) q.pop();
}

}  // namespace
}  // namespace dpjit::sim
