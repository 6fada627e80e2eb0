// TwoTierQueue must pop in exactly sim::EventQueue's (time, insertion) order.
// The differential tests drive both with the same seeded push/pop streams on a
// deliberately tiny geometry (0.5 s buckets, an 8-bucket ring spanning 4 s), so
// a few thousand operations cross the heap, the ring and the overflow many
// times: equal times, times exactly on bucket boundaries, times beyond the
// ring, long empty stretches, bursts, and pushes into the past.
#include "sim/two_tier_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace dpjit::sim {
namespace {

constexpr double kWidth = 0.5;
constexpr std::size_t kBuckets = 8;
constexpr double kSpan = kWidth * static_cast<double>(kBuckets);

/// The queue under test next to the reference, fed identical streams. Each
/// callback logs its push id, so a pop compares time and identity.
struct Differential {
  EventQueue ref;
  TwoTierQueue queue{kWidth, kBuckets};
  std::vector<int> ref_fired;
  std::vector<int> queue_fired;
  int next_id = 0;
  double now = 0.0;

  void push(double t) {
    const int id = next_id++;
    ref.schedule(t, [this, id] { ref_fired.push_back(id); });
    queue.push(t, [this, id] { queue_fired.push_back(id); });
  }

  /// Pops one event from each; false once they disagree.
  bool pop() {
    if (ref.size() != queue.size() || ref.empty()) return false;
    if (ref.next_time() != queue.next_time()) return false;
    auto [ref_t, ref_fn] = ref.pop();
    auto [queue_t, queue_fn] = queue.pop();
    ref_fn();
    queue_fn();
    now = ref_t;
    return ref_t == queue_t && ref_fired.back() == queue_fired.back();
  }

  bool drain() {
    while (!ref.empty()) {
      if (!pop()) return false;
    }
    return queue.empty();
  }
};

/// A push time of one of the stream's kinds, mostly at or after `now`.
double draw_time(util::Rng& rng, double now) {
  const double bucket_start = static_cast<double>(static_cast<std::int64_t>(now / kWidth)) * kWidth;
  switch (rng.uniform_int(0, 9)) {
    case 0:  // a handful of shared times: heavy ties
    case 1:
      return bucket_start + kWidth * static_cast<double>(rng.uniform_int(0, 3));
    case 2:  // exactly on a bucket boundary somewhere in the ring
      return bucket_start + kWidth * static_cast<double>(rng.uniform_int(0, 2 * kBuckets));
    case 3:  // beyond the ring span, sometimes far beyond
      return now + kSpan * static_cast<double>(rng.uniform_int(1, 6)) + rng.uniform(0.0, kWidth);
    case 4:  // in the past, still >= 0
      return rng.uniform(0.0, now);
    case 5:  // just past the current bucket
      return bucket_start + kWidth;
    default:
      return now + rng.uniform(0.0, kSpan);
  }
}

TEST(TwoTierQueue, MatchesEventQueueOnRandomStreams) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng(seed);
    Differential d;
    for (int step = 0; step < 3000; ++step) {
      const std::int64_t roll = rng.uniform_int(0, 99);
      if (roll < 3) {
        // Burst: many pushes at once, many of them tied.
        for (int i = 0; i < 64; ++i) d.push(draw_time(rng, d.now));
      } else if (roll < 5) {
        // Drain, then idle a long stretch (hundreds of ring spans) before
        // the next push.
        ASSERT_TRUE(d.drain()) << "seed=" << seed << " step=" << step;
        d.now += kSpan * static_cast<double>(rng.uniform_int(10, 400)) + rng.uniform(0.0, kWidth);
        d.push(d.now);
      } else if (roll < 55 || d.ref.empty()) {
        d.push(draw_time(rng, d.now));
      } else {
        ASSERT_TRUE(d.pop()) << "seed=" << seed << " step=" << step;
      }
    }
    ASSERT_TRUE(d.drain()) << "seed=" << seed;
    EXPECT_EQ(d.queue_fired, d.ref_fired) << "seed=" << seed;
  }
}

TEST(TwoTierQueue, OverflowOnlyAcrossEmptyRing) {
  // Every event lies beyond the ring span of its predecessor, so the ring is
  // empty at every refill and each pop jumps straight into the overflow.
  Differential d;
  for (int i = 0; i < 200; ++i) d.push(kSpan * 3.0 * static_cast<double>(i % 50) + 0.25 * (i / 50));
  ASSERT_TRUE(d.drain());
  EXPECT_EQ(d.queue_fired, d.ref_fired);
  EXPECT_EQ(d.queue_fired.size(), 200u);
}

TEST(TwoTierQueue, InfiniteTimesPopLast) {
  Differential d;
  const double inf = std::numeric_limits<double>::infinity();
  d.push(inf);
  d.push(1.0);
  d.push(inf);
  ASSERT_TRUE(d.pop());
  EXPECT_EQ(d.now, 1.0);
  d.push(kSpan * 100.0);  // pushed while only +inf events remain
  ASSERT_TRUE(d.drain());
  EXPECT_EQ(d.queue_fired, (std::vector<int>{1, 3, 0, 2}));
}

TEST(TwoTierQueue, NegativeZeroTiesWithZero) {
  Differential d;
  d.push(0.0);
  d.push(-0.0);
  d.push(0.0);
  ASSERT_TRUE(d.drain());
  EXPECT_EQ(d.queue_fired, (std::vector<int>{0, 1, 2}));
}

TEST(TwoTierQueue, CtorRejectsBadGeometry) {
  EXPECT_THROW(TwoTierQueue(0.0, 8), std::invalid_argument);
  EXPECT_THROW(TwoTierQueue(-1.0, 8), std::invalid_argument);
  EXPECT_THROW(TwoTierQueue(std::numeric_limits<double>::infinity(), 8), std::invalid_argument);
  EXPECT_THROW(TwoTierQueue(std::numeric_limits<double>::quiet_NaN(), 8), std::invalid_argument);
  EXPECT_THROW(TwoTierQueue(1e-320, 8), std::invalid_argument);  // 1 / width overflows
  EXPECT_THROW(TwoTierQueue(1.0, 0), std::invalid_argument);
  EXPECT_THROW(TwoTierQueue(1.0, 1), std::invalid_argument);
  EXPECT_THROW(TwoTierQueue(1.0, 12), std::invalid_argument);
  EXPECT_NO_THROW(TwoTierQueue(1.0, 2));
}

}  // namespace
}  // namespace dpjit::sim
