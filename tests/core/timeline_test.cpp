#include "core/fullahead/timeline.hpp"

#include <gtest/gtest.h>

namespace dpjit::core {
namespace {

TEST(Timeline, EmptyStartsAtReadyTime) {
  Timeline t;
  EXPECT_DOUBLE_EQ(t.earliest_start(5.0, 10.0), 5.0);
}

TEST(Timeline, AppendsAfterBookings) {
  Timeline t;
  t.book(0.0, 10.0);
  EXPECT_DOUBLE_EQ(t.earliest_start(0.0, 5.0), 10.0);
}

TEST(Timeline, InsertionFillsGaps) {
  Timeline t;
  t.book(0.0, 10.0);
  t.book(20.0, 10.0);
  // A 5-second task fits in the [10, 20) gap.
  EXPECT_DOUBLE_EQ(t.earliest_start(0.0, 5.0), 10.0);
  // An 11-second task does not: goes after the last booking.
  EXPECT_DOUBLE_EQ(t.earliest_start(0.0, 11.0), 30.0);
}

TEST(Timeline, GapRespectsReadyTime) {
  Timeline t;
  t.book(0.0, 10.0);
  t.book(20.0, 10.0);
  // Ready at 18: the remaining gap [18, 20) is too small for 5 s.
  EXPECT_DOUBLE_EQ(t.earliest_start(18.0, 5.0), 30.0);
  // Ready at 12: [12, 20) fits 5 s.
  EXPECT_DOUBLE_EQ(t.earliest_start(12.0, 5.0), 12.0);
}

TEST(Timeline, BookKeepsSortedAndDetectsOverlap) {
  Timeline t;
  t.book(20.0, 10.0);
  t.book(0.0, 10.0);
  // Sorted: the gap between the two bookings is found, not just the tail.
  EXPECT_DOUBLE_EQ(t.earliest_start(0.0, 10.0), 10.0);
  EXPECT_THROW(t.book(5.0, 10.0), std::logic_error);   // overlaps first
  EXPECT_THROW(t.book(25.0, 1.0), std::logic_error);   // overlaps second
  t.book(10.0, 10.0);                                  // exactly fills the gap
  EXPECT_DOUBLE_EQ(t.earliest_start(0.0, 1.0), 30.0);  // no gap left
}

TEST(Timeline, ZeroDurationBookingsAllowed) {
  Timeline t;
  t.book(5.0, 0.0);
  EXPECT_DOUBLE_EQ(t.earliest_start(0.0, 10.0), 0.0);  // zero-width slot: gap before is fine
}

TEST(Timeline, NegativeDurationThrows) {
  Timeline t;
  EXPECT_THROW(t.book(0.0, -1.0), std::logic_error);
}

TEST(Timeline, BackToBackBookings) {
  Timeline t;
  for (int i = 0; i < 10; ++i) t.book(i * 10.0, 10.0);
  EXPECT_DOUBLE_EQ(t.earliest_start(0.0, 1.0), 100.0);
}

}  // namespace
}  // namespace dpjit::core
