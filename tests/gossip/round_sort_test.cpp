// detail::sort_round, the radix sort that orders an epidemic round, must give
// exactly std::stable_sort's order by delivery time: equal times keep their
// input (seq) order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "gossip/mixed_gossip.hpp"
#include "util/rng.hpp"

namespace dpjit::gossip::detail {
namespace {

/// One record per time, in input order: seq is the input index, the other
/// fields are derived from it so that every record is distinguishable.
std::vector<Delivery> records_at(const std::vector<SimTime>& times) {
  std::vector<Delivery> records;
  for (std::size_t i = 0; i < times.size(); ++i) {
    const auto k = static_cast<std::uint32_t>(i);
    records.push_back(Delivery{times[i], k, NodeId{static_cast<int>(i % 97)}, 3 * k, 3 * k + 2});
  }
  return records;
}

/// Sorts `times` both ways and compares every field of every record.
void expect_stable_order(const std::vector<SimTime>& times) {
  std::vector<Delivery> expected = records_at(times);
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Delivery& a, const Delivery& b) { return a.at < b.at; });
  std::vector<Delivery> sorted = records_at(times);
  std::vector<Delivery> scratch;
  sort_round(sorted, scratch);
  ASSERT_EQ(sorted.size(), expected.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(sorted[i].at, expected[i].at);
    EXPECT_EQ(sorted[i].seq, expected[i].seq);
    EXPECT_EQ(sorted[i].to, expected[i].to);
    EXPECT_EQ(sorted[i].first, expected[i].first);
    EXPECT_EQ(sorted[i].last, expected[i].last);
  }
}

/// `count` times `now + latency`, latencies drawn from `choices` distinct
/// values in [0, spread) so that exact ties are common.
std::vector<SimTime> round_times(SimTime now, double spread, int choices, int count,
                                 std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> latencies;
  for (int i = 0; i < choices; ++i) latencies.push_back(rng.uniform(0.0, spread));
  std::vector<SimTime> times;
  for (int i = 0; i < count; ++i) times.push_back(now + rng.pick(latencies));
  return times;
}

TEST(RoundSort, EmptyAndSingleRecord) {
  expect_stable_order({});
  expect_stable_order({3.5});
}

TEST(RoundSort, TwoRecords) {
  expect_stable_order({2.0, 1.0});
  expect_stable_order({1.0, 2.0});
  expect_stable_order({1.0, 1.0});
}

TEST(RoundSort, AllTimesEqualKeepInputOrder) {
  expect_stable_order(std::vector<SimTime>(1000, 300.125));
}

TEST(RoundSort, ZeroTimes) {
  // -0.0 and 0.0 compare equal, so they tie and keep their input order.
  expect_stable_order({0.0, 0.5, -0.0, 0.0, 0.25, 0.0, -0.0});
  expect_stable_order(round_times(0.0, 0.5, 20, 500, 3));
}

TEST(RoundSort, LargeNowSharesKeyPrefix) {
  // Keys share sign, exponent and most of the mantissa: few low bits vary.
  expect_stable_order(round_times(1e5, 0.4, 300, 4500, 5));
  expect_stable_order(round_times(1e8, 0.4, 300, 4500, 7));
  expect_stable_order(round_times(1e8, 1e-6, 50, 4500, 9));
}

TEST(RoundSort, RoundCrossingAPowerOfTwo) {
  // Times on both sides of 1024 differ in the exponent, not just the mantissa.
  expect_stable_order(round_times(1024.0 - 0.3, 0.6, 400, 4500, 11));
  expect_stable_order(round_times(std::ldexp(1.0, 20) - 1e-3, 2e-3, 100, 3000, 13));
}

TEST(RoundSort, ExactTiesFromRepeatedLatenciesAndDuplicates) {
  // Three latencies, as in a ring of equal links, and every copy twice in a
  // row, as a duplicating fault plan posts them.
  std::vector<SimTime> times;
  for (const SimTime t : round_times(600.0, 0.75, 3, 2000, 17)) {
    times.push_back(t);
    times.push_back(t);
  }
  expect_stable_order(times);
}

TEST(RoundSort, RandomRecords) {
  util::Rng rng(19);
  std::vector<SimTime> times;
  for (int i = 0; i < 20000; ++i) times.push_back(rng.uniform(0.0, 1e4));
  expect_stable_order(times);
}

TEST(RoundSort, ReusesAReservedScratchBufferAcrossSizes) {
  // The service reserves the buffer once for a full push; rounds of every
  // size then sort in it without moving it.
  std::vector<Delivery> scratch;
  scratch.reserve(9000);
  const Delivery* const storage = scratch.data();
  for (const int count : {5000, 40, 9000, 2}) {
    const std::vector<SimTime> times = round_times(300.0 * count, 0.5, 200, count, count);
    std::vector<Delivery> expected = records_at(times);
    std::stable_sort(expected.begin(), expected.end(),
                     [](const Delivery& a, const Delivery& b) { return a.at < b.at; });
    std::vector<Delivery> sorted = records_at(times);
    sort_round(sorted, scratch);
    EXPECT_EQ(scratch.data(), storage);
    ASSERT_EQ(sorted.size(), expected.size());
    for (std::size_t i = 0; i < sorted.size(); ++i) ASSERT_EQ(sorted[i].seq, expected[i].seq);
  }
}

}  // namespace
}  // namespace dpjit::gossip::detail
