#include "core/algorithm.hpp"

#include <gtest/gtest.h>

namespace dpjit::core {
namespace {

grid::ReadyTask make(int id, double ms, double rpm, double load, double slack, double suff,
                     std::uint64_t seq) {
  grid::ReadyTask t;
  t.ref = TaskRef{WorkflowId{id}, TaskIndex{0}};
  t.wf_makespan = ms;
  t.rpm = rpm;
  t.load_mi = load;
  t.slack = slack;
  t.sufferage = suff;
  t.arrival_seq = seq;
  return t;
}

std::vector<const grid::ReadyTask*> ptrs(const std::vector<grid::ReadyTask>& v) {
  std::vector<const grid::ReadyTask*> out;
  for (const auto& t : v) out.push_back(&t);
  return out;
}

TEST(ReadyPolicies, DsmfPicksSmallestWorkflowMakespan) {
  const std::vector<grid::ReadyTask> tasks{
      make(0, 115, 80, 10, 35, 0, 0),
      make(1, 65, 65, 10, 0, 0, 1),
      make(2, 300, 10, 10, 290, 0, 2),
  };
  EXPECT_EQ(select_ready(ready_comparator("dsmf"), ptrs(tasks)), 1u);
}

TEST(ReadyPolicies, DsmfBreaksTiesByLongestRpm) {
  // Formula (10) + Algorithm 2 lines 3-5.
  const std::vector<grid::ReadyTask> tasks{
      make(0, 65, 20, 10, 45, 0, 0),
      make(1, 65, 60, 10, 5, 0, 1),
  };
  EXPECT_EQ(select_ready(ready_comparator("dsmf"), ptrs(tasks)), 1u);
}

TEST(ReadyPolicies, DsmfDoubleTieFallsBackToArrival) {
  const std::vector<grid::ReadyTask> tasks{
      make(0, 65, 60, 10, 5, 0, 7),
      make(1, 65, 60, 10, 5, 0, 3),
  };
  EXPECT_EQ(select_ready(ready_comparator("dsmf"), ptrs(tasks)), 1u);
}

TEST(ReadyPolicies, LrpmPicksLongestRpm) {
  const std::vector<grid::ReadyTask> tasks{
      make(0, 1, 80, 10, 0, 0, 0),
      make(1, 1, 115, 10, 0, 0, 1),
      make(2, 1, 60, 10, 0, 0, 2),
  };
  EXPECT_EQ(select_ready(ready_comparator("lrpm"), ptrs(tasks)), 1u);
}

TEST(ReadyPolicies, SlackPicksTightestDeadline) {
  const std::vector<grid::ReadyTask> tasks{
      make(0, 1, 1, 10, 35, 0, 0),
      make(1, 1, 1, 10, 0, 0, 1),
      make(2, 1, 1, 10, 5, 0, 2),
  };
  EXPECT_EQ(select_ready(ready_comparator("slack"), ptrs(tasks)), 1u);
}

TEST(ReadyPolicies, StfAndLtfUseLoad) {
  const std::vector<grid::ReadyTask> tasks{
      make(0, 1, 1, 500, 0, 0, 0),
      make(1, 1, 1, 100, 0, 0, 1),
      make(2, 1, 1, 900, 0, 0, 2),
  };
  EXPECT_EQ(select_ready(ready_comparator("stf"), ptrs(tasks)), 1u);
  EXPECT_EQ(select_ready(ready_comparator("ltf"), ptrs(tasks)), 2u);
}

TEST(ReadyPolicies, LsfPicksLargestSufferage) {
  const std::vector<grid::ReadyTask> tasks{
      make(0, 1, 1, 10, 0, 5, 0),
      make(1, 1, 1, 10, 0, 25, 1),
      make(2, 1, 1, 10, 0, 10, 2),
  };
  EXPECT_EQ(select_ready(ready_comparator("lsf"), ptrs(tasks)), 1u);
}

TEST(ReadyPolicies, FcfsPicksEarliestArrival) {
  const std::vector<grid::ReadyTask> tasks{
      make(0, 1, 99, 1, 0, 9, 5),
      make(1, 1, 1, 99, 0, 0, 2),
      make(2, 1, 50, 50, 0, 5, 9),
  };
  EXPECT_EQ(select_ready(ready_comparator("fcfs"), ptrs(tasks)), 1u);
}

TEST(ReadyPolicies, SingleCandidateAlwaysChosen) {
  const std::vector<grid::ReadyTask> tasks{make(0, 1, 1, 1, 0, 0, 0)};
  for (auto name : ready_comparator_names()) {
    EXPECT_EQ(select_ready(ready_comparator(name), ptrs(tasks)), 0u) << name;
  }
}

TEST(ReadyPolicies, EmptyCandidatesThrow) {
  EXPECT_THROW((void)select_ready(ready_comparator("dsmf"), {}), std::logic_error);
}

TEST(ReadyPolicies, UnknownNameThrows) {
  EXPECT_THROW((void)ready_comparator("nope"), std::invalid_argument);
}

TEST(ReadyPolicies, AllNamesConstructible) {
  for (auto name : ready_comparator_names()) {
    EXPECT_NE(ready_comparator(name), nullptr) << name;
  }
}

}  // namespace
}  // namespace dpjit::core
