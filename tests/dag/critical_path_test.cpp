#include "dag/critical_path.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "dag/generator.hpp"

namespace dpjit::dag {
namespace {

// Chain: a(10) -[20]-> b(30) -[40]-> c(50); avg capacity 1, bandwidth 1.
TEST(CriticalPath, ChainSumsAllTerms) {
  Workflow wf;
  auto a = wf.add_task(10, 0);
  auto b = wf.add_task(30, 0);
  auto c = wf.add_task(50, 0);
  wf.add_dependency(a, b, 20);
  wf.add_dependency(b, c, 40);
  const AverageEstimates avg{1.0, 1.0};
  EXPECT_DOUBLE_EQ(expected_finish_time(wf, avg), 150.0);
  const auto ranks = upward_ranks(wf, avg);
  EXPECT_DOUBLE_EQ(ranks[static_cast<std::size_t>(c.get())], 50.0);
  EXPECT_DOUBLE_EQ(ranks[static_cast<std::size_t>(b.get())], 120.0);
  EXPECT_DOUBLE_EQ(ranks[static_cast<std::size_t>(a.get())], 150.0);
}

TEST(CriticalPath, AveragesScaleTimes) {
  Workflow wf;
  auto a = wf.add_task(100, 0);
  auto b = wf.add_task(100, 0);
  wf.add_dependency(a, b, 50);
  // capacity 4 MIPS -> 25 s each; bandwidth 5 Mb/s -> 10 s.
  EXPECT_DOUBLE_EQ(expected_finish_time(wf, {4.0, 5.0}), 60.0);
}

TEST(CriticalPath, PicksHeavierBranch) {
  Workflow wf;
  auto a = wf.add_task(10, 0, "a");
  auto heavy = wf.add_task(100, 0, "heavy");
  auto light = wf.add_task(1, 0, "light");
  auto d = wf.add_task(10, 0, "d");
  wf.add_dependency(a, heavy, 1);
  wf.add_dependency(a, light, 1);
  wf.add_dependency(heavy, d, 1);
  wf.add_dependency(light, d, 1);
  const AverageEstimates avg{1.0, 1.0};
  EXPECT_DOUBLE_EQ(expected_finish_time(wf, avg), 10 + 1 + 100 + 1 + 10);
  // The entry's rank runs through the heavy branch.
  const auto ranks = upward_ranks(wf, avg);
  const auto rank = [&ranks](TaskIndex t) { return ranks[static_cast<std::size_t>(t.get())]; };
  EXPECT_GT(rank(heavy), rank(light));
  EXPECT_DOUBLE_EQ(rank(a), 10 + 1 + rank(heavy));
  EXPECT_DOUBLE_EQ(rank(heavy), 100 + 1 + rank(d));
}

TEST(CriticalPath, TransmissionCanDominate) {
  Workflow wf;
  auto a = wf.add_task(1, 0);
  auto slow_edge = wf.add_task(1, 0);
  auto fast_edge = wf.add_task(50, 0);
  auto d = wf.add_task(1, 0);
  wf.add_dependency(a, slow_edge, 1000);  // 1000 s of transfer
  wf.add_dependency(a, fast_edge, 1);
  wf.add_dependency(slow_edge, d, 1);
  wf.add_dependency(fast_edge, d, 1);
  // Via the slow edge: 1 + 1000 + 1 + 1 + 1; via the heavier task only
  // 1 + 1 + 50 + 1 + 1.
  const AverageEstimates avg{1.0, 1.0};
  const auto ranks = upward_ranks(wf, avg);
  EXPECT_DOUBLE_EQ(ranks[static_cast<std::size_t>(a.get())],
                   1 + 1000 + ranks[static_cast<std::size_t>(slow_edge.get())]);
  EXPECT_DOUBLE_EQ(expected_finish_time(wf, avg), 1004.0);
}

TEST(CriticalPath, UpwardRankMonotoneAlongEdges) {
  // rank(pred) >= eet(pred) + rank(succ) > rank(succ) for positive loads.
  util::Rng rng(17);
  for (int i = 0; i < 20; ++i) {
    const auto wf = generate_workflow(WorkflowId{1}, GeneratorParams{}, rng);
    const auto ranks = upward_ranks(wf, {6.2, 5.0});
    for (std::size_t t = 0; t < wf.task_count(); ++t) {
      const TaskIndex ti{static_cast<TaskIndex::underlying_type>(t)};
      for (TaskIndex s : wf.successors(ti)) {
        EXPECT_GE(ranks[t], ranks[static_cast<std::size_t>(s.get())]);
      }
    }
  }
}

/// The longest entry -> exit path sum by enumerating every path (the
/// reference the rank recursion must match).
double longest_path_from(const Workflow& wf, TaskIndex t, const AverageEstimates& avg) {
  double best = 0.0;
  for (TaskIndex s : wf.successors(t)) {
    best = std::max(best, expected_transmission_time(wf.edge_data(t, s), avg) +
                              longest_path_from(wf, s, avg));
  }
  return expected_execution_time(wf.task(t), avg) + best;
}

TEST(CriticalPath, EftEqualsCriticalPathSum) {
  util::Rng rng(99);
  const auto wf = generate_workflow(WorkflowId{1}, GeneratorParams{}, rng);
  const AverageEstimates avg{6.2, 5.0};
  EXPECT_NEAR(expected_finish_time(wf, avg), longest_path_from(wf, wf.entry(), avg), 1e-9);
}

TEST(CriticalPath, ThrowsOnCycle) {
  Workflow wf;
  auto a = wf.add_task(1, 0);
  auto b = wf.add_task(1, 0);
  wf.add_dependency(a, b, 0);
  wf.add_dependency(b, a, 0);
  EXPECT_THROW(upward_ranks(wf, {1.0, 1.0}), std::logic_error);
}

}  // namespace
}  // namespace dpjit::dag
