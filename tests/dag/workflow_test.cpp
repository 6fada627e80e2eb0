#include "dag/workflow.hpp"

#include <gtest/gtest.h>

namespace dpjit::dag {
namespace {

Workflow diamond() {
  Workflow wf(WorkflowId{1});
  auto a = wf.add_task(10, 1, "a");
  auto b = wf.add_task(20, 1, "b");
  auto c = wf.add_task(30, 1, "c");
  auto d = wf.add_task(40, 1, "d");
  wf.add_dependency(a, b, 5);
  wf.add_dependency(a, c, 6);
  wf.add_dependency(b, d, 7);
  wf.add_dependency(c, d, 8);
  return wf;
}

TEST(Workflow, AddTaskAssignsSequentialIndices) {
  Workflow wf;
  EXPECT_EQ(wf.add_task(1, 1).get(), 0);
  EXPECT_EQ(wf.add_task(1, 1).get(), 1);
  EXPECT_EQ(wf.task_count(), 2u);
}

TEST(Workflow, RejectsNegativeWeights) {
  Workflow wf;
  EXPECT_THROW(wf.add_task(-1, 0), std::invalid_argument);
  EXPECT_THROW(wf.add_task(0, -1), std::invalid_argument);
}

TEST(Workflow, DependencyBookkeeping) {
  auto wf = diamond();
  const TaskIndex a{0}, b{1}, c{2}, d{3};
  EXPECT_EQ(wf.edge_count(), 4u);
  EXPECT_EQ(wf.successors(a).size(), 2u);
  EXPECT_EQ(wf.predecessors(d).size(), 2u);
  EXPECT_DOUBLE_EQ(wf.edge_data(a, b), 5.0);
  EXPECT_DOUBLE_EQ(wf.edge_data(c, d), 8.0);
  EXPECT_THROW((void)wf.edge_data(a, d), std::out_of_range);
}

TEST(Workflow, SuccessorDataParallelsSuccessors) {
  const auto wf = diamond();
  for (std::size_t i = 0; i < wf.task_count(); ++i) {
    const TaskIndex t{static_cast<TaskIndex::underlying_type>(i)};
    const auto& succ = wf.successors(t);
    const auto& data = wf.successor_data(t);
    ASSERT_EQ(succ.size(), data.size());
    for (std::size_t k = 0; k < succ.size(); ++k) EXPECT_EQ(data[k], wf.edge_data(t, succ[k]));
  }
}

TEST(Workflow, RejectsBadEdges) {
  Workflow wf;
  auto a = wf.add_task(1, 1);
  auto b = wf.add_task(1, 1);
  EXPECT_THROW(wf.add_dependency(a, a, 1), std::invalid_argument);   // self-loop
  EXPECT_THROW(wf.add_dependency(a, TaskIndex{9}, 1), std::out_of_range);
  EXPECT_THROW(wf.add_dependency(a, b, -1), std::invalid_argument);  // negative data
  wf.add_dependency(a, b, 1);
  EXPECT_THROW(wf.add_dependency(a, b, 2), std::invalid_argument);   // duplicate
}

TEST(Workflow, DetectsCycle) {
  Workflow wf;
  auto a = wf.add_task(1, 1);
  auto b = wf.add_task(1, 1);
  auto c = wf.add_task(1, 1);
  wf.add_dependency(a, b, 0);
  wf.add_dependency(b, c, 0);
  EXPECT_TRUE(wf.is_acyclic());
  wf.add_dependency(c, a, 0);
  EXPECT_FALSE(wf.is_acyclic());
  EXPECT_FALSE(wf.validate().empty());
}

TEST(Workflow, EntryAndExitOfDiamond) {
  auto wf = diamond();
  EXPECT_EQ(wf.entry().get(), 0);
  EXPECT_EQ(wf.exit_tasks(), std::vector<TaskIndex>{TaskIndex{3}});
}

TEST(Workflow, NormalizeAddsVirtualEntryAndExit) {
  Workflow wf;
  auto a = wf.add_task(1, 1);
  auto b = wf.add_task(1, 1);
  auto c = wf.add_task(1, 1);
  auto d = wf.add_task(1, 1);
  wf.add_dependency(a, c, 1);
  wf.add_dependency(b, d, 1);
  EXPECT_EQ(wf.entry_tasks().size(), 2u);
  EXPECT_EQ(wf.exit_tasks().size(), 2u);
  wf.normalize();
  EXPECT_EQ(wf.task_count(), 6u);
  EXPECT_EQ(wf.entry_tasks().size(), 1u);
  EXPECT_EQ(wf.exit_tasks().size(), 1u);
  // Virtual tasks are zero-cost (paper Section II.A).
  EXPECT_DOUBLE_EQ(wf.task(wf.entry()).load_mi, 0.0);
  EXPECT_DOUBLE_EQ(wf.task(wf.exit_tasks().front()).load_mi, 0.0);
  EXPECT_TRUE(wf.validate().empty());
}

TEST(Workflow, NormalizeIdempotent) {
  auto wf = diamond();
  wf.normalize();
  const auto n = wf.task_count();
  wf.normalize();
  EXPECT_EQ(wf.task_count(), n);
}

TEST(Workflow, TopologicalOrderRespectsEdges) {
  auto wf = diamond();
  const auto order = wf.topological_order();
  ASSERT_EQ(order.size(), 4u);
  std::vector<int> pos(4);
  for (int i = 0; i < 4; ++i) pos[static_cast<std::size_t>(order[static_cast<std::size_t>(i)].get())] = i;
  for (std::size_t t = 0; t < 4; ++t) {
    for (TaskIndex s : wf.successors(TaskIndex{static_cast<TaskIndex::underlying_type>(t)})) {
      EXPECT_LT(pos[t], pos[static_cast<std::size_t>(s.get())]);
    }
  }
}

TEST(Workflow, TotalLoad) {
  auto wf = diamond();
  EXPECT_DOUBLE_EQ(wf.total_load_mi(), 100.0);
}

TEST(Workflow, ValidateFlagsUnreachableTask) {
  Workflow wf;
  auto a = wf.add_task(1, 1);
  auto b = wf.add_task(1, 1);
  wf.add_dependency(a, b, 0);
  wf.add_task(1, 1);  // isolated task: a second entry AND a second exit
  const auto issues = wf.validate();
  EXPECT_FALSE(issues.empty());
}

TEST(Workflow, ValidateEmptyWorkflow) {
  Workflow wf;
  const auto issues = wf.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].find("no tasks"), std::string::npos);
}

TEST(Workflow, EntryThrowsWhenAmbiguous) {
  Workflow wf;
  wf.add_task(1, 1);
  wf.add_task(1, 1);
  EXPECT_THROW((void)wf.entry(), std::logic_error);
}

}  // namespace
}  // namespace dpjit::dag
