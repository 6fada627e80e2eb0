#include "grid/grid_node.hpp"

#include <gtest/gtest.h>

namespace dpjit::grid {
namespace {

ReadyTask task(int wf, int t, double load, int pending = 0) {
  ReadyTask r;
  r.ref = TaskRef{WorkflowId{wf}, TaskIndex{t}};
  r.load_mi = load;
  r.pending_inputs = pending;
  return r;
}

TEST(GridNode, RejectsNonPositiveCapacity) {
  EXPECT_THROW(GridNode(NodeId{0}, 0.0), std::invalid_argument);
}

TEST(GridNode, ReadySetAddFindRemove) {
  GridNode n(NodeId{0}, 4.0);
  n.add_ready(task(1, 1, 100));
  n.add_ready(task(1, 2, 200));
  EXPECT_EQ(n.ready().size(), 2u);
  ASSERT_NE(n.find_ready(TaskRef{WorkflowId{1}, TaskIndex{2}}), nullptr);
  EXPECT_TRUE(n.remove_ready(TaskRef{WorkflowId{1}, TaskIndex{1}}));
  EXPECT_FALSE(n.remove_ready(TaskRef{WorkflowId{1}, TaskIndex{1}}));
  EXPECT_EQ(n.ready().size(), 1u);
}

TEST(GridNode, DuplicateReadyTaskThrows) {
  GridNode n(NodeId{0}, 4.0);
  n.add_ready(task(1, 1, 100));
  EXPECT_THROW(n.add_ready(task(1, 1, 50)), std::logic_error);
  EXPECT_EQ(n.ready().size(), 1u);
  EXPECT_EQ(n.total_load_mi(0.0), 100.0);
  // Once removed, the same task may be dispatched here again.
  EXPECT_TRUE(n.remove_ready(TaskRef{WorkflowId{1}, TaskIndex{1}}));
  n.add_ready(task(1, 1, 50));
  EXPECT_EQ(n.ready().size(), 1u);
}

TEST(GridNode, InvalidTaskRefThrows) {
  GridNode n(NodeId{0}, 4.0);
  EXPECT_THROW(n.add_ready(ReadyTask{}), std::invalid_argument);
}

TEST(GridNode, InputArrivedStampsTheLastInput) {
  GridNode n(NodeId{0}, 4.0);
  const TaskRef ref{WorkflowId{1}, TaskIndex{1}};
  n.add_ready(task(1, 1, 100, 2));
  EXPECT_FALSE(n.input_arrived(ref, 1.0));
  EXPECT_TRUE(n.data_complete().empty());
  EXPECT_TRUE(n.input_arrived(ref, 2.5));
  ASSERT_EQ(n.data_complete().size(), 1u);
  EXPECT_EQ(n.find_ready(ref)->data_ready_at, 2.5);
  // Not queued here: nothing to stamp.
  EXPECT_FALSE(n.input_arrived(TaskRef{WorkflowId{9}, TaskIndex{9}}, 3.0));
}

TEST(GridNode, ReadyDepthMaxTracksTheDeepestSet) {
  GridNode n(NodeId{0}, 4.0);
  EXPECT_EQ(n.ready_depth_max(), 0u);
  for (int t = 0; t < 3; ++t) n.add_ready(task(1, t, 10));
  n.remove_ready(TaskRef{WorkflowId{1}, TaskIndex{0}});
  n.add_ready(task(1, 7, 10));
  EXPECT_EQ(n.ready().size(), 3u);
  EXPECT_EQ(n.ready_depth_max(), 3u);
  (void)n.drain_ready();
  EXPECT_EQ(n.ready_depth_max(), 3u);
}

TEST(GridNode, DataCompleteFiltersPendingInputs) {
  GridNode n(NodeId{0}, 4.0);
  n.add_ready(task(1, 1, 100, 2));
  n.add_ready(task(1, 2, 200, 0));
  const auto ready = n.data_complete();
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0]->ref.task.get(), 2);
}

TEST(GridNode, StartRunRemovesFromReadySet) {
  GridNode n(NodeId{0}, 4.0);
  n.add_ready(task(1, 1, 100));
  const double duration = n.start_running(TaskRef{WorkflowId{1}, TaskIndex{1}}, 0.0);
  EXPECT_DOUBLE_EQ(duration, 25.0);  // 100 MI / 4 MIPS
  EXPECT_TRUE(n.busy());
  EXPECT_TRUE(n.ready().empty());
  ASSERT_NE(n.running(), nullptr);
  EXPECT_EQ(n.running()->ref.task.get(), 1);
}

TEST(GridNode, NonPreemptive) {
  GridNode n(NodeId{0}, 1.0);
  n.add_ready(task(1, 1, 10));
  n.add_ready(task(1, 2, 10));
  n.start_running(TaskRef{WorkflowId{1}, TaskIndex{1}}, 0.0);
  EXPECT_THROW(n.start_running(TaskRef{WorkflowId{1}, TaskIndex{2}}, 0.0), std::logic_error);
}

TEST(GridNode, CannotStartWithPendingInputs) {
  GridNode n(NodeId{0}, 1.0);
  n.add_ready(task(1, 1, 10, 1));
  EXPECT_THROW(n.start_running(TaskRef{WorkflowId{1}, TaskIndex{1}}, 0.0), std::logic_error);
}

TEST(GridNode, CannotStartUnknownTask) {
  GridNode n(NodeId{0}, 1.0);
  EXPECT_THROW(n.start_running(TaskRef{WorkflowId{1}, TaskIndex{1}}, 0.0), std::logic_error);
}

TEST(GridNode, FinishRunningReturnsTask) {
  GridNode n(NodeId{0}, 2.0);
  n.add_ready(task(3, 4, 100));
  n.start_running(TaskRef{WorkflowId{3}, TaskIndex{4}}, 0.0);
  const auto done = n.finish_running();
  EXPECT_EQ(done.ref.workflow.get(), 3);
  EXPECT_FALSE(n.busy());
  EXPECT_THROW(n.finish_running(), std::logic_error);
}

TEST(GridNode, AbortRunning) {
  GridNode n(NodeId{0}, 2.0);
  EXPECT_FALSE(n.abort_running().has_value());
  n.add_ready(task(3, 4, 100));
  n.start_running(TaskRef{WorkflowId{3}, TaskIndex{4}}, 0.0);
  const auto aborted = n.abort_running();
  ASSERT_TRUE(aborted.has_value());
  EXPECT_EQ(aborted->ref.task.get(), 4);
  EXPECT_FALSE(n.busy());
}

TEST(GridNode, TotalLoadCountsQueuedPlusRemainingRunning) {
  GridNode n(NodeId{0}, 10.0);  // 100 MI -> 10 s
  n.add_ready(task(1, 1, 100));
  n.add_ready(task(1, 2, 50));
  EXPECT_DOUBLE_EQ(n.total_load_mi(0.0), 150.0);
  n.start_running(TaskRef{WorkflowId{1}, TaskIndex{1}}, 0.0);
  // Halfway through the running task: 50 remaining + 50 queued.
  EXPECT_DOUBLE_EQ(n.total_load_mi(5.0), 100.0);
  // At the nominal finish time, only the queued load remains.
  EXPECT_DOUBLE_EQ(n.total_load_mi(10.0), 50.0);
}

TEST(GridNode, DrainReadyEmptiesAndReturns) {
  GridNode n(NodeId{0}, 1.0);
  n.add_ready(task(1, 1, 10));
  n.add_ready(task(1, 2, 10));
  const auto drained = n.drain_ready();
  EXPECT_EQ(drained.size(), 2u);
  EXPECT_TRUE(n.ready().empty());
}

}  // namespace
}  // namespace dpjit::grid
