// First-phase rule behaviours beyond the Fig. 3 oracle: RSS-copy load
// updates (Algorithm 1 line 15), hotspot avoidance, batch heuristic iteration.
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "core/dispatch.hpp"

namespace dpjit::core {
namespace {

/// A context with live Eq. (4)-(6) estimation and a mutable resource copy,
/// over tasks with no inputs (pure compute).
class ComputeContext final : public DispatchContext {
 public:
  ComputeContext(std::vector<gossip::ResourceEntry> resources,
                 std::vector<PendingWorkflow> pending)
      : resources_(std::move(resources)), pending_(std::move(pending)) {}

  [[nodiscard]] std::vector<gossip::ResourceEntry>& resources() override { return resources_; }
  [[nodiscard]] const std::vector<PendingWorkflow>& pending() const override { return pending_; }

  [[nodiscard]] double finish_time(const CandidateTask& task,
                                   const gossip::ResourceEntry& r) const override {
    return estimate_finish_time(task.inputs, r, transfer_time_).finish_s;
  }

  void dispatch(const CandidateTask& task, NodeId target) override {
    dispatched_.emplace_back(task.ref, target);
    for (auto& r : resources_) {
      if (r.node == target) r.load_mi += task.load_mi;
    }
  }

  std::vector<std::pair<TaskRef, NodeId>> dispatched_;

 private:
  TransferTimeFn transfer_time_ = size_over_bandwidth([](NodeId, NodeId) { return 1.0; });
  std::vector<gossip::ResourceEntry> resources_;
  std::vector<PendingWorkflow> pending_;
};

CandidateTask compute_task(int wf, int idx, double load, double rpm, double ms) {
  CandidateTask c;
  c.ref = TaskRef{WorkflowId{wf}, TaskIndex{idx}};
  c.load_mi = load;
  c.inputs.load_mi = load;
  c.rpm = rpm;
  c.wf_makespan = ms;
  c.slack = ms - rpm;
  return c;
}

TEST(FirstPhase, LoadUpdateSpreadsTasksAcrossEqualNodes) {
  // Two identical nodes, four identical tasks: without the Algorithm-1-line-15
  // RSS update they would all pile on node 0; with it they alternate.
  std::vector<gossip::ResourceEntry> resources{
      {NodeId{0}, 0.0, 1.0, 0.0, 0},
      {NodeId{1}, 0.0, 1.0, 0.0, 0},
  };
  PendingWorkflow wf;
  wf.wf = WorkflowId{0};
  wf.makespan = 100;
  for (int i = 0; i < 4; ++i) wf.tasks.push_back(compute_task(0, i, 50, 100 - i, 100));
  ComputeContext ctx(resources, {wf});
  run_first_phase(make_algorithm("dsmf"), ctx);
  ASSERT_EQ(ctx.dispatched_.size(), 4u);
  int on0 = 0, on1 = 0;
  for (const auto& [ref, node] : ctx.dispatched_) (node == NodeId{0} ? on0 : on1)++;
  EXPECT_EQ(on0, 2);
  EXPECT_EQ(on1, 2);
}

TEST(FirstPhase, FasterNodePreferredUntilSaturated) {
  std::vector<gossip::ResourceEntry> resources{
      {NodeId{0}, 0.0, 4.0, 0.0, 0},  // fast
      {NodeId{1}, 0.0, 1.0, 0.0, 0},  // slow
  };
  PendingWorkflow wf;
  wf.wf = WorkflowId{0};
  wf.makespan = 10;
  for (int i = 0; i < 5; ++i) wf.tasks.push_back(compute_task(0, i, 40, 10 - i, 10));
  ComputeContext ctx(resources, {wf});
  run_first_phase(make_algorithm("dsmf"), ctx);
  // Fast node (cap 4) takes tasks until its queue makes the slow node
  // competitive: FT(fast) after k tasks = (k+1)*10; FT(slow) = 40.
  int on_fast = 0;
  for (const auto& [ref, node] : ctx.dispatched_) on_fast += node == NodeId{0} ? 1 : 0;
  EXPECT_EQ(on_fast, 4);
}

TEST(FirstPhase, MinMinReevaluatesAfterEachDispatch) {
  // Two tasks, one fast node. min-min puts the short task first; after the
  // RSS update the long task may prefer the other node.
  std::vector<gossip::ResourceEntry> resources{
      {NodeId{0}, 0.0, 2.0, 0.0, 0},
      {NodeId{1}, 0.0, 1.0, 0.0, 0},
  };
  PendingWorkflow wf;
  wf.wf = WorkflowId{0};
  wf.makespan = 100;
  wf.tasks.push_back(compute_task(0, 0, 100, 50, 100));  // long
  wf.tasks.push_back(compute_task(0, 1, 10, 100, 100));  // short
  ComputeContext ctx(resources, {wf});
  run_first_phase(make_algorithm("minmin"), ctx);
  ASSERT_EQ(ctx.dispatched_.size(), 2u);
  // Short first (FT 5 on node 0), long second (node0 FT = 5+50=55 vs node1 100).
  EXPECT_EQ(ctx.dispatched_[0].first.task.get(), 1);
  EXPECT_EQ(ctx.dispatched_[0].second, NodeId{0});
  EXPECT_EQ(ctx.dispatched_[1].second, NodeId{0});
}

TEST(FirstPhase, MaxMinPutsLongTaskFirst) {
  std::vector<gossip::ResourceEntry> resources{
      {NodeId{0}, 0.0, 2.0, 0.0, 0},
      {NodeId{1}, 0.0, 1.0, 0.0, 0},
  };
  PendingWorkflow wf;
  wf.wf = WorkflowId{0};
  wf.makespan = 100;
  wf.tasks.push_back(compute_task(0, 0, 100, 50, 100));
  wf.tasks.push_back(compute_task(0, 1, 10, 100, 100));
  ComputeContext ctx(resources, {wf});
  run_first_phase(make_algorithm("maxmin"), ctx);
  EXPECT_EQ(ctx.dispatched_[0].first.task.get(), 0);
}

TEST(FirstPhase, NoResourcesDispatchesNothing) {
  PendingWorkflow wf;
  wf.wf = WorkflowId{0};
  wf.tasks.push_back(compute_task(0, 0, 10, 1, 1));
  ComputeContext ctx({}, {wf});
  run_first_phase(make_algorithm("dsmf"), ctx);
  EXPECT_TRUE(ctx.dispatched_.empty());
  ComputeContext ctx2({}, {wf});
  run_first_phase(make_algorithm("minmin"), ctx2);
  EXPECT_TRUE(ctx2.dispatched_.empty());
}

TEST(FirstPhase, SelectMinFtTieBreaksTowardFirstEntry) {
  // Formula (9) placement: of two equally good entries, the earlier wins.
  std::vector<gossip::ResourceEntry> resources{
      {NodeId{3}, 0.0, 1.0, 0.0, 0},
      {NodeId{4}, 0.0, 1.0, 0.0, 0},
  };
  PendingWorkflow wf;
  wf.wf = WorkflowId{0};
  wf.tasks.push_back(compute_task(0, 0, 10, 1, 1));
  ComputeContext ctx(resources, {wf});
  run_first_phase(make_algorithm("dsmf"), ctx);
  ASSERT_EQ(ctx.dispatched_.size(), 1u);
  EXPECT_EQ(ctx.dispatched_[0].second, NodeId{3});
}

TEST(FirstPhase, FullAheadRowsHaveNoFirstPhase) {
  ComputeContext ctx({}, {});
  EXPECT_THROW(run_first_phase(make_algorithm("heft"), ctx), std::logic_error);
}

}  // namespace
}  // namespace dpjit::core
