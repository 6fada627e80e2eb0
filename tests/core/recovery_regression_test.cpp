// Churn-recovery regression tests for the demotion bookkeeping in
// GridSystem::recover_task (strict data semantics: a finished precedent whose
// execution node departed must be demoted and re-executed).
//
// The choreography drives the fork DAG  u -> {s1, s2} -> join  through two
// demotions of u, the second one while u's completion notification is still
// in flight to the home node:
//   - successors in kWaiting must get a recomputed (not blindly incremented)
//     precedent count, otherwise the in-flight notification is double-counted;
//   - successors in kFailed must come out of recovery with a consistent count;
//   - the stale notification of a demoted incarnation must be dropped, or a
//     successor becomes schedulable while its precedent is still re-executing
//     and gets dispatched against data that does not exist yet.
#include "core/grid_system.hpp"

#include <gtest/gtest.h>

#include "dag/workflow.hpp"

namespace dpjit::core {
namespace {

/// 8 nodes in a line with deliberately large 5 s control latencies, so the
/// window between a task finishing at its execution node and the home node
/// learning about it spans many engine events.
struct SlowWanWorld {
  SlowWanWorld()
      : topo(net::Topology::from_links(8, {{NodeId{0}, NodeId{1}, 10.0, 5.0},
                                           {NodeId{1}, NodeId{2}, 10.0, 5.0},
                                           {NodeId{2}, NodeId{3}, 10.0, 5.0},
                                           {NodeId{3}, NodeId{4}, 10.0, 5.0},
                                           {NodeId{4}, NodeId{5}, 10.0, 5.0},
                                           {NodeId{5}, NodeId{6}, 10.0, 5.0},
                                           {NodeId{6}, NodeId{7}, 10.0, 5.0}})),
        routing(topo),
        rng(7),
        landmarks(routing, 2, rng) {
    SystemConfig config;
    config.scheduling_interval_s = 100.0;
    config.horizon_s = 200000.0;
    config.gossip.cycle_s = 50.0;
    config.home_keeps_outputs = false;  // strict: data dies with the node
    config.reschedule_failed = true;
    system = std::make_unique<GridSystem>(engine, topo, routing, landmarks,
                                          std::vector<double>{1, 8, 4, 8, 2, 8, 4, 8},
                                          make_algorithm("dsmf"), config);
  }

  /// Steps until `done()` returns true; hard-fails if the engine drains.
  template <typename Pred>
  void step_until(Pred done) {
    for (int i = 0; i < 5'000'000; ++i) {
      if (done()) return;
      ASSERT_TRUE(engine.step()) << "engine drained before the condition held";
    }
    FAIL() << "condition not reached within the step budget";
  }

  sim::Engine engine;
  net::Topology topo;
  net::Routing routing;
  util::Rng rng;
  net::LandmarkEstimator landmarks;
  std::unique_ptr<GridSystem> system;
};

TEST(ChurnRecovery, DemotionKeepsSuccessorCountsConsistentAcrossStaleNotifications) {
  SlowWanWorld w;
  dag::Workflow wf;
  const auto u = wf.add_task(2000.0, 10.0, "u");
  const auto s1 = wf.add_task(60000.0, 10.0, "s1");
  const auto s2 = wf.add_task(100000.0, 10.0, "s2");
  const auto join = wf.add_task(10.0, 1.0, "join");
  wf.add_dependency(u, s1, 10.0);
  wf.add_dependency(u, s2, 10.0);
  wf.add_dependency(s1, join, 10.0);
  wf.add_dependency(s2, join, 10.0);
  const NodeId home{0};
  const auto id = w.system->submit(home, std::move(wf));
  const auto& inst = w.system->workflow(id);
  const auto ui = static_cast<std::size_t>(u.get());
  const auto s1i = static_cast<std::size_t>(s1.get());
  const auto s2i = static_cast<std::size_t>(s2.get());
  w.system->start();

  // Phase 1: u executes remotely and the home node processes its completion.
  w.step_until([&] { return inst.tasks[ui].finish_notified; });
  const NodeId exec_a = inst.tasks[ui].exec_node;
  ASSERT_NE(exec_a, home) << "u must run remotely for its data to be killable";

  // Phase 2: both successors running on (distinct) remote nodes.
  w.step_until([&] {
    return inst.tasks[s1i].state == TaskState::kRunning &&
           inst.tasks[s2i].state == TaskState::kRunning;
  });
  const NodeId b1 = inst.tasks[s1i].exec_node;
  const NodeId b2 = inst.tasks[s2i].exec_node;
  ASSERT_NE(b1, home);
  ASSERT_NE(b2, home);
  ASSERT_NE(b1, b2) << "choreography needs s1/s2 on distinct nodes";

  // Phase 3: kill u's data and s1's executor; recovery demotes u (its output
  // is unreachable) and re-dispatches it.
  w.system->inject_node_failure(exec_a);
  w.system->inject_node_failure(b1);
  ASSERT_EQ(inst.tasks[s1i].state, TaskState::kFailed);
  w.system->run_scheduling_cycle();
  EXPECT_EQ(inst.tasks[s1i].state, TaskState::kWaiting);
  EXPECT_EQ(inst.tasks[s1i].unfinished_preds, 1);
  EXPECT_EQ(inst.tasks[ui].state, TaskState::kDispatched);
  EXPECT_FALSE(inst.tasks[ui].finish_notified);
  ASSERT_EQ(inst.tasks[s2i].state, TaskState::kRunning) << "s2 must survive u's demotion";

  // Phase 4: u finishes its re-execution; stop on the very event that marks
  // it finished at the execution node, before the notification (>= 5 s away)
  // reaches the home node.
  w.step_until([&] { return inst.tasks[ui].state == TaskState::kFinished; });
  const NodeId exec_c = inst.tasks[ui].exec_node;
  ASSERT_FALSE(inst.tasks[ui].finish_notified) << "notification must still be in flight";
  ASSERT_NE(exec_c, b2) << "choreography needs u's re-execution off s2's node";
  ASSERT_EQ(inst.tasks[s2i].state, TaskState::kRunning);

  // Phase 5: kill u's new data and s2's executor inside the notification
  // window, then recover. u is demoted again while its completion
  // notification is in flight - the regression heart.
  w.system->inject_node_failure(exec_c);
  w.system->inject_node_failure(b2);
  ASSERT_EQ(inst.tasks[s2i].state, TaskState::kFailed);
  w.system->run_scheduling_cycle();

  // The blind-increment bug left s1 (kWaiting, count already treating u as
  // unfinished) with unfinished_preds == 2 here; the kFailed-successor gap
  // left s2 with a stale count until its own recovery.
  EXPECT_EQ(inst.tasks[s1i].state, TaskState::kWaiting);
  EXPECT_EQ(inst.tasks[s1i].unfinished_preds, 1);
  EXPECT_EQ(inst.tasks[s2i].state, TaskState::kWaiting);
  EXPECT_EQ(inst.tasks[s2i].unfinished_preds, 1);
  EXPECT_EQ(inst.tasks[ui].state, TaskState::kDispatched);

  // Phase 6: run out. The stale notification of u's second incarnation must
  // be dropped; both successors only start after u's surviving re-execution
  // actually finished, and the workflow completes.
  w.engine.run_until(200000.0);
  ASSERT_TRUE(inst.done()) << "workflow stranded: recovery bookkeeping is inconsistent";
  EXPECT_GE(inst.tasks[s1i].started_at, inst.tasks[ui].finished_at)
      << "s1 started against data that did not exist yet";
  EXPECT_GE(inst.tasks[s2i].started_at, inst.tasks[ui].finished_at)
      << "s2 started against data that did not exist yet";
  EXPECT_EQ(inst.tasks[ui].state, TaskState::kFinished);
  EXPECT_GT(w.system->tasks_rescheduled(), 0u);
}

TEST(ChurnRecovery, RepeatedDemotionOfAChainStaysConsistent) {
  // Chain t0 -> t1 -> t2: kill t0's executor after t1 started, then kill
  // t1's executor as well - recovery must walk the chain upward, demote both,
  // and the workflow must still complete with consistent ordering.
  SlowWanWorld w;
  dag::Workflow wf;
  const auto t0 = wf.add_task(2000.0, 10.0);
  const auto t1 = wf.add_task(40000.0, 10.0);
  const auto t2 = wf.add_task(100.0, 10.0);
  wf.add_dependency(t0, t1, 10.0);
  wf.add_dependency(t1, t2, 10.0);
  const NodeId home{0};
  const auto id = w.system->submit(home, std::move(wf));
  const auto& inst = w.system->workflow(id);
  w.system->start();

  w.step_until([&] {
    return inst.tasks[static_cast<std::size_t>(t1.get())].state == TaskState::kRunning;
  });
  const NodeId a = inst.tasks[static_cast<std::size_t>(t0.get())].exec_node;
  const NodeId b = inst.tasks[static_cast<std::size_t>(t1.get())].exec_node;
  ASSERT_NE(a, home);
  if (a != b) w.system->inject_node_failure(a);
  w.system->inject_node_failure(b);
  ASSERT_EQ(inst.tasks[static_cast<std::size_t>(t1.get())].state, TaskState::kFailed);
  w.system->run_scheduling_cycle();
  // t0 demoted (its data died) and re-dispatched; t1 waits for it again.
  EXPECT_EQ(inst.tasks[static_cast<std::size_t>(t1.get())].state, TaskState::kWaiting);
  EXPECT_EQ(inst.tasks[static_cast<std::size_t>(t1.get())].unfinished_preds, 1);

  w.engine.run_until(200000.0);
  ASSERT_TRUE(inst.done());
  EXPECT_GE(inst.tasks[static_cast<std::size_t>(t1.get())].started_at,
            inst.tasks[static_cast<std::size_t>(t0.get())].finished_at);
  EXPECT_GE(w.system->tasks_rescheduled(), 2u);
}

}  // namespace
}  // namespace dpjit::core
