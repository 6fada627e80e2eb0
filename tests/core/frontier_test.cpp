// The incremental scheduling bookkeeping: per-workflow schedule-point
// frontiers, per-state task counts and per-home active-workflow queues, each
// checked against a from-scratch recomputation after every engine event,
// through churn, recovery and re-dispatch; and the per-workflow RPM ranks.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "core/grid_system.hpp"
#include "dag/templates.hpp"

namespace dpjit::core {
namespace {

/// Records every cycle sample.
struct SampleLog final : MetricsSink {
  void on_workflow_finished(const WorkflowReport&) override {}
  void on_cycle(const CycleSample& s) override { samples.push_back(s); }
  std::vector<CycleSample> samples;
};

/// 6 nodes in a line, 10 Mb/s links with 1 ms latency.
struct LineWorld {
  explicit LineWorld(const std::string& algorithm, SystemConfig config = {})
      : topo(net::Topology::from_links(6, {{NodeId{0}, NodeId{1}, 10.0, 0.001},
                                           {NodeId{1}, NodeId{2}, 10.0, 0.001},
                                           {NodeId{2}, NodeId{3}, 10.0, 0.001},
                                           {NodeId{3}, NodeId{4}, 10.0, 0.001},
                                           {NodeId{4}, NodeId{5}, 10.0, 0.001}})),
        routing(topo),
        rng(5),
        landmarks(routing, 2, rng) {
    config.scheduling_interval_s = 100.0;
    config.horizon_s = 400000.0;
    config.gossip.cycle_s = 50.0;
    system = std::make_unique<GridSystem>(engine, topo, routing, landmarks,
                                          std::vector<double>{4, 1, 2, 8, 2, 4},
                                          make_algorithm(algorithm), config, &log);
  }

  /// Runs to the horizon, auditing the bookkeeping after every event and
  /// knocking nodes out (and back in) along the way.
  void run_audited(bool with_failures) {
    std::array<bool, 6> down{};  // nothing else fails or rejoins a node here
    system->start();
    ASSERT_EQ(system->audit_bookkeeping(), "");
    for (std::uint64_t step = 0; engine.pending() > 0 && engine.next_event_time() <= 400000.0;
         ++step) {
      engine.step();
      if (with_failures && step % 700 == 350) {
        // Take turns on the executors; the homes (0 and 3) stay up.
        constexpr int kVictims[] = {1, 2, 4, 5};
        const NodeId victim{kVictims[(step / 700) % 4]};
        bool& is_down = down[static_cast<std::size_t>(victim.get())];
        if (is_down) {
          system->inject_node_rejoin(victim);
        } else {
          system->inject_node_failure(victim);
        }
        is_down = !is_down;
      }
      const std::string audit = system->audit_bookkeeping();
      ASSERT_EQ(audit, "") << "after event " << step << " at t=" << engine.now();
    }
  }

  void submit_mix() {
    for (int k = 0; k < 4; ++k) {
      system->submit(NodeId{0}, dag::make_pipeline(WorkflowId{}, 3, {3000.0, 20.0, 40.0}));
      system->submit(NodeId{3}, dag::make_diamond(WorkflowId{}, 3.0, {2000.0, 10.0, 30.0}));
    }
  }

  SampleLog log;
  sim::Engine engine;
  net::Topology topo;
  net::Routing routing;
  util::Rng rng;
  net::LandmarkEstimator landmarks;
  std::unique_ptr<GridSystem> system;

  /// The averages the system ranks under: the mean of the capacities above
  /// and the healthy network's mean pair bandwidth.
  [[nodiscard]] dag::AverageEstimates true_averages() const {
    return {21.0 / 6.0, routing.initial_mean_pair_bandwidth_mbps()};
  }
};

TEST(TaskStateMachine, LegalTransitions) {
  using enum TaskState;
  // The forward path.
  EXPECT_TRUE(is_legal_transition(kWaiting, kSchedulable));
  EXPECT_TRUE(is_legal_transition(kSchedulable, kDispatched));
  EXPECT_TRUE(is_legal_transition(kDispatched, kRunning));
  EXPECT_TRUE(is_legal_transition(kRunning, kFinished));
  // Re-offer, failure and recovery.
  EXPECT_TRUE(is_legal_transition(kDispatched, kSchedulable));
  EXPECT_TRUE(is_legal_transition(kRunning, kSchedulable));
  EXPECT_TRUE(is_legal_transition(kSchedulable, kFailed));
  EXPECT_TRUE(is_legal_transition(kRunning, kFailed));
  EXPECT_TRUE(is_legal_transition(kFinished, kFailed));
  EXPECT_TRUE(is_legal_transition(kSchedulable, kWaiting));
  EXPECT_TRUE(is_legal_transition(kFailed, kWaiting));
  EXPECT_TRUE(is_legal_transition(kFailed, kSchedulable));
  // Skipping a phase, undoing a finish, or standing still.
  EXPECT_FALSE(is_legal_transition(kWaiting, kDispatched));
  EXPECT_FALSE(is_legal_transition(kWaiting, kFailed));
  EXPECT_FALSE(is_legal_transition(kSchedulable, kRunning));
  EXPECT_FALSE(is_legal_transition(kDispatched, kFinished));
  EXPECT_FALSE(is_legal_transition(kFinished, kSchedulable));
  EXPECT_FALSE(is_legal_transition(kFailed, kDispatched));
  EXPECT_FALSE(is_legal_transition(kRunning, kRunning));
}

/// The dispatched task as its executor holds it (ready set or CPU).
const grid::ReadyTask* staged(const GridSystem& system, TaskRef ref) {
  const auto& rt = system.workflow(ref.workflow).tasks[static_cast<std::size_t>(ref.task.get())];
  const auto& node = system.node(rt.exec_node);
  if (node.running() != nullptr && node.running()->ref == ref) return node.running();
  for (const grid::ReadyTask* t : node.ready()) {
    if (t->ref == ref) return t;
  }
  return nullptr;
}

TEST(Frontier, SubmitSeedsTheEntryFrontier) {
  LineWorld w("dsmf");
  dag::Workflow wf;
  const auto a = wf.add_task(100, 10);
  const auto b = wf.add_task(200, 10);
  const auto c = wf.add_task(300, 10);
  wf.add_dependency(a, c, 50);
  wf.add_dependency(b, c, 50);
  const auto id = w.system->submit(NodeId{0}, std::move(wf));
  const auto& inst = w.system->workflow(id);
  // normalize() added a virtual entry (index 3); it alone is schedulable.
  EXPECT_EQ(inst.frontier, std::vector<TaskIndex>{inst.dag.entry()});
  EXPECT_EQ(inst.eft, dag::expected_finish_time(inst.dag, w.true_averages()));
  EXPECT_EQ(w.system->audit_bookkeeping(), "");
}

TEST(Frontier, CycleOffersOnlySchedulePointsNotTheBacklog) {
  LineWorld w("dsmf");
  constexpr int kWorkflows = 12;
  for (int k = 0; k < kWorkflows; ++k) {
    w.system->submit(NodeId{0}, dag::make_pipeline(WorkflowId{}, 4, {50000.0, 1.0, 1.0}));
  }
  w.system->start();
  w.engine.run_until(100.5);  // first cycle: every entry task is a schedule point
  ASSERT_EQ(w.log.samples.size(), 1u);
  EXPECT_EQ(w.log.samples[0].active_workflows, static_cast<std::size_t>(kWorkflows));
  EXPECT_EQ(w.log.samples[0].schedule_points, static_cast<std::size_t>(kWorkflows));
  // Each entry is 50 000 MI (>= 6 250 s even on the 8-MIPS node), so all are
  // still in flight at the next cycle: 36 tasks wait behind them, but there
  // is nothing to offer.
  w.engine.run_until(200.5);
  ASSERT_EQ(w.log.samples.size(), 2u);
  EXPECT_EQ(w.log.samples[1].schedule_points, 0u);
  EXPECT_EQ(w.log.samples[1].active_workflows, 0u);
  EXPECT_EQ(w.system->schedule_points_offered(), static_cast<std::uint64_t>(kWorkflows));
  EXPECT_EQ(w.system->audit_bookkeeping(), "");
}

TEST(Frontier, RanksSurviveReactivationUnderUnchangedAverages) {
  LineWorld w("dsmf");
  const auto id =
      w.system->submit(NodeId{0}, dag::make_pipeline(WorkflowId{}, 3, {100.0, 1.0, 1.0}));
  const auto& inst = w.system->workflow(id);
  w.system->start();
  w.engine.run_until(100.5);  // the entry is dispatched; the frontier empties
  ASSERT_EQ(w.system->tasks_dispatched(), 1u);
  ASSERT_TRUE(inst.frontier.empty());
  const auto believed = w.system->gossip_service().averages(NodeId{0});
  EXPECT_EQ(inst.rank_averages.capacity_mips, believed.capacity_mips);
  EXPECT_EQ(inst.rank_averages.bandwidth_mbps, believed.bandwidth_mbps);
  EXPECT_EQ(inst.ranks, dag::upward_ranks(inst.dag, inst.rank_averages));
  const double* ranked = inst.ranks.data();
  // The entry finishes long before the next cycle, which offers stage 1
  // under the same believed averages: the ranks are reused, not recomputed.
  w.engine.run_until(200.5);
  ASSERT_EQ(w.system->tasks_dispatched(), 2u);
  EXPECT_EQ(inst.ranks.data(), ranked);
}

TEST(Frontier, DispatchStampsRanksUnderTheSchedulersAverages) {
  const auto diamond = [] {
    return dag::make_diamond(WorkflowId{}, 3.0, {2000.0, 10.0, 30.0});
  };
  // Just-in-time: the home's gossiped averages (constant until the first
  // aggregation epoch ends at t=600).
  LineWorld jit("dsmf");
  const auto jit_id = jit.system->submit(NodeId{0}, diamond());
  jit.system->start();
  jit.engine.run_until(100.5);
  const auto believed = jit.system->gossip_service().averages(NodeId{0});
  const auto& jit_wf = jit.system->workflow(jit_id);
  const auto want_jit = dag::upward_ranks(
      jit_wf.dag, dag::AverageEstimates{believed.capacity_mips, believed.bandwidth_mbps});
  const auto* entry = staged(*jit.system, TaskRef{jit_id, jit_wf.dag.entry()});
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->rpm, want_jit[static_cast<std::size_t>(jit_wf.dag.entry().get())]);
  EXPECT_EQ(entry->wf_makespan, entry->rpm);  // the entry is the only schedule point

  // Full-ahead: the true averages the submission ranked under.
  LineWorld planned("smf");
  const auto planned_id = planned.system->submit(NodeId{0}, diamond());
  planned.system->start();
  const auto& planned_wf = planned.system->workflow(planned_id);
  const auto want_planned = dag::upward_ranks(planned_wf.dag, planned.true_averages());
  planned.engine.run_until(0.5);
  const auto* planned_entry = staged(*planned.system, TaskRef{planned_id, planned_wf.dag.entry()});
  ASSERT_NE(planned_entry, nullptr);
  EXPECT_EQ(planned_entry->rpm,
            want_planned[static_cast<std::size_t>(planned_wf.dag.entry().get())]);
}

TEST(Frontier, FinishedWorkflowLeavesTheQueue) {
  LineWorld w("dsmf");
  const auto id = w.system->submit(NodeId{0}, dag::make_pipeline(WorkflowId{}, 3,
                                                                  {1000.0, 10.0, 50.0}));
  w.system->run();
  const auto& inst = w.system->workflow(id);
  ASSERT_TRUE(inst.done());
  EXPECT_TRUE(inst.frontier.empty());
  EXPECT_FALSE(inst.queued);
  EXPECT_EQ(inst.finished_tasks, inst.dag.task_count());
  EXPECT_EQ(inst.in_flight_tasks, 0u);
  EXPECT_TRUE(inst.ranks.empty());  // released with the workflow
  EXPECT_EQ(w.system->audit_bookkeeping(), "");
}

TEST(Frontier, BookkeepingHoldsAfterEveryEventJustInTime) {
  LineWorld w("dsmf");
  w.submit_mix();
  w.run_audited(false);
  EXPECT_EQ(w.system->finished_workflows(), 8u);
}

TEST(Frontier, BookkeepingHoldsAfterEveryEventFullAhead) {
  for (const char* algo : {"smf", "heft", "heft-la"}) {
    SCOPED_TRACE(algo);
    LineWorld w(algo);
    w.submit_mix();
    w.run_audited(false);
    EXPECT_EQ(w.system->finished_workflows(), 8u);
  }
}

TEST(Frontier, BookkeepingHoldsThroughFailuresAndRecovery) {
  for (const bool keep_outputs : {true, false}) {
    for (const char* algo : {"dsmf", "dsdf", "smf"}) {
      SCOPED_TRACE(std::string(algo) + (keep_outputs ? " home-keeps-outputs" : " strict"));
      SystemConfig config;
      config.reschedule_failed = true;
      config.home_keeps_outputs = keep_outputs;
      LineWorld w(algo, config);
      w.submit_mix();
      w.run_audited(true);
      EXPECT_GT(w.system->tasks_failed(), 0u) << "the failures never hit a task";
      EXPECT_GT(w.system->tasks_rescheduled(), 0u);
    }
  }
}

}  // namespace
}  // namespace dpjit::core
