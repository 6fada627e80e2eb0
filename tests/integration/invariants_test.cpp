// Simulation invariants checked over full traces: the discrete-event grid
// must never violate the physical rules of the model, for any algorithm and
// any seed in the sweep.
#include <gtest/gtest.h>

#include <map>

#include "core/algorithm.hpp"
#include "exp/workload_factory.hpp"

namespace dpjit::exp {
namespace {

struct TracedRun {
  explicit TracedRun(const std::string& algorithm, std::uint64_t seed) {
    ExperimentConfig cfg;
    cfg.algorithm = algorithm;
    cfg.nodes = 16;
    cfg.workflows_per_node = 2;
    cfg.seed = seed;
    cfg.workflow.max_tasks = 12;
    cfg.workflow.min_data_mb = 10;
    cfg.workflow.max_data_mb = 100;
    world = std::make_unique<World>(cfg);
    world->system().trace().enable(true);
    world->run();
  }
  std::unique_ptr<World> world;
};

class InvariantSweep
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {};

TEST_P(InvariantSweep, HoldAcrossTheWholeTrace) {
  const auto [algorithm, seed] = GetParam();
  TracedRun run(algorithm, seed);
  auto& system = run.world->system();
  const auto& records = system.trace().records();
  ASSERT_FALSE(records.empty());

  // 1. Trace times are non-decreasing (the engine's clock never goes back).
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_LE(records[i - 1].time, records[i].time);
  }

  // 2. Single CPU: per node, EXEC_START and EXEC_END strictly alternate.
  std::map<int, bool> running;
  for (const auto& r : records) {
    if (r.kind == sim::TraceKind::kExecStart) {
      EXPECT_FALSE(running[r.node.get()]) << "node " << r.node << " started twice";
      running[r.node.get()] = true;
    } else if (r.kind == sim::TraceKind::kExecEnd) {
      EXPECT_TRUE(running[r.node.get()]) << "node " << r.node << " ended while idle";
      running[r.node.get()] = false;
    }
  }

  // 3. A task executes only after all its input transfers arrived.
  std::map<TaskRef, SimTime> last_xfer_end;
  for (const auto& r : records) {
    if (r.kind == sim::TraceKind::kTransferEnd) {
      last_xfer_end[r.task] = std::max(last_xfer_end[r.task], r.time);
    } else if (r.kind == sim::TraceKind::kExecStart) {
      const auto it = last_xfer_end.find(r.task);
      if (it != last_xfer_end.end()) {
        EXPECT_GE(r.time, it->second) << r.task;
      }
    }
  }

  // 4. Per-task runtime bookkeeping is consistent with the physics.
  for (std::size_t w = 0; w < system.workflow_count(); ++w) {
    const auto& wf = system.workflow(WorkflowId{static_cast<WorkflowId::underlying_type>(w)});
    for (std::size_t t = 0; t < wf.tasks.size(); ++t) {
      const auto& rt = wf.tasks[t];
      if (rt.state != core::TaskState::kFinished) continue;
      const TaskIndex ti{static_cast<TaskIndex::underlying_type>(t)};
      EXPECT_GE(rt.started_at, rt.dispatched_at);
      EXPECT_GE(rt.finished_at, rt.started_at);
      const double expected_duration =
          wf.dag.task(ti).load_mi / system.node(rt.exec_node).capacity_mips();
      EXPECT_NEAR(rt.finished_at - rt.started_at, expected_duration, 1e-6);
      // Dependencies: every precedent finished before this task started.
      for (TaskIndex p : wf.dag.predecessors(ti)) {
        EXPECT_GE(rt.started_at, wf.tasks[static_cast<std::size_t>(p.get())].finished_at);
      }
    }
    // 5. Finished workflow <=> all tasks finished, exit defines completion.
    if (wf.done()) {
      EXPECT_EQ(wf.finished_tasks, wf.tasks.size());
      const auto& exit_rt = wf.tasks[static_cast<std::size_t>(wf.dag.exit().get())];
      EXPECT_DOUBLE_EQ(wf.finished_at, exit_rt.finished_at);
      EXPECT_GE(wf.entry_started_at, wf.submit_time);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsBySeeds, InvariantSweep,
    ::testing::Combine(::testing::Values("dsmf", "dheft", "minmin", "sufferage", "heft", "smf"),
                       ::testing::Values<std::uint64_t>(3, 23)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_seed" + std::to_string(std::get<1>(info.param));
    });

TEST(Invariants, DispatchCountMatchesTrace) {
  TracedRun run("dsmf", 9);
  auto& system = run.world->system();
  EXPECT_EQ(system.trace().count(sim::TraceKind::kDispatch), system.tasks_dispatched());
  EXPECT_EQ(system.trace().count(sim::TraceKind::kWorkflowDone), system.finished_workflows());
}

TEST(Invariants, EveryTaskExecutesExactlyOnceInStaticRuns) {
  TracedRun run("dsmf", 31);
  auto& system = run.world->system();
  std::map<TaskRef, int> starts;
  for (const auto& r : system.trace().records()) {
    if (r.kind == sim::TraceKind::kExecStart) ++starts[r.task];
  }
  for (const auto& [ref, count] : starts) EXPECT_EQ(count, 1) << ref;
}

}  // namespace
}  // namespace dpjit::exp
