// GridSystem behaviour at the smallest useful scale: a hand-built 4-node
// line topology where every estimate can be reasoned about, plus fault
// injection for the failure paths.
#include "core/grid_system.hpp"

#include <gtest/gtest.h>

#include "dag/templates.hpp"

namespace dpjit::core {
namespace {

/// 4 nodes in a line, uniform 10 Mb/s links, 1 ms latency, capacities
/// {4, 1, 2, 8} MIPS.
struct TinyWorld {
  explicit TinyWorld(const std::string& algorithm, SystemConfig config = {})
      : topo(net::Topology::from_links(4, {{NodeId{0}, NodeId{1}, 10.0, 0.001},
                                           {NodeId{1}, NodeId{2}, 10.0, 0.001},
                                           {NodeId{2}, NodeId{3}, 10.0, 0.001}})),
        routing(topo),
        rng(99),
        landmarks(routing, 2, rng) {
    config.scheduling_interval_s = 100.0;
    config.horizon_s = 200000.0;
    config.gossip.cycle_s = 50.0;
    system = std::make_unique<GridSystem>(engine, topo, routing, landmarks,
                                          std::vector<double>{4, 1, 2, 8},
                                          make_algorithm(algorithm), config);
  }

  sim::Engine engine;
  net::Topology topo;
  net::Routing routing;
  util::Rng rng;
  net::LandmarkEstimator landmarks;
  std::unique_ptr<GridSystem> system;
};

dag::Workflow chain3() { return dag::make_pipeline(WorkflowId{}, 3, {1000.0, 10.0, 50.0}); }

TEST(GridSystem, RejectsInvalidSubmissions) {
  TinyWorld w("dsmf");
  dag::Workflow cyclic;
  auto a = cyclic.add_task(1, 1);
  auto b = cyclic.add_task(1, 1);
  cyclic.add_dependency(a, b, 0);
  cyclic.add_dependency(b, a, 0);
  EXPECT_THROW(w.system->submit(NodeId{0}, std::move(cyclic)), std::invalid_argument);
  EXPECT_THROW(w.system->submit(NodeId{9}, chain3()), std::out_of_range);
}

TEST(GridSystem, SubmitNormalizesAndComputesEft) {
  TinyWorld w("dsmf");
  // Two entries: normalize() must add a virtual entry.
  dag::Workflow wf;
  auto a = wf.add_task(100, 10);
  auto b = wf.add_task(100, 10);
  auto c = wf.add_task(100, 10);
  wf.add_dependency(a, c, 50);
  wf.add_dependency(b, c, 50);
  const auto id = w.system->submit(NodeId{0}, std::move(wf));
  const auto& inst = w.system->workflow(id);
  EXPECT_EQ(inst.dag.entry_tasks().size(), 1u);
  // eft under true averages: capacity (4+1+2+8)/4 = 3.75 MIPS.
  EXPECT_GT(inst.eft, 0.0);
  const double avg_cap = w.system->true_averages().capacity_mips;
  EXPECT_DOUBLE_EQ(avg_cap, 3.75);
}

TEST(GridSystem, JitDispatchWaitsForSchedulingCycle) {
  TinyWorld w("dsmf");
  w.system->submit(NodeId{0}, chain3());
  w.system->start();
  w.engine.run_until(99.0);  // before the first cycle at t=100
  EXPECT_EQ(w.system->tasks_dispatched(), 0u);
  w.engine.run_until(101.0);
  EXPECT_EQ(w.system->tasks_dispatched(), 1u);  // the entry task
}

TEST(GridSystem, FullAheadStagesEntryImmediately) {
  TinyWorld w("smf");
  w.system->submit(NodeId{0}, chain3());
  w.system->start();  // full-ahead: plan + dispatch before any cycle
  EXPECT_EQ(w.system->tasks_dispatched(), 1u);
}

TEST(GridSystem, WorkflowCompletesAndReportsTimes) {
  TinyWorld w("dsmf");
  const auto id = w.system->submit(NodeId{0}, chain3());
  w.system->run();
  const auto& inst = w.system->workflow(id);
  ASSERT_TRUE(inst.done());
  EXPECT_GT(inst.entry_started_at, 0.0);
  EXPECT_GT(inst.finished_at, inst.entry_started_at);
  EXPECT_EQ(inst.finished_tasks, inst.dag.task_count());
  EXPECT_EQ(w.system->finished_workflows(), 1u);
}

TEST(GridSystem, EveryAlgorithmCompletesTinyWorkload) {
  for (const auto& algo : all_algorithms()) {
    TinyWorld w(algo);
    w.system->submit(NodeId{0}, chain3());
    w.system->submit(NodeId{3}, dag::make_diamond(WorkflowId{}, 2.0, {500.0, 5.0, 20.0}));
    w.system->run();
    EXPECT_EQ(w.system->finished_workflows(), 2u) << algo;
  }
}

TEST(GridSystem, FaultInjectionKillsRunningTask) {
  TinyWorld w("dsmf");
  w.system->submit(NodeId{0}, chain3());
  w.system->start();
  // Let the entry task start somewhere, then kill every other node.
  w.engine.run_until(150.0);
  std::size_t killed = 0;
  for (int i = 1; i < 4; ++i) {
    w.system->inject_node_failure(NodeId{i});
    ++killed;
  }
  EXPECT_EQ(w.system->alive_count(), 1u);
  w.engine.run_until(200000.0);
  // The workflow may or may not have been stranded depending on where tasks
  // ran, but no invariants break and failure accounting is consistent.
  EXPECT_EQ(w.system->tasks_failed() == 0, w.system->finished_workflows() == 1);
}

TEST(GridSystem, ReschedulingRecoversFromInjectedFailure) {
  SystemConfig cfg;
  cfg.reschedule_failed = true;
  TinyWorld w("dsmf", cfg);
  const auto id = w.system->submit(NodeId{0}, chain3());
  w.system->start();
  // Kill whichever node accepted the first task, mid-flight.
  w.engine.run_until(150.0);
  NodeId victim{};
  const auto& inst = w.system->workflow(id);
  for (const auto& rt : inst.tasks) {
    if (rt.exec_node.valid() && rt.exec_node != NodeId{0}) victim = rt.exec_node;
  }
  if (victim.valid()) {
    w.system->inject_node_failure(victim);
    w.system->inject_node_rejoin(victim);
  }
  w.engine.run_until(200000.0);
  EXPECT_EQ(w.system->finished_workflows(), 1u);
  EXPECT_TRUE(w.system->workflow(id).done());
}

TEST(GridSystem, HomeKeepsOutputsAllowsFetchAfterSourceDeath) {
  // chain: t0 -> t1 -> t2. Let t0 finish on some node, kill that node before
  // t1 is dispatched; with result collection the run still completes.
  SystemConfig cfg;
  cfg.home_keeps_outputs = true;
  cfg.reschedule_failed = true;
  TinyWorld w("dsmf", cfg);
  const auto id = w.system->submit(NodeId{0}, chain3());
  w.system->start();
  // Run until the first task finished, then kill its executor (if remote).
  for (int step = 0; step < 100000 && w.system->workflow(id).finished_tasks < 1; ++step) {
    if (!w.engine.step()) break;
  }
  const auto& inst = w.system->workflow(id);
  ASSERT_GE(inst.finished_tasks, 1u);
  const NodeId executor = inst.tasks[0].exec_node;
  if (executor != NodeId{0}) {
    w.system->inject_node_failure(executor);
  }
  w.engine.run_until(200000.0);
  EXPECT_TRUE(w.system->workflow(id).done());
}

TEST(GridSystem, StrictDataSemanticsStrandWorkflowOnSourceDeath) {
  SystemConfig cfg;
  cfg.home_keeps_outputs = false;  // ablation: data dies with the node
  TinyWorld w("dsmf", cfg);
  const auto id = w.system->submit(NodeId{0}, chain3());
  w.system->start();
  for (int step = 0; step < 100000 && w.system->workflow(id).finished_tasks < 1; ++step) {
    if (!w.engine.step()) break;
  }
  const auto& inst = w.system->workflow(id);
  ASSERT_GE(inst.finished_tasks, 1u);
  const NodeId executor = inst.tasks[0].exec_node;
  if (executor != NodeId{0}) {
    w.system->inject_node_failure(executor);
    w.engine.run_until(200000.0);
    EXPECT_FALSE(w.system->workflow(id).done());
    EXPECT_GT(w.system->tasks_failed(), 0u);
  }
}

TEST(GridSystem, InjectValidation) {
  TinyWorld w("dsmf");
  EXPECT_THROW(w.system->inject_node_failure(NodeId{17}), std::out_of_range);
  EXPECT_THROW(w.system->inject_node_rejoin(NodeId{-1}), std::out_of_range);
}

TEST(GridSystem, CapacityMismatchThrows) {
  TinyWorld w("dsmf");
  EXPECT_THROW(GridSystem(w.engine, w.topo, w.routing, w.landmarks, {1.0, 2.0},
                          make_algorithm("dsmf"), SystemConfig{}),
               std::invalid_argument);
}

TEST(GridSystem, DsmfShieldsShortWorkflowFromLongOnes) {
  // The paper's central behavioural claim (Section III.A): handling the
  // workflow with the shortest remaining makespan first protects short
  // workflows from being starved behind long ones. Three single-task
  // workflows (makespans tiny < medium < huge) contend at one home; under
  // DSMF the tiny one is dispatched and executed first, under DHEFT
  // (longest-RPM-first at both phases) the huge one goes first and the tiny
  // workflow pays for it.
  auto run_tiny_ct = [](const std::string& algorithm) {
    TinyWorld w(algorithm);
    const auto huge_id =
        w.system->submit(NodeId{0}, dag::make_pipeline(WorkflowId{}, 1, {40000.0, 10.0, 10.0}));
    const auto medium_id =
        w.system->submit(NodeId{0}, dag::make_pipeline(WorkflowId{}, 1, {16000.0, 10.0, 10.0}));
    const auto tiny_id =
        w.system->submit(NodeId{0}, dag::make_pipeline(WorkflowId{}, 1, {800.0, 1.0, 10.0}));
    w.system->run();
    EXPECT_TRUE(w.system->workflow(huge_id).done()) << algorithm;
    EXPECT_TRUE(w.system->workflow(medium_id).done()) << algorithm;
    EXPECT_TRUE(w.system->workflow(tiny_id).done()) << algorithm;
    const auto& inst = w.system->workflow(tiny_id);
    return inst.finished_at - inst.submit_time;
  };
  const double dsmf_ct = run_tiny_ct("dsmf");
  const double dheft_ct = run_tiny_ct("dheft");
  EXPECT_LT(dsmf_ct, dheft_ct);
}

TEST(GridSystem, GossipTracksNodeLoads) {
  TinyWorld w("dsmf");
  for (int i = 0; i < 3; ++i) w.system->submit(NodeId{0}, chain3());
  w.system->start();
  w.engine.run_until(5000.0);
  // After warm-up every node's view contains some peers.
  EXPECT_GT(w.system->gossip_service().mean_rss_size(), 0.5);
}

}  // namespace
}  // namespace dpjit::core
