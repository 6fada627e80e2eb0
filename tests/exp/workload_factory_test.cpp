#include "exp/workload_factory.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "exp/experiment.hpp"

namespace dpjit::exp {
namespace {

ExperimentConfig tiny() {
  ExperimentConfig cfg;
  cfg.algorithm = "dsmf";
  cfg.nodes = 16;
  cfg.workflows_per_node = 2;
  cfg.workflow.max_tasks = 8;
  cfg.workflow.min_data_mb = 10;
  cfg.workflow.max_data_mb = 100;
  cfg.seed = 3;
  return cfg;
}

TEST(WorkloadFactory, AllNodesAreHomesWithoutChurn) {
  World world(tiny());
  EXPECT_EQ(world.home_count(), 16);
}

TEST(WorkloadFactory, OnlyStableHalfAreHomesUnderChurn) {
  auto cfg = tiny();
  cfg.dynamic_factor = 0.2;
  World world(cfg);
  EXPECT_EQ(world.home_count(), 8);
}

TEST(WorkloadFactory, CapacitiesDrawnFromChoices) {
  auto cfg = tiny();
  cfg.capacity_choices = {3.0, 5.0};
  World world(cfg);
  std::set<double> seen;
  for (int i = 0; i < cfg.nodes; ++i) {
    seen.insert(world.system().node(NodeId{i}).capacity_mips());
  }
  for (double c : seen) EXPECT_TRUE(c == 3.0 || c == 5.0);
}

TEST(WorkloadFactory, CcrPresetsChangeTheWorkload) {
  auto cfg = tiny();
  cfg.set_load_range(10, 1000);
  cfg.set_data_range(100, 10000);
  EXPECT_DOUBLE_EQ(cfg.workflow.min_load_mi, 10);
  EXPECT_DOUBLE_EQ(cfg.workflow.max_load_mi, 1000);
  EXPECT_DOUBLE_EQ(cfg.workflow.min_data_mb, 100);
  EXPECT_DOUBLE_EQ(cfg.workflow.max_data_mb, 10000);
}

TEST(WorkloadFactory, SubmitsWorkflowsPerNode) {
  World world(tiny());
  world.run();
  EXPECT_EQ(world.system().workflow_count(), 32u);
}

TEST(WorkloadFactory, ValidatesInputs) {
  auto cfg = tiny();
  cfg.nodes = 0;
  EXPECT_THROW(World{cfg}, std::invalid_argument);
  cfg = tiny();
  cfg.workflows_per_node = -1;
  EXPECT_THROW(World{cfg}, std::invalid_argument);
}

TEST(WorkloadFactory, OpenModelStaggersSubmissions) {
  auto cfg = tiny();
  cfg.mean_interarrival_s = 3600.0;
  World world(cfg);
  world.run();
  // All workflows eventually submitted...
  EXPECT_EQ(world.system().workflow_count(), 32u);
  // ...at strictly positive, distinct times (exponential arrivals).
  std::set<double> submit_times;
  std::size_t at_zero = 0;
  for (std::size_t w = 0; w < world.system().workflow_count(); ++w) {
    const auto& inst =
        world.system().workflow(WorkflowId{static_cast<WorkflowId::underlying_type>(w)});
    submit_times.insert(inst.submit_time);
    at_zero += inst.submit_time == 0.0 ? 1 : 0;
  }
  EXPECT_EQ(at_zero, 0u);
  EXPECT_GT(submit_times.size(), 16u);  // essentially all distinct
}

TEST(WorkloadFactory, OpenModelStillCompletes) {
  auto cfg = tiny();
  cfg.mean_interarrival_s = 1800.0;
  const auto result = run_experiment(cfg);
  EXPECT_EQ(result.workflows_finished, result.workflows_submitted);
}

TEST(WorkloadFactory, OpenModelWorksWithFullAhead) {
  auto cfg = tiny();
  cfg.algorithm = "smf";
  cfg.mean_interarrival_s = 1800.0;
  const auto result = run_experiment(cfg);
  EXPECT_EQ(result.workflows_finished, result.workflows_submitted);
}

TEST(WorkloadFactory, EventCapacityHintNeverAffectsResults) {
  // The hint is purely an allocation knob; any value must leave the
  // simulation bit-identical (the slab grows on demand past it).
  auto cfg = tiny();
  cfg.event_capacity_hint = 0;  // default derivation from `nodes`
  const auto reference = run_experiment(cfg);
  for (std::size_t hint : {std::size_t{1}, std::size_t{64}, std::size_t{1} << 16}) {
    cfg.event_capacity_hint = hint;
    const auto result = run_experiment(cfg);
    EXPECT_EQ(result_digest(result), result_digest(reference)) << "hint " << hint;
    EXPECT_EQ(result.events_processed, reference.events_processed) << "hint " << hint;
  }
}

TEST(WorkloadFactory, OpenModelArrivalsAreMonotonePerHome) {
  auto cfg = tiny();
  cfg.mean_interarrival_s = 1200.0;
  World world(cfg);
  world.run();
  // Workflows are submitted home by home in j order; each home's arrival
  // times must be strictly increasing (accumulated exponentials).
  std::map<int, double> last_per_home;
  for (std::size_t w = 0; w < world.system().workflow_count(); ++w) {
    const auto& inst =
        world.system().workflow(WorkflowId{static_cast<WorkflowId::underlying_type>(w)});
    const int home = inst.home.get();
    const auto it = last_per_home.find(home);
    if (it != last_per_home.end()) {
      EXPECT_GT(inst.submit_time, it->second) << "home " << home;
    }
    last_per_home[home] = inst.submit_time;
  }
  EXPECT_EQ(last_per_home.size(), 16u);  // every home submitted
}

TEST(WorkloadFactory, OpenModelIsDeterministic) {
  auto cfg = tiny();
  cfg.mean_interarrival_s = 900.0;
  const auto a = run_experiment(cfg);
  const auto b = run_experiment(cfg);
  EXPECT_EQ(result_digest(a), result_digest(b));
}

TEST(WorkloadFactory, ClosedModelSubmitsAtZero) {
  World world(tiny());
  world.run();
  for (std::size_t w = 0; w < world.system().workflow_count(); ++w) {
    EXPECT_DOUBLE_EQ(
        world.system()
            .workflow(WorkflowId{static_cast<WorkflowId::underlying_type>(w)})
            .submit_time,
        0.0);
  }
}

}  // namespace
}  // namespace dpjit::exp
