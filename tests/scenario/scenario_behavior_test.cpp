// The extension scenarios must actually exercise the machinery they claim to
// (waves of arrivals, heavy tails, correlated churn, mixed templates) - a
// digest alone cannot show that the shape is right, only that it is stable.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <string_view>

#include "dag/generator.hpp"
#include "exp/scenario.hpp"
#include "exp/workload_factory.hpp"
#include "util/rng.hpp"

namespace dpjit::exp {
namespace {

ExperimentConfig small(const char* scenario_name) {
  return conformance_preset(scenario_registry().at(scenario_name).config());
}

TEST(ScenarioBehavior, FlashCrowdSubmitsInsideItsWaves) {
  const auto cfg = small("burst/flash-crowd");
  ASSERT_EQ(cfg.bursts.wave_count, 3);
  World world(cfg);
  world.run();
  ASSERT_EQ(world.system().workflow_count(),
            static_cast<std::size_t>(cfg.nodes) * cfg.workflows_per_node);
  std::vector<std::size_t> per_wave(static_cast<std::size_t>(cfg.bursts.wave_count), 0);
  for (std::size_t w = 0; w < world.system().workflow_count(); ++w) {
    const double t =
        world.system().workflow(WorkflowId{static_cast<WorkflowId::underlying_type>(w)})
            .submit_time;
    bool inside = false;
    for (int k = 0; k < cfg.bursts.wave_count; ++k) {
      const double open = BurstArrivals::kFirstWaveS + k * BurstArrivals::kPeriodS;
      if (t >= open && t <= open + BurstArrivals::kWidthS) {
        ++per_wave[static_cast<std::size_t>(k)];
        inside = true;
        break;
      }
    }
    EXPECT_TRUE(inside) << "submission at t=" << t << " outside every wave window";
  }
  // 6 workflows per home over 3 waves = 2 per wave per home.
  for (std::size_t k = 0; k < per_wave.size(); ++k) {
    EXPECT_EQ(per_wave[k], static_cast<std::size_t>(cfg.nodes) * 2) << "wave " << k;
  }
}

TEST(ScenarioBehavior, HeavyTailedLoadsAreBoundedAndSkewed) {
  const auto cfg = small("tail/heavy-tailed-loads");
  ASSERT_EQ(cfg.workflow.load_distribution, dag::SizeDistribution::kLogNormal);
  ASSERT_EQ(cfg.workflow.data_distribution, dag::SizeDistribution::kPareto);
  util::Rng rng(17);
  std::vector<double> loads;
  for (int i = 0; i < 200; ++i) {
    const auto wf = dag::generate_workflow(WorkflowId{}, cfg.workflow, rng);
    for (std::size_t t = 0; t < wf.task_count(); ++t) {
      const auto& task = wf.task(TaskIndex{static_cast<TaskIndex::underlying_type>(t)});
      // The virtual exit task merged in by normalize() is zero-cost.
      if (task.load_mi == 0.0) continue;
      EXPECT_GE(task.load_mi, cfg.workflow.min_load_mi);
      EXPECT_LE(task.load_mi, cfg.workflow.max_load_mi);
      loads.push_back(task.load_mi);
    }
  }
  ASSERT_GT(loads.size(), 1000u);
  // Heavy tail: the median sits far below the arithmetic midpoint (for the
  // uniform draw the two coincide).
  std::nth_element(loads.begin(), loads.begin() + loads.size() / 2, loads.end());
  const double median = loads[loads.size() / 2];
  const double midpoint = 0.5 * (cfg.workflow.min_load_mi + cfg.workflow.max_load_mi);
  EXPECT_LT(median, 0.5 * midpoint);
}

TEST(ScenarioBehavior, CorrelatedWavesLoseMoreNodesThanPlainChurn) {
  const auto waves_cfg = small("churn/correlated-waves");
  ASSERT_GT(waves_cfg.system.churn.wave_every, 0);
  ExperimentConfig plain_cfg = waves_cfg;
  plain_cfg.system.churn.wave_every = 0;

  World waves(waves_cfg);
  waves.run();
  World plain(plain_cfg);
  plain.run();
  const auto& wm = waves.system().churn_model();
  const auto& pm = plain.system().churn_model();
  EXPECT_GT(wm.total_leaves(), pm.total_leaves());
  // Rejoins run at the base rate in both worlds, so the wave world can never
  // out-join the departures it piled up.
  EXPECT_LE(wm.total_joins(), wm.total_leaves());
}

TEST(ScenarioBehavior, MixedWorkloadDrawsEveryTemplateFamily) {
  const auto cfg = small("mixed/multi-template");
  ASSERT_FALSE(cfg.workload_mix.empty());
  World world(cfg);
  world.run();
  bool saw_montage = false, saw_forkjoin = false, saw_pipeline = false, saw_diamond = false,
       saw_random = false;
  for (std::size_t w = 0; w < world.system().workflow_count(); ++w) {
    const auto& dag =
        world.system().workflow(WorkflowId{static_cast<WorkflowId::underlying_type>(w)}).dag;
    const std::string_view first = dag.name(TaskIndex{0});
    if (first.rfind("mProject", 0) == 0) saw_montage = true;
    else if (first == "source") saw_forkjoin = true;
    else if (first == "stage0") saw_pipeline = true;
    else if (first == "split") saw_diamond = true;
    else if (first.rfind("t", 0) == 0) saw_random = true;
  }
  EXPECT_TRUE(saw_montage);
  EXPECT_TRUE(saw_forkjoin);
  EXPECT_TRUE(saw_pipeline);
  EXPECT_TRUE(saw_diamond);
  EXPECT_TRUE(saw_random);
}

TEST(ScenarioBehavior, OpenArrivalsScenarioStaggersSubmissions) {
  const auto cfg = small("open/poisson-arrivals");
  ASSERT_GT(cfg.mean_interarrival_s, 0.0);
  World world(cfg);
  world.run();
  std::set<double> times;
  for (std::size_t w = 0; w < world.system().workflow_count(); ++w) {
    times.insert(
        world.system().workflow(WorkflowId{static_cast<WorkflowId::underlying_type>(w)})
            .submit_time);
  }
  EXPECT_GT(times.size(), static_cast<std::size_t>(cfg.nodes));
  EXPECT_EQ(times.count(0.0), 0u);
}

}  // namespace
}  // namespace dpjit::exp
