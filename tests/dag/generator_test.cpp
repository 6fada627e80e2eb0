// Property tests of the random workflow generator against the Table I
// constraints, swept over many seeds.
#include "dag/generator.hpp"

#include <gtest/gtest.h>

namespace dpjit::dag {
namespace {

class GeneratorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorProperty, SatisfiesTableIConstraints) {
  util::Rng rng(GetParam());
  GeneratorParams params;  // defaults = Table I
  const auto wf = generate_workflow(WorkflowId{3}, params, rng);

  // Well-formed: acyclic, unique entry/exit, fully reachable.
  EXPECT_TRUE(wf.validate().empty()) << wf.validate().front();

  // Task count: 2..30 original tasks, plus at most one virtual exit
  // (the construction guarantees a unique entry without a virtual task).
  EXPECT_GE(wf.task_count(), 2u);
  EXPECT_LE(wf.task_count(), 31u);

  for (std::size_t i = 0; i < wf.task_count(); ++i) {
    const TaskIndex t{static_cast<TaskIndex::underlying_type>(i)};
    const auto& task = wf.task(t);
    const bool virtual_task = task.load_mi == 0.0;
    if (!virtual_task) {
      EXPECT_GE(task.load_mi, params.min_load_mi);
      EXPECT_LE(task.load_mi, params.max_load_mi);
      EXPECT_GE(task.image_mb, kMinImageMb);
      EXPECT_LE(task.image_mb, kMaxImageMb);
      // Fan-out bound: 1..5 for non-exit tasks. The virtual exit may exceed
      // nothing (it has no successors); real tasks respect the cap unless
      // their only successor is the virtual exit.
      EXPECT_LE(wf.successors(t).size(), static_cast<std::size_t>(kMaxFanout));
    }
    for (TaskIndex s : wf.successors(t)) {
      const double data = wf.edge_data(t, s);
      if (data > 0.0) {
        EXPECT_GE(data, params.min_data_mb);
        EXPECT_LE(data, params.max_data_mb);
      }
    }
  }
}

TEST_P(GeneratorProperty, EveryNonExitTaskHasASuccessor) {
  util::Rng rng(GetParam());
  const auto wf = generate_workflow(WorkflowId{1}, GeneratorParams{}, rng);
  const TaskIndex exit = wf.exit();
  for (std::size_t i = 0; i < wf.task_count(); ++i) {
    const TaskIndex t{static_cast<TaskIndex::underlying_type>(i)};
    if (t == exit) continue;
    EXPECT_FALSE(wf.successors(t).empty()) << "task " << i << " is a dead end";
  }
}

TEST_P(GeneratorProperty, DeterministicInRng) {
  util::Rng rng1(GetParam());
  util::Rng rng2(GetParam());
  const auto a = generate_workflow(WorkflowId{1}, GeneratorParams{}, rng1);
  const auto b = generate_workflow(WorkflowId{1}, GeneratorParams{}, rng2);
  ASSERT_EQ(a.task_count(), b.task_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (std::size_t i = 0; i < a.task_count(); ++i) {
    const TaskIndex t{static_cast<TaskIndex::underlying_type>(i)};
    EXPECT_DOUBLE_EQ(a.task(t).load_mi, b.task(t).load_mi);
    ASSERT_EQ(a.successors(t).size(), b.successors(t).size());
    for (std::size_t k = 0; k < a.successors(t).size(); ++k) {
      EXPECT_EQ(a.successors(t)[k], b.successors(t)[k]);
      EXPECT_DOUBLE_EQ(a.edge_data(t, a.successors(t)[k]), b.edge_data(t, b.successors(t)[k]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorProperty, ::testing::Range<std::uint64_t>(1, 51));

TEST(Generator, RespectsCustomRanges) {
  util::Rng rng(5);
  GeneratorParams params;
  params.min_tasks = params.max_tasks = 10;
  params.min_load_mi = 10;
  params.max_load_mi = 1000;
  params.min_data_mb = 100;
  params.max_data_mb = 10000;
  const auto wf = generate_workflow(WorkflowId{1}, params, rng);
  EXPECT_GE(wf.task_count(), 10u);
  EXPECT_LE(wf.task_count(), 11u);  // +1 possible virtual exit
}

TEST(Generator, ValidatesParams) {
  util::Rng rng(1);
  GeneratorParams bad;
  bad.min_tasks = 5;
  bad.max_tasks = 2;
  EXPECT_THROW(generate_workflow(WorkflowId{1}, bad, rng), std::invalid_argument);
}

TEST(Generator, ValidatesHeavyTailParams) {
  util::Rng rng(1);
  GeneratorParams zero_min;
  zero_min.min_load_mi = 0.0;
  zero_min.load_distribution = SizeDistribution::kPareto;
  EXPECT_THROW(generate_workflow(WorkflowId{1}, zero_min, rng), std::invalid_argument);
  GeneratorParams bad_shape;
  bad_shape.data_distribution = SizeDistribution::kLogNormal;
  bad_shape.data_tail_shape = 0.0;
  EXPECT_THROW(generate_workflow(WorkflowId{1}, bad_shape, rng), std::invalid_argument);
}

TEST(Generator, HeavyTailDrawsStayInsideTheRanges) {
  for (auto dist : {SizeDistribution::kLogNormal, SizeDistribution::kPareto}) {
    util::Rng rng(29);
    GeneratorParams params;
    params.load_distribution = dist;
    params.data_distribution = dist;
    params.load_tail_shape = dist == SizeDistribution::kLogNormal ? 1.2 : 1.5;
    params.data_tail_shape = params.load_tail_shape;
    for (int i = 0; i < 100; ++i) {
      const auto wf = generate_workflow(WorkflowId{1}, params, rng);
      for (std::size_t t = 0; t < wf.task_count(); ++t) {
        const auto& task = wf.task(TaskIndex{static_cast<TaskIndex::underlying_type>(t)});
        if (task.load_mi == 0.0) continue;  // virtual exit
        EXPECT_GE(task.load_mi, params.min_load_mi);
        EXPECT_LE(task.load_mi, params.max_load_mi);
      }
    }
  }
}

TEST(Generator, UniformDistributionIsBitCompatibleWithDefaults) {
  // The distribution knobs default to uniform and must not perturb the
  // pre-existing draw sequence (golden digests depend on this).
  util::Rng a(77), b(77);
  GeneratorParams defaults;
  GeneratorParams explicit_uniform;
  explicit_uniform.load_distribution = SizeDistribution::kUniform;
  explicit_uniform.data_distribution = SizeDistribution::kUniform;
  explicit_uniform.load_tail_shape = 9.9;  // ignored for uniform
  const auto wa = generate_workflow(WorkflowId{1}, defaults, a);
  const auto wb = generate_workflow(WorkflowId{1}, explicit_uniform, b);
  ASSERT_EQ(wa.task_count(), wb.task_count());
  for (std::size_t t = 0; t < wa.task_count(); ++t) {
    const TaskIndex ti{static_cast<TaskIndex::underlying_type>(t)};
    EXPECT_EQ(wa.task(ti).load_mi, wb.task(ti).load_mi);
    EXPECT_EQ(wa.task(ti).image_mb, wb.task(ti).image_mb);
  }
}

TEST(Generator, SingleTaskWorkflow) {
  util::Rng rng(9);
  GeneratorParams params;
  params.min_tasks = params.max_tasks = 1;
  const auto wf = generate_workflow(WorkflowId{1}, params, rng);
  EXPECT_EQ(wf.task_count(), 1u);
  EXPECT_TRUE(wf.validate().empty());
}

}  // namespace
}  // namespace dpjit::dag
