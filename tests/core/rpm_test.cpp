#include <gtest/gtest.h>

#include "core/dispatch.hpp"
#include "dag/critical_path.hpp"
#include "dag/generator.hpp"

namespace dpjit::core {
namespace {

TEST(Rpm, ExitTaskRpmIsItsExecutionTime) {
  dag::Workflow wf;
  auto a = wf.add_task(10, 0);
  auto b = wf.add_task(30, 0);
  wf.add_dependency(a, b, 20);
  const auto rpm = dag::upward_ranks(wf, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(rpm[static_cast<std::size_t>(b.get())], 30.0);
  EXPECT_DOUBLE_EQ(rpm[static_cast<std::size_t>(a.get())], 60.0);
}

TEST(Rpm, AveragesScaleRpm) {
  dag::Workflow wf;
  auto a = wf.add_task(100, 0);
  auto b = wf.add_task(200, 0);
  wf.add_dependency(a, b, 60);
  const auto rpm = dag::upward_ranks(wf, {10.0, 6.0});
  // 100/10 + 60/6 + 200/10 = 10 + 10 + 20.
  EXPECT_DOUBLE_EQ(rpm[0], 40.0);
}

TEST(Rpm, RemainingMakespanIsMaxOverSchedulePoints) {
  std::vector<double> rpm{5.0, 80.0, 115.0, 60.0};
  EXPECT_DOUBLE_EQ(remaining_makespan(rpm, {TaskIndex{1}, TaskIndex{2}}), 115.0);
  EXPECT_DOUBLE_EQ(remaining_makespan(rpm, {TaskIndex{3}}), 60.0);
  EXPECT_DOUBLE_EQ(remaining_makespan(rpm, {}), 0.0);
}

TEST(Rpm, EntryRpmEqualsExpectedFinishTime) {
  util::Rng rng(4);
  for (int i = 0; i < 10; ++i) {
    const auto wf = dag::generate_workflow(WorkflowId{1}, dag::GeneratorParams{}, rng);
    const dag::AverageEstimates avg{6.2, 5.0};
    const auto rpm = dag::upward_ranks(wf, avg);
    EXPECT_NEAR(rpm[static_cast<std::size_t>(wf.entry().get())],
                dag::expected_finish_time(wf, avg), 1e-9);
  }
}

TEST(Rpm, MakespanShrinksAsExecutionProgresses) {
  // ms(f) over later schedule points is never larger than over earlier ones
  // along any chain, because RPM decreases monotonically along edges.
  util::Rng rng(8);
  const auto wf = dag::generate_workflow(WorkflowId{1}, dag::GeneratorParams{}, rng);
  const auto rpm = dag::upward_ranks(wf, {6.2, 5.0});
  const double ms_entry = remaining_makespan(rpm, {wf.entry()});
  const auto entry_succ = wf.successors(wf.entry());
  const std::vector<TaskIndex> second_wave(entry_succ.begin(), entry_succ.end());
  if (!second_wave.empty()) {
    EXPECT_LE(remaining_makespan(rpm, second_wave), ms_entry);
  }
}

}  // namespace
}  // namespace dpjit::core
