// The paper's Fig. 3 worked example as an executable oracle: RPM values,
// workflow makespans, and the scheduling orders of DSMF vs min-min vs
// max-min vs HEFT-style ranking.
#include <gtest/gtest.h>

#include <set>

#include "core/dispatch.hpp"
#include "dag/critical_path.hpp"
#include "fig3_helpers.hpp"

namespace dpjit::core {
namespace {

using testing::Fig3Context;
using testing::fig3_workflow_a;
using testing::fig3_workflow_b;

const dag::AverageEstimates kUnitAverages{1.0, 1.0};

TEST(Fig3, RpmValuesMatchThePaper) {
  const auto a = fig3_workflow_a();
  const auto rpm_a = dag::upward_ranks(a, kUnitAverages);
  EXPECT_DOUBLE_EQ(rpm_a[1], 80.0) << "RPM(A2)";
  EXPECT_DOUBLE_EQ(rpm_a[2], 115.0) << "RPM(A3)";

  const auto b = fig3_workflow_b();
  const auto rpm_b = dag::upward_ranks(b, kUnitAverages);
  EXPECT_DOUBLE_EQ(rpm_b[1], 65.0) << "RPM(B2)";
  EXPECT_DOUBLE_EQ(rpm_b[2], 60.0) << "RPM(B3)";
}

TEST(Fig3, WorkflowMakespansMatchThePaper) {
  const auto a = fig3_workflow_a();
  const auto b = fig3_workflow_b();
  // Schedule points: A2, A3 and B2, B3 (entry tasks already finished).
  const auto ms_a = remaining_makespan(dag::upward_ranks(a, kUnitAverages),
                                       {TaskIndex{1}, TaskIndex{2}});
  const auto ms_b = remaining_makespan(dag::upward_ranks(b, kUnitAverages),
                                       {TaskIndex{1}, TaskIndex{2}});
  EXPECT_DOUBLE_EQ(ms_a, 115.0);
  EXPECT_DOUBLE_EQ(ms_b, 65.0);
}

TEST(Fig3, DsmfSchedulesB2B3A3A2) {
  Fig3Context ctx;
  run_first_phase(make_algorithm("dsmf"), ctx);
  ASSERT_EQ(ctx.dispatched().size(), 4u);
  EXPECT_EQ(Fig3Context::name(ctx.dispatched()[0].first), "B2");
  EXPECT_EQ(Fig3Context::name(ctx.dispatched()[1].first), "B3");
  EXPECT_EQ(Fig3Context::name(ctx.dispatched()[2].first), "A3");
  EXPECT_EQ(Fig3Context::name(ctx.dispatched()[3].first), "A2");
}

TEST(Fig3, DsmfTargetsMinimizeFinishTime) {
  Fig3Context ctx;
  run_first_phase(make_algorithm("dsmf"), ctx);
  // Per the matrix: B2 -> Z(40), B3 -> Y(20), A3 -> X(30), A2 -> Y(10).
  EXPECT_EQ(ctx.dispatched()[0].second, NodeId{2});
  EXPECT_EQ(ctx.dispatched()[1].second, NodeId{1});
  EXPECT_EQ(ctx.dispatched()[2].second, NodeId{0});
  EXPECT_EQ(ctx.dispatched()[3].second, NodeId{1});
}

TEST(Fig3, HeftStyleRankingSchedulesA3A2B2B3) {
  // "The HEFT algorithm will choose A3, A2, B2, and B3 one by one, due to
  // their decreasing order of RPM" - DHEFT applies exactly that order.
  Fig3Context ctx;
  run_first_phase(make_algorithm("dheft"), ctx);
  ASSERT_EQ(ctx.dispatched().size(), 4u);
  EXPECT_EQ(Fig3Context::name(ctx.dispatched()[0].first), "A3");
  EXPECT_EQ(Fig3Context::name(ctx.dispatched()[1].first), "A2");
  EXPECT_EQ(Fig3Context::name(ctx.dispatched()[2].first), "B2");
  EXPECT_EQ(Fig3Context::name(ctx.dispatched()[3].first), "B3");
}

TEST(Fig3, MinMinPicksA2First) {
  Fig3Context ctx;
  run_first_phase(make_algorithm("minmin"), ctx);
  ASSERT_FALSE(ctx.dispatched().empty());
  EXPECT_EQ(Fig3Context::name(ctx.dispatched()[0].first), "A2");
  EXPECT_EQ(ctx.dispatched()[0].second, NodeId{1}) << "A2's best node is Y";
}

TEST(Fig3, MaxMinPicksB2First) {
  Fig3Context ctx;
  run_first_phase(make_algorithm("maxmin"), ctx);
  ASSERT_FALSE(ctx.dispatched().empty());
  EXPECT_EQ(Fig3Context::name(ctx.dispatched()[0].first), "B2");
  EXPECT_EQ(ctx.dispatched()[0].second, NodeId{2}) << "B2's best node is Z";
}

TEST(Fig3, SufferageStampsPositiveSufferages) {
  Fig3Context ctx;
  run_first_phase(make_algorithm("sufferage"), ctx);
  ASSERT_EQ(ctx.dispatched().size(), 4u);
  // Sufferage values per matrix: A2: 15-10=5, A3: 40-30=10, B2: 50-40=10,
  // B3: 30-20=10. The first pick has the maximal sufferage (10).
  EXPECT_DOUBLE_EQ(ctx.sufferages()[0], 10.0);
  for (double s : ctx.sufferages()) EXPECT_GE(s, 5.0);
}

TEST(Fig3, DsdfSchedulesCriticalTasksFirst) {
  Fig3Context ctx;
  run_first_phase(make_algorithm("dsdf"), ctx);
  ASSERT_EQ(ctx.dispatched().size(), 4u);
  // Slacks: A2: 115-80=35, A3: 0, B2: 0, B3: 5. Ties keep workflow order:
  // A3 (0) before B2 (0), then B3, then A2.
  EXPECT_EQ(Fig3Context::name(ctx.dispatched()[0].first), "A3");
  EXPECT_EQ(Fig3Context::name(ctx.dispatched()[1].first), "B2");
  EXPECT_EQ(Fig3Context::name(ctx.dispatched()[2].first), "B3");
  EXPECT_EQ(Fig3Context::name(ctx.dispatched()[3].first), "A2");
}

TEST(Fig3, AllTasksDispatchedExactlyOnceByEveryPolicy) {
  for (const auto& algorithm : all_algorithms()) {
    const Algorithm row = make_algorithm(algorithm);
    if (row.full_ahead()) continue;
    Fig3Context ctx;
    run_first_phase(row, ctx);
    EXPECT_EQ(ctx.dispatched().size(), 4u) << algorithm;
    std::set<std::string> names;
    for (const auto& [ref, node] : ctx.dispatched()) names.insert(Fig3Context::name(ref));
    EXPECT_EQ(names.size(), 4u) << algorithm;
  }
}

}  // namespace
}  // namespace dpjit::core
