#include "core/algorithm.hpp"

#include <gtest/gtest.h>

namespace dpjit::core {
namespace {

TEST(Registry, PaperAlgorithmsAllConstruct) {
  for (const auto& name : paper_algorithms()) {
    const auto algo = make_algorithm(name);
    EXPECT_EQ(algo.name, name);
    EXPECT_NE(algo.ready, "");
    EXPECT_NO_THROW((void)ready_comparator(algo.ready)) << name;
    EXPECT_FALSE(algo.contended) << name;
  }
}

TEST(Registry, EightPaperAlgorithms) {
  EXPECT_EQ(paper_algorithms().size(), 8u);
}

TEST(Registry, FullAheadFlagCorrect) {
  EXPECT_TRUE(make_algorithm("heft").full_ahead());
  EXPECT_TRUE(make_algorithm("smf").full_ahead());
  EXPECT_FALSE(make_algorithm("dsmf").full_ahead());
  EXPECT_FALSE(make_algorithm("minmin").full_ahead());
}

TEST(Registry, PhasePairingsFollowSectionIVA) {
  EXPECT_EQ(make_algorithm("dsmf").ready, "dsmf");
  EXPECT_EQ(make_algorithm("dheft").ready, "lrpm");
  EXPECT_EQ(make_algorithm("dsdf").ready, "slack");
  EXPECT_EQ(make_algorithm("minmin").ready, "stf");
  EXPECT_EQ(make_algorithm("maxmin").ready, "ltf");
  EXPECT_EQ(make_algorithm("sufferage").ready, "lsf");
  EXPECT_EQ(make_algorithm("heft").ready, "fcfs");
  EXPECT_EQ(make_algorithm("smf").ready, "fcfs");

  EXPECT_EQ(make_algorithm("dsmf").first, FirstPhase::kMakespanThenRpm);
  EXPECT_EQ(make_algorithm("dheft").first, FirstPhase::kRpm);
  EXPECT_EQ(make_algorithm("dsdf").first, FirstPhase::kSlack);
  EXPECT_EQ(make_algorithm("minmin").first, FirstPhase::kMinMin);
  EXPECT_EQ(make_algorithm("maxmin").first, FirstPhase::kMaxMin);
  EXPECT_EQ(make_algorithm("sufferage").first, FirstPhase::kSufferage);
  EXPECT_EQ(make_algorithm("heft").plan_order, PlanOrder::kGlobalRank);
  EXPECT_EQ(make_algorithm("heft").placement, Placement::kEarliestFinish);
  EXPECT_EQ(make_algorithm("smf").plan_order, PlanOrder::kMakespanBatches);
  EXPECT_EQ(make_algorithm("smf").placement, Placement::kEarliestFinish);
}

TEST(Registry, FcfsVariantsForSecondPhaseAblation) {
  for (const char* name :
       {"minmin-fcfs", "maxmin-fcfs", "sufferage-fcfs", "dheft-fcfs", "dsmf-fcfs"}) {
    const auto algo = make_algorithm(name);
    EXPECT_EQ(algo.ready, "fcfs") << name;
    EXPECT_FALSE(algo.full_ahead()) << name;
    // The same first phase as the base algorithm the name carries.
    const std::string base(name, std::string_view(name).find("-fcfs"));
    EXPECT_EQ(algo.first, make_algorithm(base).first) << name;
  }
}

TEST(Registry, UnknownThrows) {
  EXPECT_THROW((void)make_algorithm("quantum"), std::invalid_argument);
}

TEST(Registry, AllAlgorithmsIncludesVariants) {
  const auto all = all_algorithms();
  EXPECT_EQ(all.size(), 18u);
  for (const auto& name : all) {
    EXPECT_NO_THROW((void)make_algorithm(name));
    EXPECT_NO_THROW((void)ready_comparator(make_algorithm(name).ready)) << name;
  }
}

TEST(Registry, ContentionAwareExtensionsRegistered) {
  const auto ca = make_algorithm("dsmf-ca");
  EXPECT_FALSE(ca.full_ahead());
  EXPECT_TRUE(ca.contended);
  EXPECT_EQ(ca.first, FirstPhase::kMakespanThenRpm);
  EXPECT_EQ(ca.ready, "dsmf");

  const auto tc = make_algorithm("dsmf-tc");
  EXPECT_FALSE(tc.full_ahead());
  EXPECT_FALSE(tc.contended);
  EXPECT_EQ(tc.first, FirstPhase::kMakespanThenRpm);
  EXPECT_EQ(tc.ready, "tcms");

  const auto dca = make_algorithm("dheft-ca");
  EXPECT_FALSE(dca.full_ahead());
  EXPECT_TRUE(dca.contended);
  EXPECT_EQ(dca.first, FirstPhase::kRpm);
  EXPECT_EQ(dca.ready, "lrpm");

  const auto lca = make_algorithm("lookahead-ca");
  EXPECT_TRUE(lca.full_ahead());
  EXPECT_TRUE(lca.contended);
  EXPECT_EQ(lca.plan_order, PlanOrder::kGlobalRank);
  EXPECT_EQ(lca.placement, Placement::kLookahead);
  EXPECT_EQ(lca.ready, "fcfs");
}

TEST(Registry, LookaheadHeftExtensionRegistered) {
  const auto algo = make_algorithm("heft-la");
  EXPECT_TRUE(algo.full_ahead());
  EXPECT_FALSE(algo.contended);
  EXPECT_EQ(algo.plan_order, PlanOrder::kGlobalRank);
  EXPECT_EQ(algo.placement, Placement::kLookahead);
}

}  // namespace
}  // namespace dpjit::core
