// The figure table behind `scenario_runner --figure`: every entry runs at a
// tiny scale, and the lookup and listing behave.
#include "exp/figures.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace dpjit::exp {
namespace {

std::vector<std::string> figure_names() {
  std::vector<std::string> names;
  for (const auto& f : figure_table()) names.push_back(f.name);
  return names;
}

TEST(FigureTable, CoversThePaperEvaluationOnce) {
  const auto names = figure_names();
  const std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size());
  // Table I, Figs. 3-14, the in-text FCFS table and four ablations.
  EXPECT_EQ(names.size(), 18u);
  for (const char* name : {"table1", "fig03", "fig04", "fig11", "fig14", "table2",
                           "ablation_network_model"}) {
    ASSERT_NE(find_figure(name), nullptr) << name;
    EXPECT_EQ(find_figure(name)->name, name);
  }
  EXPECT_EQ(find_figure("no-such"), nullptr);
  for (const auto& f : figure_table()) EXPECT_FALSE(f.title.empty()) << f.name;
}

class EveryFigure : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryFigure, RunsAtTinyScale) {
  const char* argv[] = {"prog", "--nodes=40", "--workflows=1", "--hours=1",
                        "--max-load-factor=2"};
  const auto cli = util::Config::from_args(5, argv);
  const auto* figure = find_figure(GetParam());
  ASSERT_NE(figure, nullptr);
  std::ostringstream os;
  ASSERT_NO_THROW(figure->run(cli, os));
  EXPECT_FALSE(os.str().empty());
  EXPECT_NE(os.str().find(figure->title), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(All, EveryFigure, ::testing::ValuesIn(figure_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace dpjit::exp
