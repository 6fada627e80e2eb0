#include "dag/serialize.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "dag/generator.hpp"
#include "dag/templates.hpp"

namespace dpjit::dag {
namespace {

void expect_same(const Workflow& a, const Workflow& b) {
  ASSERT_EQ(a.task_count(), b.task_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  EXPECT_EQ(a.id(), b.id());
  for (std::size_t i = 0; i < a.task_count(); ++i) {
    const TaskIndex t{static_cast<TaskIndex::underlying_type>(i)};
    EXPECT_DOUBLE_EQ(a.task(t).load_mi, b.task(t).load_mi);
    EXPECT_DOUBLE_EQ(a.task(t).image_mb, b.task(t).image_mb);
    EXPECT_EQ(a.name(t), b.name(t));
    ASSERT_EQ(a.successors(t).size(), b.successors(t).size());
    for (TaskIndex s : a.successors(t)) {
      EXPECT_DOUBLE_EQ(a.edge_data(t, s), b.edge_data(t, s));
    }
  }
}

TEST(Serialize, RoundTripsMontage) {
  const auto wf = make_montage(WorkflowId{7}, 5);
  std::stringstream ss;
  write_workflow(ss, wf);
  const auto back = read_workflow(ss);
  expect_same(wf, back);
}

class SerializeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerializeProperty, RoundTripsRandomWorkflows) {
  util::Rng rng(GetParam());
  const auto wf = generate_workflow(WorkflowId{3}, GeneratorParams{}, rng);
  std::stringstream ss;
  write_workflow(ss, wf);
  expect_same(wf, read_workflow(ss));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeProperty, ::testing::Range<std::uint64_t>(1, 21));

TEST(Serialize, BatchRoundTrip) {
  std::vector<Workflow> wfs;
  wfs.push_back(make_pipeline(WorkflowId{0}, 3));
  wfs.push_back(make_diamond(WorkflowId{1}));
  std::stringstream ss;
  write_workflows(ss, wfs);
  const auto back = read_workflows(ss);
  ASSERT_EQ(back.size(), 2u);
  expect_same(wfs[0], back[0]);
  expect_same(wfs[1], back[1]);
}

TEST(Serialize, CommentsAndBlanksIgnored) {
  std::stringstream ss(
      "# a comment\n\nworkflow 5\n  task 10 2 alpha\n task 20 3\n# mid comment\nedge 0 1 7\nend\n");
  const auto wf = read_workflow(ss);
  EXPECT_EQ(wf.id().get(), 5);
  EXPECT_EQ(wf.task_count(), 2u);
  EXPECT_EQ(wf.name(TaskIndex{0}), "alpha");
  EXPECT_EQ(wf.name(TaskIndex{1}), "");
  EXPECT_DOUBLE_EQ(wf.edge_data(TaskIndex{0}, TaskIndex{1}), 7.0);
}

TEST(Serialize, MalformedInputsThrow) {
  {
    std::stringstream ss("task 1 1\n");
    EXPECT_THROW(read_workflow(ss), std::invalid_argument);
  }
  {
    std::stringstream ss("workflow 1\ntask nope 1\nend\n");
    EXPECT_THROW(read_workflow(ss), std::invalid_argument);
  }
  {
    std::stringstream ss("workflow 1\ntask 1 1\n");  // missing end
    EXPECT_THROW(read_workflow(ss), std::invalid_argument);
  }
  {
    std::stringstream ss("workflow 1\nbanana\nend\n");
    EXPECT_THROW(read_workflow(ss), std::invalid_argument);
  }
  {
    std::stringstream ss("");
    EXPECT_THROW(read_workflow(ss), std::invalid_argument);
  }
}

TEST(Serialize, EdgeValidationStillApplies) {
  std::stringstream ss("workflow 1\ntask 1 1\nedge 0 5 1\nend\n");
  EXPECT_THROW(read_workflow(ss), std::out_of_range);
}

}  // namespace
}  // namespace dpjit::dag
