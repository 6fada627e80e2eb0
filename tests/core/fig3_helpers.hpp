// Reconstruction of the paper's Fig. 3 worked example.
//
// The published numbers are: RPM(A2)=80, RPM(A3)=115, RPM(B2)=65, RPM(B3)=60
// (under average estimates), workflow makespans ms(A)=115, ms(B)=65, DSMF
// scheduling order B2, B3, A3, A2, HEFT order A3, A2, B2, B3, and a finish-
// time matrix on three idle resources X, Y, Z from which min-min first picks
// A2 and max-min first picks B2. We rebuild DAGs that reproduce exactly those
// RPM values with unit average capacity/bandwidth.
#pragma once

#include <map>
#include <vector>

#include "core/dispatch.hpp"
#include "dag/templates.hpp"
#include "dag/workflow.hpp"

namespace dpjit::core::testing {

/// Workflow A of Fig. 3 (see dag::make_fig3_workflow_a).
inline dag::Workflow fig3_workflow_a() { return dag::make_fig3_workflow_a(WorkflowId{0}); }

/// Workflow B of Fig. 3 (see dag::make_fig3_workflow_b).
inline dag::Workflow fig3_workflow_b() { return dag::make_fig3_workflow_b(WorkflowId{1}); }

/// Mock context exposing Fig. 3's schedule points and finish-time matrix.
/// Rows: A2, A3, B2, B3; columns: resources X, Y, Z (node ids 0, 1, 2).
class Fig3Context final : public DispatchContext {
 public:
  Fig3Context() {
    resources_ = {
        {NodeId{0}, 0.0, 1.0, 0.0, 0},  // X
        {NodeId{1}, 0.0, 1.0, 0.0, 0},  // Y
        {NodeId{2}, 0.0, 1.0, 0.0, 0},  // Z
    };
    // Paper's estimated finish-time matrix.
    ft_[{0, 1}] = {15, 10, 30};  // A2 (workflow 0, task index 1)
    ft_[{0, 2}] = {30, 50, 40};  // A3
    ft_[{1, 1}] = {50, 60, 40};  // B2 (workflow 1, task index 1)
    ft_[{1, 2}] = {40, 20, 30};  // B3

    PendingWorkflow a;
    a.wf = WorkflowId{0};
    a.makespan = 115;
    a.tasks.push_back(make_task(0, 1, 10, 80, 115));   // A2
    a.tasks.push_back(make_task(0, 2, 20, 115, 115));  // A3
    PendingWorkflow b;
    b.wf = WorkflowId{1};
    b.makespan = 65;
    b.tasks.push_back(make_task(1, 1, 10, 65, 65));  // B2
    b.tasks.push_back(make_task(1, 2, 40, 60, 65));  // B3
    pending_ = {a, b};
  }

  [[nodiscard]] std::vector<gossip::ResourceEntry>& resources() override { return resources_; }
  [[nodiscard]] const std::vector<PendingWorkflow>& pending() const override { return pending_; }

  [[nodiscard]] double finish_time(const CandidateTask& task,
                                   const gossip::ResourceEntry& resource) const override {
    const auto row = ft_.at({task.ref.workflow.get(), task.ref.task.get()});
    return row[static_cast<std::size_t>(resource.node.get())];
  }

  void dispatch(const CandidateTask& task, NodeId target) override {
    dispatched_.emplace_back(task.ref, target);
    sufferages_.push_back(task.sufferage);
  }

  /// Dispatch log: (task, chosen node) in dispatch order.
  [[nodiscard]] const std::vector<std::pair<TaskRef, NodeId>>& dispatched() const {
    return dispatched_;
  }
  [[nodiscard]] const std::vector<double>& sufferages() const { return sufferages_; }

  /// Name of a task for readable assertions ("A2", "B3"...).
  static std::string name(TaskRef ref) {
    // Built in two steps: string + to_string rvalue trips a -Wrestrict false
    // positive in GCC 12 (PR 105329) under -O2.
    std::string s(1, ref.workflow.get() == 0 ? 'A' : 'B');
    s += std::to_string(ref.task.get() + 1);
    return s;
  }

 private:
  static CandidateTask make_task(int wf, int task, double load, double rpm, double ms) {
    CandidateTask c;
    c.ref = TaskRef{WorkflowId{wf}, TaskIndex{task}};
    c.load_mi = load;
    c.rpm = rpm;
    c.wf_makespan = ms;
    c.slack = ms - rpm;
    return c;
  }

  std::vector<gossip::ResourceEntry> resources_;
  std::vector<PendingWorkflow> pending_;
  std::map<std::pair<int, int>, std::vector<double>> ft_;
  std::vector<std::pair<TaskRef, NodeId>> dispatched_;
  std::vector<double> sufferages_;
};

}  // namespace dpjit::core::testing
