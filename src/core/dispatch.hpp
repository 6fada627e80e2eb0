// The first scheduling phase (paper Algorithm 1).
//
// Every scheduling cycle, each home node builds a DispatchContext exposing
// its pending workflows (with schedule points, RPMs and remaining makespans),
// a mutable working copy of its resource-state set RSS, and the finish-time
// estimator of Eqs. (4)-(6). The context prices the input transfers with the
// pricer chosen for the algorithm where the context is made (static
// estimates, or the live network oracle for the contended rows), so the first
// phase itself never asks which one it is. run_first_phase orders the candidates by the
// algorithm's first-phase rule and dispatches each to a chosen resource node;
// dispatching updates the working RSS copy so later selections in the same
// cycle see the added load (Algorithm 1 line 15).
#pragma once

#include <vector>

#include "core/algorithm.hpp"
#include "core/estimates.hpp"

namespace dpjit::core {

/// One schedule-point task offered to the first scheduling phase.
struct CandidateTask {
  TaskRef ref;
  double load_mi = 0.0;
  /// Rest-path makespan RPM(t) (Eq. 7) under the node's believed averages:
  /// the upward rank, dag::upward_ranks.
  double rpm = 0.0;
  /// The owning workflow's remaining makespan ms(f).
  double wf_makespan = 0.0;
  /// DSDF "deadline": ms(f) - RPM(t) (paper Section IV.A); smaller = tighter.
  double slack = 0.0;
  /// Filled by the sufferage rule before dispatch; carried to phase 2 (LSF).
  double sufferage = 0.0;
  /// Inputs (precedent data + task image) for finish-time estimation.
  TaskEstimateInputs inputs;
};

/// A workflow with at least one schedule point, as seen by the first phase.
struct PendingWorkflow {
  WorkflowId wf;
  /// ms(f), Eq. (8).
  double makespan = 0.0;
  std::vector<CandidateTask> tasks;
};

/// ms(f) (Eq. 8): the workflow's remaining makespan = max RPM over its
/// current schedule points. Returns 0 for an empty schedule-point set.
[[nodiscard]] double remaining_makespan(const std::vector<double>& rpm,
                                        const std::vector<TaskIndex>& schedule_points);

/// The home node's view and actions during one first-phase cycle.
class DispatchContext {
 public:
  virtual ~DispatchContext() = default;

  /// Mutable working copy of RSS(p_s) (the home node itself included, with its
  /// true local state). The first phase reads entries and dispatch() charges
  /// them; entries are never reordered or erased.
  [[nodiscard]] virtual std::vector<gossip::ResourceEntry>& resources() = 0;

  /// Workflows with schedule points this cycle. Stable order (by workflow id).
  [[nodiscard]] virtual const std::vector<PendingWorkflow>& pending() const = 0;

  /// FT(tau, r) per Eqs. (4)-(6), offset from now, with the LTD term priced
  /// by the context's pricer.
  [[nodiscard]] virtual double finish_time(const CandidateTask& task,
                                           const gossip::ResourceEntry& resource) const = 0;

  /// Dispatches the task to `target` and charges the task load to the target's
  /// entry in the RSS working copy. The task is identified by `task.ref`; the
  /// priority attributes (rpm, makespan, slack, sufferage) are stamped from
  /// the struct passed here, so the first phase may dispatch an annotated
  /// copy. Each candidate may be dispatched at most once per cycle.
  virtual void dispatch(const CandidateTask& task, NodeId target) = 0;
};

/// Runs `algorithm`'s first-phase rule over the context: dispatches every
/// pending schedule point, or none when the resource set is empty. Formula
/// (9) placement picks the resource entry minimizing finish_time; ties go to
/// the earlier entry. Must not be called for a full-ahead algorithm.
void run_first_phase(const Algorithm& algorithm, DispatchContext& ctx);

}  // namespace dpjit::core
