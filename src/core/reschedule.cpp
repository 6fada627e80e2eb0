// Failed-task rescheduling - the paper's stated future work (Section VI:
// "This issue can be solved by automatically rescheduling the failed tasks at
// the scheduler nodes"). Implemented as an opt-in extension
// (SystemConfig::reschedule_failed).
//
// At every scheduling cycle the home node scans its workflows for tasks lost
// to churn and returns them to the schedule-point set. Because there is no
// checkpointing, a failed task whose input data vanished with a departed node
// can only be recovered by *re-executing* the precedent that produced the
// data - so recovery walks upward demoting finished precedents whose
// execution nodes are gone, until it reaches tasks whose inputs still exist.
#include <cassert>

#include "core/grid_system.hpp"

namespace dpjit::core {

void GridSystem::recover_failed_tasks() {
  for (auto& wf : workflows_) {
    if (wf.done() || wf.failed_tasks == 0) continue;
    for (std::size_t t = 0; t < wf.tasks.size(); ++t) {
      if (wf.tasks[t].state == TaskState::kFailed) {
        recover_task(wf, TaskIndex{static_cast<TaskIndex::underlying_type>(t)}, 0);
      }
    }
  }
}

int GridSystem::unfinished_pred_count(const WorkflowInstance& wf, TaskIndex task) const {
  // `unfinished_preds` counts precedents whose completion the home node has
  // not (yet) processed - the decrement happens when the finish notification
  // arrives (on_task_finished_at_home), not when the task finishes at its
  // execution node. Recomputing must therefore treat a finished-but-not-yet-
  // notified precedent as unfinished, matching the decrement bookkeeping.
  int unfinished = 0;
  for (TaskIndex p : wf.dag.predecessors(task)) {
    const auto& prt = wf.tasks[static_cast<std::size_t>(p.get())];
    if (prt.state != TaskState::kFinished || !prt.finish_notified) ++unfinished;
  }
  return unfinished;
}

void GridSystem::recover_task(WorkflowInstance& wf, TaskIndex task, int depth) {
  assert(depth <= static_cast<int>(wf.tasks.size()) && "recovery recursion exceeds DAG depth");
  auto& rt = wf.tasks[static_cast<std::size_t>(task.get())];
  if (rt.state != TaskState::kFailed) return;

  // Re-execute precedents whose outputs are no longer reachable. With result
  // collection (home_keeps_outputs) a finished precedent's data is always
  // available at the home node, so no re-execution is ever needed.
  for (TaskIndex p : wf.dag.predecessors(task)) {
    auto& prt = wf.tasks[static_cast<std::size_t>(p.get())];
    if (!config_.home_keeps_outputs && prt.state == TaskState::kFinished &&
        !alive(prt.exec_node)) {
      // Demote: the data died with the node. Successors other than `task`
      // that were still waiting on schedule must wait for the re-execution.
      // Every waiting/schedulable/failed successor has its precedent count
      // recomputed from the precedent states rather than incremented: a blind
      // increment double-counts p for a successor whose completion
      // notification was still in flight (the stale-notification guard in
      // on_task_finished_at_home drops that notification), and failed
      // successors previously kept a stale count until their own recovery.
      set_state(wf, p, TaskState::kFailed);
      prt.finish_notified = false;
      for (TaskIndex s : wf.dag.successors(p)) {
        auto& srt = wf.tasks[static_cast<std::size_t>(s.get())];
        if (srt.state == TaskState::kSchedulable) set_state(wf, s, TaskState::kWaiting);
        if (srt.state == TaskState::kWaiting || srt.state == TaskState::kFailed) {
          srt.unfinished_preds = unfinished_pred_count(wf, s);
        }
      }
    }
    if (prt.state == TaskState::kFailed) recover_task(wf, p, depth + 1);
  }

  // Return this task to the just-in-time pipeline.
  const int unfinished = unfinished_pred_count(wf, task);
  rt.unfinished_preds = unfinished;
  set_state(wf, task, unfinished == 0 ? TaskState::kSchedulable : TaskState::kWaiting);
  rt.exec_node = NodeId{};
  rt.finish_notified = false;
  rt.dispatched_at = rt.started_at = rt.finished_at = kNoTime;
  ++tasks_rescheduled_;
  trace_.record(engine_.now(), sim::TraceKind::kReschedule, wf.home, TaskRef{wf.id, task});
}

}  // namespace dpjit::core
