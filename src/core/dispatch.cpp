#include "core/dispatch.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace dpjit::core {
namespace {

/// Formula (9): index into ctx.resources() minimizing FT(tau, r), or -1 when
/// the resource set is empty. Ties break toward the earlier entry.
int select_min_ft(DispatchContext& ctx, const CandidateTask& task) {
  const auto& resources = ctx.resources();
  int best = -1;
  double best_ft = kInf;
  for (std::size_t i = 0; i < resources.size(); ++i) {
    const double ft = ctx.finish_time(task, resources[i]);
    if (ft < best_ft) {
      best_ft = ft;
      best = static_cast<int>(i);
    }
  }
  return best;
}

/// Stable-sorts `tasks` by `before` and places each by Formula (9)
/// (Algorithm 1 lines 11-15); a task with no resource is skipped (line 9).
template <typename Before>
void place_in_order(DispatchContext& ctx, std::vector<const CandidateTask*> tasks, Before before) {
  std::stable_sort(tasks.begin(), tasks.end(), before);
  for (const CandidateTask* t : tasks) {
    const int r = select_min_ft(ctx, *t);
    if (r < 0) continue;
    ctx.dispatch(*t, ctx.resources()[static_cast<std::size_t>(r)].node);
  }
}

constexpr auto longer_rpm = [](const CandidateTask* a, const CandidateTask* b) {
  return a->rpm > b->rpm;
};

constexpr auto tighter_slack = [](const CandidateTask* a, const CandidateTask* b) {
  return a->slack < b->slack;
};

std::vector<const CandidateTask*> all_schedule_points(const DispatchContext& ctx) {
  std::vector<const CandidateTask*> tasks;
  for (const auto& wf : ctx.pending()) {
    for (const auto& t : wf.tasks) tasks.push_back(&t);
  }
  return tasks;
}

void dsmf_order(DispatchContext& ctx) {
  // Line 8: ascending remaining makespan; stable so equal makespans keep
  // submission order.
  std::vector<const PendingWorkflow*> order;
  order.reserve(ctx.pending().size());
  for (const auto& p : ctx.pending()) order.push_back(&p);
  std::stable_sort(order.begin(), order.end(),
                   [](const PendingWorkflow* a, const PendingWorkflow* b) {
                     return a->makespan < b->makespan;
                   });
  for (const PendingWorkflow* wf : order) {
    // Line 11: the workflow's schedule points in descending RPM.
    std::vector<const CandidateTask*> tasks;
    tasks.reserve(wf->tasks.size());
    for (const auto& t : wf->tasks) tasks.push_back(&t);
    place_in_order(ctx, std::move(tasks), longer_rpm);
  }
}

/// Per-candidate evaluation against the current resource working copy.
struct Evaluated {
  const CandidateTask* task = nullptr;
  int best_resource = -1;
  double best_ft = kInf;
  double second_ft = kInf;  // second-best finish time (for sufferage)
};

Evaluated evaluate(DispatchContext& ctx, const CandidateTask& task) {
  Evaluated e;
  e.task = &task;
  const auto& resources = ctx.resources();
  for (std::size_t i = 0; i < resources.size(); ++i) {
    const double ft = ctx.finish_time(task, resources[i]);
    if (ft < e.best_ft) {
      e.second_ft = e.best_ft;
      e.best_ft = ft;
      e.best_resource = static_cast<int>(i);
    } else if (ft < e.second_ft) {
      e.second_ft = ft;
    }
  }
  return e;
}

double sufferage_of(const Evaluated& e) {
  return std::isfinite(e.second_ft) ? e.second_ft - e.best_ft : 0.0;
}

/// True when `a` is a better pick than `b` under the batch rule.
bool better_pick(FirstPhase rule, const Evaluated& a, const Evaluated& b) {
  switch (rule) {
    case FirstPhase::kMinMin:
      return a.best_ft < b.best_ft;
    case FirstPhase::kMaxMin:
      return a.best_ft > b.best_ft;
    default:
      return sufferage_of(a) > sufferage_of(b);
  }
}

/// min-min, max-min and sufferage (Maheswaran et al., HCW'99 [18], applied
/// to the home's schedule-point set against its gossiped resource view):
/// evaluate every remaining point's best resource, dispatch the one the rule
/// picks (the earliest on ties), update the working copy, repeat.
void batch_dispatch(DispatchContext& ctx, FirstPhase rule) {
  std::vector<const CandidateTask*> remaining = all_schedule_points(ctx);
  while (!remaining.empty()) {
    std::vector<Evaluated> evals;
    evals.reserve(remaining.size());
    for (const CandidateTask* t : remaining) evals.push_back(evaluate(ctx, *t));
    std::size_t chosen = 0;
    for (std::size_t i = 1; i < evals.size(); ++i) {
      if (better_pick(rule, evals[i], evals[chosen])) chosen = i;
    }
    const Evaluated& e = evals[chosen];
    if (e.best_resource < 0) return;  // no resources known: nothing dispatchable
    CandidateTask copy = *e.task;
    if (rule == FirstPhase::kSufferage) copy.sufferage = sufferage_of(e);
    ctx.dispatch(copy, ctx.resources()[static_cast<std::size_t>(e.best_resource)].node);
    remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(chosen));
  }
}

}  // namespace

double remaining_makespan(const std::vector<double>& rpm,
                          const std::vector<TaskIndex>& schedule_points) {
  double ms = 0.0;
  for (TaskIndex t : schedule_points) {
    ms = std::max(ms, rpm[static_cast<std::size_t>(t.get())]);
  }
  return ms;
}

void run_first_phase(const Algorithm& algorithm, DispatchContext& ctx) {
  switch (algorithm.first) {
    case FirstPhase::kMakespanThenRpm:
      dsmf_order(ctx);
      return;
    case FirstPhase::kRpm:
      place_in_order(ctx, all_schedule_points(ctx), longer_rpm);
      return;
    case FirstPhase::kSlack:
      place_in_order(ctx, all_schedule_points(ctx), tighter_slack);
      return;
    case FirstPhase::kMinMin:
    case FirstPhase::kMaxMin:
    case FirstPhase::kSufferage:
      batch_dispatch(ctx, algorithm.first);
      return;
    case FirstPhase::kFullAhead:
      break;
  }
  throw std::logic_error("run_first_phase: full-ahead algorithms have no first phase");
}

}  // namespace dpjit::core
