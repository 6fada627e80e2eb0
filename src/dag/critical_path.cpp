#include "dag/critical_path.hpp"

#include <cassert>
#include <stdexcept>

namespace dpjit::dag {

double expected_execution_time(const Task& t, const AverageEstimates& avg) {
  assert(avg.capacity_mips > 0.0);
  return t.load_mi / avg.capacity_mips;
}

double expected_transmission_time(double data_mb, const AverageEstimates& avg) {
  assert(avg.bandwidth_mbps > 0.0);
  return data_mb / avg.bandwidth_mbps;
}

std::vector<double> upward_ranks(const Workflow& wf, const AverageEstimates& avg) {
  const auto order = wf.topological_order();
  if (order.size() != wf.task_count()) throw std::logic_error("upward_ranks: workflow has a cycle");
  std::vector<double> rank(wf.task_count(), 0.0);
  // Walk the topological order backwards so successors are ranked first.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const TaskIndex t = *it;
    double best_child = 0.0;
    const auto succ = wf.successors(t);
    const auto data = wf.successor_data(t);
    for (std::size_t i = 0; i < succ.size(); ++i) {
      const double via = expected_transmission_time(data[i], avg) +
                         rank[static_cast<std::size_t>(succ[i].get())];
      best_child = std::max(best_child, via);
    }
    rank[static_cast<std::size_t>(t.get())] = expected_execution_time(wf.task(t), avg) + best_child;
  }
  return rank;
}

double expected_finish_time(const Workflow& wf, const AverageEstimates& avg) {
  const auto ranks = upward_ranks(wf, avg);
  return ranks[static_cast<std::size_t>(wf.entry().get())];
}

std::vector<TaskIndex> critical_path(const Workflow& wf, const AverageEstimates& avg) {
  const auto ranks = upward_ranks(wf, avg);
  std::vector<TaskIndex> path;
  TaskIndex cur = wf.entry();
  path.push_back(cur);
  while (!wf.successors(cur).empty()) {
    // The critical successor realizes rank(cur) = eet(cur) + ett(edge) + rank(succ).
    const double want = ranks[static_cast<std::size_t>(cur.get())] -
                        expected_execution_time(wf.task(cur), avg);
    TaskIndex next{};
    double best = -1.0;
    for (TaskIndex s : wf.successors(cur)) {
      const double via = expected_transmission_time(wf.edge_data(cur, s), avg) +
                         ranks[static_cast<std::size_t>(s.get())];
      // Track the max; floating-point equality with `want` is implied at the max.
      if (via > best) {
        best = via;
        next = s;
      }
    }
    (void)want;
    assert(next.valid());
    path.push_back(next);
    cur = next;
  }
  return path;
}

}  // namespace dpjit::dag
