// Expected-time estimation over workflow DAGs (paper Eq. (1) and the
// eet/ett approximations used by RPM).
//
// All "expected" quantities are computed against system-wide averages: the
// average node capacity (MIPS) and average network bandwidth (Mb/s) that the
// aggregation gossip protocol maintains at every node.
#pragma once

#include <vector>

#include "dag/workflow.hpp"

namespace dpjit::dag {

/// System-wide averages used for expected execution / transmission times.
struct AverageEstimates {
  /// Average node capacity in MIPS (> 0).
  double capacity_mips = 1.0;
  /// Average network bandwidth in Mb/s (> 0).
  double bandwidth_mbps = 1.0;
};

/// eet(t): expected execution time of a task on an average node, seconds.
[[nodiscard]] double expected_execution_time(const Task& t, const AverageEstimates& avg);

/// ett for a given data volume: expected transmission time, seconds.
[[nodiscard]] double expected_transmission_time(double data_mb, const AverageEstimates& avg);

/// Upward ranks: rank(t) = eet(t) + max over successors s of
/// (ett(edge t->s) + rank(s)); rank(exit) = eet(exit).
/// This is the paper's expected-time skeleton of RPM (the offspring part of
/// Eq. (7)) and matches HEFT's rank_u. Indexed by task index.
[[nodiscard]] std::vector<double> upward_ranks(const Workflow& wf, const AverageEstimates& avg);

/// Expected finish-time eft(f) (Eq. (1)): length of the critical path from
/// entry to exit under average estimates == upward rank of the entry task.
/// Requires a normalized workflow (unique entry).
[[nodiscard]] double expected_finish_time(const Workflow& wf, const AverageEstimates& avg);

}  // namespace dpjit::dag
