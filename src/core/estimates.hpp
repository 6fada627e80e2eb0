// Finish-time estimation, Eqs. (4)-(6) of the paper.
//
// A schedule-point task tau considered for resource node p_h finishes at
//   FT(tau, p_h) = max( R(tau, p_h), LTD(tau) ) + et(tau, p_h)
// where R = l_h / c_h is the queuing delay conservatively estimated from the
// node's gossiped total load, LTD is the longest transmission delay over the
// task's inputs (dependent data from the precedents' execution sites plus the
// task image from the home node), and et = load / c_h. The queueing delay and
// the input transfers overlap in time, hence the max.
//
// All times here are offsets from "now" (the scheduling instant): every
// precedent of a schedule point has already finished, so its data transfer
// can start immediately.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "gossip/view.hpp"

namespace dpjit::core {

/// One input the task must aggregate at the execution site.
struct InputSource {
  /// Node currently holding the data (precedent's execution node, or the home
  /// node for the task image).
  NodeId location;
  /// Data volume in Mb.
  double size_mb = 0.0;
};

/// Everything needed to estimate a schedule point's finish time on a node.
struct TaskEstimateInputs {
  double load_mi = 0.0;
  std::vector<InputSource> inputs;
};

/// Transfer-time estimate (seconds) for moving `size_mb` megabits between two
/// nodes: how a scheduler prices a transfer. The caller picks the pricer once,
/// where it builds its dispatch context or planner oracle: a static pricer
/// (size_over_bandwidth) over landmark estimates or true path bandwidths, or
/// the live grid::TransferManager::expected_transfer_time_s, latency and
/// contention included.
using TransferTimeFn = std::function<double(NodeId from, NodeId to, double size_mb)>;

/// The static pricer: size over the estimated bandwidth (Mb/s) `bandwidth`
/// returns for the pair, +inf when that is 0. Charges no latency.
template <typename BandwidthFn>
[[nodiscard]] TransferTimeFn size_over_bandwidth(BandwidthFn bandwidth) {
  return [bandwidth = std::move(bandwidth)](NodeId from, NodeId to, double size_mb) {
    const double bw = bandwidth(from, to);
    return bw > 0.0 ? size_mb / bw : kInf;
  };
}

/// R(tau, p_h): queuing delay = gossiped total load / capacity, seconds.
[[nodiscard]] double queuing_delay_s(const gossip::ResourceEntry& resource);

/// et(tau, p_h): execution time of the task on the node, seconds.
[[nodiscard]] double execution_time_s(double load_mi, const gossip::ResourceEntry& resource);

/// LTD(tau) (Eq. 4): slowest input transfer to `target` under
/// `transfer_time`, seconds from now. Inputs already located at `target`, and
/// empty ones, cost nothing.
[[nodiscard]] double longest_transmission_delay_s(const TaskEstimateInputs& task, NodeId target,
                                                  const TransferTimeFn& transfer_time);

/// ST and FT (Eqs. 5-6) as offsets from now.
struct FinishTimeEstimate {
  double start_s = 0.0;
  double finish_s = 0.0;
};

[[nodiscard]] FinishTimeEstimate estimate_finish_time(const TaskEstimateInputs& task,
                                                      const gossip::ResourceEntry& resource,
                                                      const TransferTimeFn& transfer_time);

}  // namespace dpjit::core
