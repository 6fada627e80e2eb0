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

/// Estimated bandwidth (Mb/s) between two nodes - in production the
/// landmark-based estimator fed by gossip, in tests any stub.
using BandwidthEstimateFn = std::function<double(NodeId from, NodeId to)>;

/// Full transfer-time estimate (seconds, including path latency) for moving
/// `size_mb` megabits. Contention-aware policies plug the live
/// grid::TransferManager::expected_transfer_time_s in here; the static variant
/// above only divides size by an average bandwidth.
using TransferTimeFn = std::function<double(NodeId from, NodeId to, double size_mb)>;

/// R(tau, p_h): queuing delay = gossiped total load / capacity, seconds.
[[nodiscard]] double queuing_delay_s(const gossip::ResourceEntry& resource);

/// et(tau, p_h): execution time of the task on the node, seconds.
[[nodiscard]] double execution_time_s(double load_mi, const gossip::ResourceEntry& resource);

/// LTD(tau) (Eq. 4): slowest input transfer to `target`, seconds from now.
/// Inputs already located at `target` cost nothing.
[[nodiscard]] double longest_transmission_delay_s(const TaskEstimateInputs& task, NodeId target,
                                                  const BandwidthEstimateFn& bandwidth);

/// LTD(tau) with each input charged a full transfer-time estimate (latency
/// included) instead of size / average-bandwidth.
[[nodiscard]] double longest_transmission_delay_s(const TaskEstimateInputs& task, NodeId target,
                                                  const TransferTimeFn& transfer_time);

/// ST and FT (Eqs. 5-6) as offsets from now.
struct FinishTimeEstimate {
  double start_s = 0.0;
  double finish_s = 0.0;
};

[[nodiscard]] FinishTimeEstimate estimate_finish_time(const TaskEstimateInputs& task,
                                                      const gossip::ResourceEntry& resource,
                                                      const BandwidthEstimateFn& bandwidth);

/// Eqs. (5)-(6) with the LTD term computed from a full transfer-time
/// estimator (e.g. the live network oracle) instead of a static bandwidth.
[[nodiscard]] FinishTimeEstimate estimate_finish_time(const TaskEstimateInputs& task,
                                                      const gossip::ResourceEntry& resource,
                                                      const TransferTimeFn& transfer_time);

}  // namespace dpjit::core
