#include "core/estimates.hpp"

#include <algorithm>
#include <cassert>

namespace dpjit::core {

double queuing_delay_s(const gossip::ResourceEntry& resource) {
  assert(resource.capacity_mips > 0.0);
  return std::max(0.0, resource.load_mi) / resource.capacity_mips;
}

double execution_time_s(double load_mi, const gossip::ResourceEntry& resource) {
  assert(resource.capacity_mips > 0.0);
  return load_mi / resource.capacity_mips;
}

double longest_transmission_delay_s(const TaskEstimateInputs& task, NodeId target,
                                    const TransferTimeFn& transfer_time) {
  double ltd = 0.0;
  for (const InputSource& in : task.inputs) {
    if (in.location == target || in.size_mb <= 0.0) continue;
    ltd = std::max(ltd, transfer_time(in.location, target, in.size_mb));
  }
  return ltd;
}

FinishTimeEstimate estimate_finish_time(const TaskEstimateInputs& task,
                                        const gossip::ResourceEntry& resource,
                                        const TransferTimeFn& transfer_time) {
  FinishTimeEstimate est;
  est.start_s = std::max(queuing_delay_s(resource),
                         longest_transmission_delay_s(task, resource.node, transfer_time));
  est.finish_s = est.start_s + execution_time_s(task.load_mi, resource);
  return est;
}

}  // namespace dpjit::core
