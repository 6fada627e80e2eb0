// Contention-aware DSMF (extension; not in the paper).
//
// Identical to DsmfPolicy's Algorithm-1 ordering - workflows by ascending
// remaining makespan, schedule points by descending RPM - but Formula (9) is
// evaluated through DispatchContext::finish_time_contended(): the
// transmission-delay term of each candidate placement comes from the live
// network oracle (TransferManager::expected_transfer_time_s; in fair-sharing
// mode a what-if probe of the max-min solver against the current in-flight
// transfer set) instead of the gossip/landmark bandwidth averages. At transfer-bound CCR this steers
// tasks away from resource nodes whose input paths are currently saturated -
// the placement signal static-bandwidth DSMF cannot see. In a context with
// no live network (unit tests, bottleneck-model worlds where routing already
// tells the truth) the contended estimate degrades to the static one.
#pragma once

#include "core/policies/dsmf.hpp"

namespace dpjit::core {

class DsmfCaPolicy final : public DsmfPolicy {
 public:
  [[nodiscard]] std::string_view name() const override { return "dsmf-ca"; }

 protected:
  [[nodiscard]] int select_node(DispatchContext& ctx, const CandidateTask& task) const override {
    return select_min_ft_contended(ctx, task);
  }
};

}  // namespace dpjit::core
