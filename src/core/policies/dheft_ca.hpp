// Contention-aware DHEFT (extension; not in the paper).
//
// Identical to DheftPolicy's longest-RPM-first ordering across all pending
// workflows, but each schedule point's Formula (9) placement is evaluated
// through DispatchContext::finish_time_contended(): the transmission-delay
// term comes from the live network oracle
// (TransferManager::expected_transfer_time_s; in fair-sharing mode a what-if
// probe of the max-min solver against the current in-flight transfer set)
// instead of the gossiped bandwidth averages. The DHEFT analog of
// DsmfCaPolicy - the pair isolates how much of the contention-aware gain is
// the live signal itself versus DSMF's makespan-aware ordering. In a context
// with no live network the contended estimate degrades to the static one.
#pragma once

#include "core/policies/dheft.hpp"

namespace dpjit::core {

class DheftCaPolicy final : public DheftPolicy {
 public:
  [[nodiscard]] std::string_view name() const override { return "dheft-ca"; }

 protected:
  [[nodiscard]] int select_node(DispatchContext& ctx, const CandidateTask& task) const override {
    return select_min_ft_contended(ctx, task);
  }
};

}  // namespace dpjit::core
