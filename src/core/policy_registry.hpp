// Algorithm registry: the eight algorithms of the paper's evaluation
// (Section IV.A), plus the "-fcfs" variants used for the second-phase
// ablation reported in the text of Section IV.B.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/dispatch.hpp"
#include "core/fullahead/planner.hpp"
#include "core/policies/ready_policies.hpp"

namespace dpjit::core {

/// A complete scheduling algorithm: either a just-in-time first-phase policy
/// or a full-ahead planner, plus a second-phase ready policy.
struct Algorithm {
  std::string name;
  /// Non-null for just-in-time algorithms (DSMF, DHEFT, DSDF, min-min,
  /// max-min, sufferage).
  std::function<std::unique_ptr<FirstPhasePolicy>()> make_first;
  /// Non-null for full-ahead algorithms (HEFT, SMF). One planner is created
  /// per home node (it carries that home's booking timelines).
  std::function<std::unique_ptr<FullAheadPlanner>()> make_planner;
  /// Always non-null.
  std::function<std::unique_ptr<ReadyQueuePolicy>()> make_second;
  /// Full-ahead algorithms only: plan transfer costs through the live-rate
  /// oracle (PlannerOracle::transfer_time gets wired to
  /// TransferManager::expected_transfer_time_s) instead of the static bandwidth matrix. Meaningless
  /// for just-in-time algorithms, whose -ca variants probe per dispatch.
  bool contended_planner = false;

  [[nodiscard]] bool full_ahead() const { return static_cast<bool>(make_planner); }
};

/// Builds an algorithm by name. The eight paper algorithms:
///   "dsmf", "dheft", "dsdf", "minmin", "maxmin", "sufferage", "heft", "smf".
/// Second-phase ablation variants (original HCW'99-style, FCFS ready set):
///   "minmin-fcfs", "maxmin-fcfs", "sufferage-fcfs", "dheft-fcfs", "dsmf-fcfs".
/// Extension (paper related-work [24]): "heft-la" - lookahead HEFT.
/// Contention-aware extensions (consume the live-rate oracle):
///   "dsmf-ca" - DSMF with Formula (9) ranked by oracle-predicted completion
///               time (live what-if probes of the fair-sharing solver);
///   "dsmf-tc" - DSMF with the transfer-time-corrected "tcms" second phase
///               (realized input-staging time credited against the stamped
///               remaining makespan);
///   "dheft-ca" - DHEFT with Formula (9) ranked by oracle-predicted
///               completion time (the DHEFT analog of dsmf-ca);
///   "lookahead-ca" - lookahead HEFT planning its transfer costs through the
///               live oracle at plan time (contended_planner set).
/// Throws std::invalid_argument on unknown names.
[[nodiscard]] Algorithm make_algorithm(std::string_view name);

/// The eight algorithms of the paper's figures, in the paper's legend order.
[[nodiscard]] std::vector<std::string> paper_algorithms();

/// All registered names (including ablation variants).
[[nodiscard]] std::vector<std::string> all_algorithms();

}  // namespace dpjit::core
