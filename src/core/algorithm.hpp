// The scheduling algorithms as rows of one table.
//
// The paper's evaluation (Section IV.A) builds every algorithm from one
// recipe: order the schedule points by a key, place each one by Formula (9),
// then pick from each resource node's ready set by a key. An Algorithm is
// that recipe written down: which first-phase rule orders and places the
// schedule points (or, for the full-ahead baselines, which planner maps every
// task before execution starts), whether placement reads the live network
// oracle, and which comparator the second phase picks by.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "grid/grid_node.hpp"

namespace dpjit::core {

/// How the first scheduling phase orders the schedule points. Every ordered
/// rule places each point on the resource minimizing FT (Formula 9); the
/// batch rules re-evaluate every remaining point after each dispatch.
enum class FirstPhase {
  /// No first phase: a full-ahead planner mapped every task before execution
  /// and the tasks go to their planned nodes as they become ready.
  kFullAhead,
  /// DSMF (Algorithm 1): workflows by ascending remaining makespan ms(f),
  /// then each workflow's schedule points by descending RPM. Both sorts are
  /// stable, so ties keep workflow-id and frontier order.
  kMakespanThenRpm,
  /// DHEFT: all schedule points by descending RPM (stable).
  kRpm,
  /// DSDF: all schedule points by ascending slack ms(f) - RPM(t) (stable).
  kSlack,
  /// min-min: dispatch the point whose best finish time is smallest.
  kMinMin,
  /// max-min: dispatch the point whose best finish time is largest.
  kMaxMin,
  /// sufferage: dispatch the point with the largest second-best minus best
  /// finish time, and stamp that sufferage on it for the LSF second phase.
  kSufferage,
};

/// The order in which a full-ahead planner maps tasks.
enum class PlanOrder {
  /// HEFT: every task of the batch by descending upward rank.
  kGlobalRank,
  /// SMF: workflows by ascending expected makespan (stable), each planned
  /// completely, rank-descending, before the next.
  kMakespanBatches,
};

/// How a full-ahead planner picks a task's node.
enum class Placement {
  /// Insertion-based earliest finish time (HEFT).
  kEarliestFinish,
  /// Lookahead HEFT (Bittencourt, Sakellariou & Madeira, PDP'10 - the
  /// paper's reference [24]): score a node by the worst earliest finish time
  /// the task's children could then reach, probed one level deep against the
  /// current timelines. O(tasks * nodes^2 * fanout): use at bench scale.
  kLookahead,
};

/// One registered algorithm.
struct Algorithm {
  std::string_view name;
  FirstPhase first = FirstPhase::kFullAhead;
  /// Price transfers by the live network oracle
  /// (TransferManager::expected_transfer_time_s) instead of static bandwidth
  /// estimates. Read once, where GridSystem builds a row's pricer: the
  /// just-in-time rows' DispatchContext::finish_time and the full-ahead rows'
  /// PlannerOracle::transfer_time both charge transfers through it.
  bool contended = false;
  /// Second-phase comparator, one of ready_comparator_names().
  std::string_view ready;
  /// Full-ahead rows only.
  PlanOrder plan_order = PlanOrder::kGlobalRank;
  Placement placement = Placement::kEarliestFinish;

  [[nodiscard]] bool full_ahead() const { return first == FirstPhase::kFullAhead; }
};

/// The row registered under `name`. The eight paper algorithms:
///   "dsmf", "dheft", "dsdf", "minmin", "maxmin", "sufferage", "heft", "smf".
/// Second-phase ablation variants (original HCW'99-style, FCFS ready set):
///   "minmin-fcfs", "maxmin-fcfs", "sufferage-fcfs", "dheft-fcfs", "dsmf-fcfs".
/// Extension (paper related-work [24]): "heft-la" - lookahead HEFT.
/// Contention-aware extensions (consume the live-rate oracle):
///   "dsmf-ca" / "dheft-ca" - DSMF / DHEFT with Formula (9) ranked by the
///               oracle-predicted completion time (live what-if probes of the
///               fair-sharing solver); the pair isolates how much of the gain
///               is the live signal versus DSMF's makespan-aware order;
///   "dsmf-tc" - DSMF with the transfer-time-corrected "tcms" second phase;
///   "lookahead-ca" - lookahead HEFT planning its transfer costs through the
///               live oracle at plan time.
/// Throws std::invalid_argument on unknown names.
[[nodiscard]] Algorithm make_algorithm(std::string_view name);

/// The eight algorithms of the paper's figures, in the paper's legend order.
[[nodiscard]] std::vector<std::string> paper_algorithms();

/// All registered names (including ablation variants).
[[nodiscard]] std::vector<std::string> all_algorithms();

/// Second phase (Algorithm 2): true when ready task `a` beats `b`. Every
/// comparator is a total order on the stamped task attributes that ends on
/// arrival order, so the pick is deterministic.
using ReadyComparator = bool (*)(const grid::ReadyTask& a, const grid::ReadyTask& b);

/// The comparator registered under `name`:
///  - "dsmf"  : smallest workflow makespan first; tie -> longest RPM
///              (Algorithm 2 / Formula 10);
///  - "lrpm"  : longest RPM first (DHEFT's second phase);
///  - "slack" : shortest slack (= deadline) first (DSDF's second phase);
///  - "stf"   : shortest task first (paired with min-min);
///  - "ltf"   : longest task first (paired with max-min);
///  - "lsf"   : largest sufferage first (paired with sufferage);
///  - "fcfs"  : arrival order (full-ahead HEFT/SMF; also the paper's
///              second-phase-less baselines);
///  - "tcms"  : transfer-time-corrected DSMF order (extension): smallest
///              wf_makespan - (data_ready_at - arrived_at) first, i.e. the
///              stamped makespan minus the time the task actually spent
///              waiting for its inputs; tie -> longest RPM. Credits workflows
///              for transfer time already paid, which matters when contention
///              makes staging times diverge from the averages the stamp
///              assumed.
/// Throws std::invalid_argument for unknown names.
[[nodiscard]] ReadyComparator ready_comparator(std::string_view name);

/// All comparator names (for tests and CLIs).
[[nodiscard]] std::vector<std::string_view> ready_comparator_names();

/// The index of the best candidate under `better`; the earlier candidate wins
/// ties. Throws std::logic_error on an empty candidate set.
[[nodiscard]] std::size_t select_ready(ReadyComparator better,
                                       const std::vector<const grid::ReadyTask*>& candidates);

}  // namespace dpjit::core
