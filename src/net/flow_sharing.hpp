// Max-min fair bandwidth allocation among concurrent flows (progressive
// filling). This is the optional contended network model: the paper's own
// evaluation - like most grid simulators of its era - charges each transfer
// the full bottleneck bandwidth of its path; the flow-sharing model is our
// ablation showing how the scheduling comparison behaves when transfers
// crossing the same link share it fairly.
//
// Two entry points:
//  - max_min_fair_rates(): the stateless reference solve over one flow set.
//  - FairShareSolver: the incremental engine the TransferManager drives. It
//    maintains per-link flow sets, so adding or removing a flow only
//    re-solves the *bottleneck component* that flow belongs to (the flows and
//    links transitively reachable through shared links); disjoint components
//    are independent max-min subproblems and keep their rates untouched.
//    Each component keeps a record of its last fill, so a mutation resumes
//    it at the first round the mutation can change (see the class comment).
//    Batch removal (churn teardown) re-solves the union of the affected
//    components once instead of once per flow.
//
// Both solvers use the same round-synchronous freeze: each round first finds
// the minimum fair share over all links, then marks every bottleneck link
// *before* any capacity is subtracted, and only then freezes the flows
// crossing marked links. Because every flow frozen in a round receives the
// identical share and link capacities are reduced by that same value once per
// crossing, the computed rates are bit-identical under any permutation of the
// flow set - a property the golden-digest policy relies on (flow iteration
// order inside the TransferManager is hash-map order).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace dpjit::net {

/// One flow: the set of link ids its route crosses.
struct FlowPath {
  std::vector<LinkId> links;
};

/// Computes the max-min fair rate (Mb/s) of each flow given per-link
/// capacities. Flows with an empty path (loopback transfers) get +inf; flows
/// whose path only crosses zero-capacity links get 0 (callers must not wait
/// for such flows to complete - see TransferManager's zero-rate guard).
/// Round-synchronous progressive filling: each round saturates every link at
/// the current minimum fair share and freezes its flows, with the bottleneck
/// set determined before any capacity is subtracted, so the result does not
/// depend on flow order. O(rounds * flows * links).
[[nodiscard]] std::vector<double> max_min_fair_rates(const std::vector<FlowPath>& flows,
                                                     const std::vector<double>& link_capacity_mbps);

/// Incremental max-min fair solver over a fixed link set. Flows are keyed by
/// caller-chosen 64-bit ids (the TransferManager uses transfer ids). After
/// every mutation, `updated()` lists every flow of the re-solved bottleneck
/// component (including a newly added flow and excluding removed ones); all
/// other flows keep their previous rates, which match a from-scratch solve
/// bit-for-bit (see flow_sharing_test differential tests).
///
/// Each component keeps a record of its last progressive fill: the share of
/// every round, each flow's freeze round (flows kept in freeze order) and
/// each member link's (remaining, active) checkpoints. A mutation resumes
/// that fill at the first round it can change instead of re-solving the
/// component from round 0:
///  - add: the round the new flow freezes, found by replaying the record
///    with the flow as a phantom (the argument probe_rate() rests on);
///  - remove_batch: the earliest freeze round of the removed flows.
///    Before it, none of their links was in the bottleneck band, and
///    removing them only raises those links' ratios, so neither the round
///    share nor the band moves.
/// The record's link state at that round, shifted by the mutated flows'
/// crossings, restarts the unchanged fill loop over the flows that froze
/// there or later. An add that joins two components (or one without a
/// record) and a batch spanning several components take the from-scratch
/// path (BFS collection plus a fill from round 0). A removal that splits its
/// component keeps the resumed joint fill - exactly what the BFS from every
/// removed link would solve - and then drops the record, so the next
/// mutation of each part re-collects it from scratch.
class FairShareSolver {
 public:
  /// One entry of updated(): the re-solved flow, its new rate, and the
  /// caller's cookie from add(). The cookie spares the caller a hash lookup
  /// per re-keyed flow - at a thousand contending flows every mutation
  /// re-solves the whole component, so those lookups were a measurable slice
  /// of fair-mode wall time.
  struct UpdatedFlow {
    std::uint64_t id;
    double rate;
    void* user;
  };

  explicit FairShareSolver(std::vector<double> link_capacity_mbps);

  /// Adds a flow crossing `links` and re-solves its component. An empty path
  /// gets rate +inf and never interacts with other flows. Duplicate links in
  /// one path are counted per crossing (defensive; real routes are simple).
  /// `user` is an opaque cookie handed back in every updated() entry for this
  /// flow; it must stay valid for the flow's lifetime.
  /// Precondition: `id` not present.
  void add(std::uint64_t id, std::vector<LinkId> links, void* user = nullptr);

  /// Removes every flow in `ids` with a single re-solve of the union of the
  /// affected components (churn teardown: one solve, not one per flow).
  /// Precondition: all ids present, no duplicates.
  void remove_batch(const std::vector<std::uint64_t>& ids);

  /// Current rate of a present flow (Mb/s; +inf for empty paths).
  [[nodiscard]] double rate(std::uint64_t id) const;

  /// What-if probe: the max-min rate a *hypothetical* new flow crossing
  /// `links` would be allocated if it joined right now. Bit-identical to the
  /// rate `add()` would assign, but without mutating any observable solver
  /// state: no present flow's rate, path, or membership changes
  /// (property-tested via a state digest over 10k probes), and a subsequent
  /// mutation assigns the same rates as if the probe never ran. A probe may
  /// record a component that had no record, though, so that later mutation
  /// can take the resumed path instead of a full solve (resumed_solves() /
  /// full_solves() depend on the probe pattern). Empty `links` (loopback)
  /// returns +inf; a path crossing a saturated/zero-capacity link returns 0.
  ///
  /// Cost: O(rounds + path events), NOT a fresh component solve. The probe
  /// replays the touched component's fill record with the probe flow
  /// overlaid as a phantom. The replay is bit-exact by the phantom-flow
  /// prefix argument: until the probe flow itself saturates, its +1 on each
  /// crossed link either never sets the round share (so the real process is
  /// untouched) or does - in which case the probe freezes that very round and
  /// the answer is min(round share, probe ratio), exactly what the
  /// from-scratch loop returns. A component without a record (the parts of a
  /// split) gets one built on first probe. A path spanning several
  /// components (the phantom would merge them) and a component whose fill
  /// hit a defensive break fall back to probe_rate_reference(). Only mutable
  /// record/scratch state is touched, so this is const but NOT safe to call
  /// concurrently with any other member.
  [[nodiscard]] double probe_rate(const std::vector<LinkId>& links) const;

  /// The from-scratch probe: collects the component and runs the
  /// round-synchronous fill until the phantom flow freezes, exactly like
  /// add() would (early-out at the probe's freeze round). This is the slow
  /// path probe_rate() falls back to and its differential-test anchor. Same
  /// purity contract as probe_rate().
  [[nodiscard]] double probe_rate_reference(const std::vector<LinkId>& links) const;

  /// The from-scratch component solve: BFS-collects every flow reachable
  /// from `seed_links` and runs the reference fill (max_min_fair_rates) over
  /// exactly that set, returning (id, rate) sorted by id. This is what every
  /// mutation computed before fills were resumed, so after a mutation it
  /// must equal updated() bit-for-bit when seeded with the mutated flows'
  /// links. Touches only scratch; the differential-test anchor of the
  /// resumed solves (Debug builds also cross-check every 64th one).
  [[nodiscard]] std::vector<std::pair<std::uint64_t, double>> resolve_reference(
      const std::vector<LinkId>& seed_links) const;

  [[nodiscard]] std::size_t link_count() const { return caps_.size(); }

  /// Flows re-solved by the last add/remove_batch.
  /// Invalidated by the next mutation.
  [[nodiscard]] const std::vector<UpdatedFlow>& updated() const { return updated_; }

  /// Counter bumped by every observable mutation (add/remove_batch)
  /// and by NOTHING else - in particular not by probe_rate(), whose scratch
  /// epoch ticks on every call. Two probes of the same path between equal
  /// mutation stamps are guaranteed bit-identical, which is the invalidation
  /// key the TransferManager's probe cache is built on. (The internal
  /// `epoch_` cannot serve: it stamps solve scratch and therefore moves on
  /// const probes too.)
  [[nodiscard]] std::uint64_t mutation_stamp() const { return mutation_stamp_; }

  /// Mutations that resumed a component's recorded fill, and mutations that
  /// re-collected and re-solved from round 0 (merge, split remainder, no
  /// record, or a new component). Loopback adds and removals that empty a
  /// component solve nothing and count as neither. The split between the two
  /// depends on probes too: a probe that records a component lets its next
  /// mutation resume.
  [[nodiscard]] std::uint64_t resumed_solves() const { return resumed_solves_; }
  [[nodiscard]] std::uint64_t full_solves() const { return full_solves_; }

  /// From-scratch reference solve of the current flow set (id -> rate), in
  /// unspecified order. Test hook for incremental-vs-full differential checks.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, double>> full_solve() const;

 private:
  /// FlowRec::round of a flow the running fill has not frozen yet.
  static constexpr std::uint32_t kUnfrozen = 0xffffffffU;
  /// FlowRec::round of a flow being removed (skipped when a fill reopens).
  static constexpr std::uint32_t kRemoved = 0xfffffffeU;
  /// link_comp_ of a flowless link, or of a component without a record.
  static constexpr std::uint32_t kNoComp = 0xffffffffU;
  /// attach_component()'s answer for a path spanning several components, or
  /// one whose fill hit a defensive break: no single record replays it.
  static constexpr std::uint32_t kNoReplay = 0xfffffffeU;

  struct FlowRec {
    std::uint64_t id = 0;
    std::vector<LinkId> links;
    /// slot[k]: this flow's index in link_flows_[links[k]] (swap-erase keeps
    /// these in sync; duplicate links get one slot per crossing).
    std::vector<std::uint32_t> slot;
    double rate = 0.0;
    void* user = nullptr;  ///< caller cookie, echoed in updated()
    /// BFS epoch stamp (component collection). `mutable`: pure solve scratch,
    /// written by the const probe path too.
    mutable std::uint64_t mark = 0;
    /// Freeze round in its component's fill record. `mutable`: a const probe
    /// may build the record of a component that has none.
    mutable std::uint32_t round = kUnfrozen;
    mutable bool frozen = false;  ///< probe_rate_reference's freeze scratch
  };

  /// One entry of a link's flow set: the FlowRec (unordered_map nodes are
  /// address-stable, so the hot fill/collect loops dereference instead of
  /// hashing an id) plus which of the flow's path slots points back here (so
  /// swap-erase can fix the moved entry).
  struct LinkSlot {
    FlowRec* rec;
    std::uint32_t path_index;
  };

  /// A member link's fill state from the START of `round` on (until its next
  /// checkpoint). Every link's track opens with its round-0 state.
  struct LinkEvent {
    std::uint32_t round;
    std::int32_t active;
    double remaining;
  };

  /// The record of one component's last progressive fill. The per-link
  /// checkpoints live in track_ (a link belongs to at most one component).
  struct Component {
    std::vector<double> round_share;         ///< post-clamp share per round
    std::vector<std::uint32_t> round_first;  ///< index in flows of each round's first freeze
    std::vector<FlowRec*> flows;             ///< every member flow, in freeze order
    std::vector<std::uint32_t> links;        ///< every flowed member link
  };

  /// The phantom-replay answer: the rate and the round a flow on the grouped
  /// path (probe_cursors_) would freeze at.
  struct Replay {
    double rate;
    std::uint32_t round;
  };

  void unlink(FlowRec& rec);
  /// Collects the component(s) reachable from `seed_links` into comp_flows_ /
  /// comp_links_ (excluding flows already marked with the current epoch), and
  /// initializes the fill state in the same walk: every collected link gets
  /// remaining_ = cap and its active flow count. Returns how many separate
  /// flow components were found (seeds without flows start none). const:
  /// only epoch-stamped scratch and the mutable FlowRec marks move.
  std::size_t collect_component(const std::vector<LinkId>& seed_links) const;
  /// A fill from round 0 into a fresh record: `comp` (kNoComp when nothing
  /// was collected), whether every flow froze, and how many components the
  /// record spans.
  struct FreshFill {
    std::uint32_t comp;
    bool clean;
    std::size_t parts;
  };
  /// Collects the component(s) of `seed_links`, drops their records and
  /// fills them from round 0 into a new record. Writes no rate.
  FreshFill fill_from_scratch(const std::vector<LinkId>& seed_links) const;
  /// The from-scratch path: fill_from_scratch, then publishes every
  /// collected flow's rate to updated_. Keeps the record only when it is
  /// one clean component.
  void solve_from_scratch(const std::vector<LinkId>& seed_links);
  /// Resumes component `ci`'s fill at round `r0`: reopens the flows that
  /// froze at r0 or later (plus `added`), restores every member link's state
  /// at r0 shifted by link_delta_, runs the fill and publishes every member
  /// flow's rate to updated_. Returns false (record dropped) when the fill
  /// hit a defensive break.
  bool resume(std::uint32_t ci, std::uint32_t r0, FlowRec* added);
  /// Round-synchronous max-min fill from `round` over the scan set
  /// comp_links_ (remaining_/active_ seeded), freezing the `unfrozen` flows
  /// whose round is kUnfrozen and appending shares, freezes and link
  /// checkpoints to `c`. Returns true when every flow froze.
  bool fill(Component& c, std::uint32_t round, std::size_t unfrozen) const;
  /// Records the fill of the flow component containing the flowed link
  /// `seed` without touching any rate (a const probe's lazy build). Returns
  /// false when the fill hit a defensive break (nothing recorded).
  bool record_component(std::uint32_t seed) const;
  /// Allocates an empty component record labelled on comp_links_'s flowed
  /// links, each starting its track at the collected round-0 state.
  std::uint32_t new_component() const;
  void drop_component(std::uint32_t ci) const;
  /// Whether the distinct flowed links `targets` are still one component:
  /// a one-flow cover test, then a BFS from targets[0] that stops as soon as
  /// it has reached all the others.
  bool connected(const std::vector<std::uint32_t>& targets) const;
  /// Groups `links` into probe_cursors_ as (link, crossings).
  void group_path(const std::vector<LinkId>& links) const;
  /// The one component every flowed link of the grouped path belongs to,
  /// building a missing record; kNoComp when the path crosses only flowless
  /// links, kNoReplay when it spans several components or a fill hit a
  /// defensive break.
  std::uint32_t attach_component() const;
  /// Replays component `ci`'s record (kNoComp: none) with the grouped path
  /// overlaid as a phantom flow.
  Replay replay(std::uint32_t ci) const;
  /// Publishes the rates of `c`'s flows (and, when given, of the `leftover`
  /// flows a broken fill never froze, at rate 0) to updated_.
  void publish(const Component& c, const std::vector<FlowRec*>* leftover);
#ifndef NDEBUG
  /// Sampled Debug cross-check of a resumed solve against resolve_reference.
  void check_resumed(const std::vector<LinkId>& seed_links) const;
#endif

  std::vector<double> caps_;
  std::unordered_map<std::uint64_t, FlowRec> flows_;
  std::vector<std::vector<LinkSlot>> link_flows_;
  std::uint64_t mutation_stamp_ = 0;
  std::uint64_t resumed_solves_ = 0;
  std::uint64_t full_solves_ = 0;

  // --- fill records. `mutable`: probe_rate() builds the record of a
  // component that has none (a pure function of its flow set).
  mutable std::vector<Component> comps_;
  mutable std::vector<std::uint32_t> free_comps_;
  mutable std::vector<std::uint32_t> link_comp_;  ///< component record per link, or kNoComp
  mutable std::vector<std::vector<LinkEvent>> track_;  ///< member links' checkpoints
  /// Crossings the current mutation adds (+) or removes (-) per link, applied
  /// to the restored prefix checkpoints and reset by resume().
  std::vector<std::int32_t> link_delta_;

  // --- solve scratch (allocated once; epoch-stamped to avoid O(links)
  // clears). `mutable` so the side-effect-free probes can reuse the exact
  // machinery the mutating solves run on.
  mutable std::uint64_t epoch_ = 0;
  mutable std::vector<std::uint64_t> link_mark_;
  mutable std::vector<double> remaining_;
  mutable std::vector<int> active_;
  /// remaining_[l] / active_[l] memoized per link, refreshed only when a
  /// freeze touches the link, so the per-round share scan is one load instead
  /// of one divide per link. Valid only for links of the component being
  /// solved, between rounds (stale mid-round by design: the bottleneck mask
  /// must see the pre-round ratios).
  mutable std::vector<double> ratio_;
  mutable std::vector<char> bottleneck_;
  mutable std::vector<std::uint32_t> comp_links_;
  mutable std::vector<FlowRec*> comp_flows_;
  mutable std::vector<std::uint32_t> touched_;  ///< links hit by this round's freezes
  /// Dedupes touched_ within a round (touch_mark_[l] == touch_stamp_ means
  /// "already queued this round"), so a link crossed by many freezing flows
  /// gets one ratio refresh instead of one per crossing.
  mutable std::vector<std::uint64_t> touch_mark_;
  mutable std::uint64_t touch_stamp_ = 0;
  mutable std::vector<std::uint32_t> frontier_;  ///< connected()'s BFS queue
  std::vector<FlowRec*> reopened_;               ///< resume()'s refilled flows
  std::vector<FlowRec*> batch_;                  ///< remove_batch()'s records
  std::vector<std::uint32_t> seeds_;             ///< remove_batch()'s flowed links
  std::vector<UpdatedFlow> updated_;

  // scratch for probe_rate's replay: the path grouped to (link, crossings),
  // and the phantom-overlaid per-link replay cursors.
  struct ProbeCursor {
    std::uint32_t link;
    std::int32_t crossings;
    std::int32_t active;  ///< real active + crossings
    double remaining;
    std::uint32_t next;  ///< next unapplied checkpoint in track_[link]
    std::uint32_t end;
  };
  mutable std::vector<ProbeCursor> probe_cursors_;
  mutable std::uint64_t probe_count_ = 0;  ///< for the sampled debug cross-check
  mutable std::uint64_t resume_count_ = 0;  ///< for the sampled debug cross-check
};

}  // namespace dpjit::net
