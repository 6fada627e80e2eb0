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
/// every mutation, `updated()` lists the flows whose rate was re-solved (the
/// affected bottleneck component, including a newly added flow and excluding
/// removed ones); all other flows keep their previous rates, which match a
/// from-scratch solve bit-for-bit (see flow_sharing_test differential tests).
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

  /// Removes one flow and re-solves the component it belonged to.
  /// Precondition: `id` present.
  void remove(std::uint64_t id);

  /// Removes every flow in `ids` with a single re-solve of the union of the
  /// affected components (churn teardown: one solve, not one per flow).
  /// Precondition: all ids present, no duplicates.
  void remove_batch(const std::vector<std::uint64_t>& ids);

  /// Current rate of a present flow (Mb/s; +inf for empty paths).
  [[nodiscard]] double rate(std::uint64_t id) const;

  /// What-if probe: the max-min rate a *hypothetical* new flow crossing
  /// `links` would be allocated if it joined right now. Bit-identical to the
  /// rate `add()` would assign, but without mutating any observable solver
  /// state: no present flow's rate, path, or membership changes, and a
  /// subsequent mutation behaves exactly as if the probe never ran
  /// (property-tested via a state digest over 10k probes). Empty `links`
  /// (loopback) returns +inf; a path crossing a saturated/zero-capacity link
  /// returns 0.
  ///
  /// Cost: amortized O(rounds + path events), NOT a fresh component solve.
  /// The first probe after a mutation lazily builds a *probe schedule* for
  /// the touched component - a replay log of the unmodified progressive fill
  /// (per-round shares plus each link's (remaining, active) trajectory) - and
  /// every later probe against the same mutation stamp answers from it. The
  /// replay is bit-exact by the phantom-flow prefix argument: until the probe
  /// flow itself saturates, its +1 on each crossed link either never sets the
  /// round share (so the real process is untouched) or does - in which case
  /// the probe freezes that very round and the answer is min(round share,
  /// probe ratio), exactly what the from-scratch loop returns. Probes whose
  /// path spans two separate flow components (the phantom would merge them)
  /// fall back to probe_rate_reference(), as does any schedule that hit a
  /// defensive break while building. Only mutable cache/scratch state is
  /// touched, so this is const but NOT safe to call concurrently with any
  /// other member.
  [[nodiscard]] double probe_rate(const std::vector<LinkId>& links) const;

  /// The from-scratch probe: collects the component and runs the
  /// round-synchronous fill until the phantom flow freezes, exactly like
  /// add() would (early-out at the probe's freeze round). This is the slow
  /// path probe_rate() falls back to and its differential-test anchor. Same
  /// purity contract as probe_rate().
  [[nodiscard]] double probe_rate_reference(const std::vector<LinkId>& links) const;

  [[nodiscard]] bool contains(std::uint64_t id) const { return flows_.count(id) > 0; }
  [[nodiscard]] std::size_t flow_count() const { return flows_.size(); }
  [[nodiscard]] std::size_t link_count() const { return caps_.size(); }

  /// Flows re-solved by the last add/remove/remove_batch.
  /// Invalidated by the next mutation.
  [[nodiscard]] const std::vector<UpdatedFlow>& updated() const { return updated_; }

  /// Counter bumped by every observable mutation (add/remove/remove_batch)
  /// and by NOTHING else - in particular not by probe_rate(), whose scratch
  /// epoch ticks on every call. Two probes of the same path between equal
  /// mutation stamps are guaranteed bit-identical, which is the invalidation
  /// key the TransferManager's probe cache is built on. (The internal
  /// `epoch_` cannot serve: it stamps solve scratch and therefore moves on
  /// const probes too.)
  [[nodiscard]] std::uint64_t mutation_stamp() const { return mutation_stamp_; }

  /// From-scratch reference solve of the current flow set (id -> rate), in
  /// unspecified order. Test hook for incremental-vs-full differential checks.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, double>> full_solve() const;

 private:
  struct FlowRec {
    std::vector<LinkId> links;
    /// slot[k]: this flow's index in link_flows_[links[k]] (swap-erase keeps
    /// these in sync; duplicate links get one slot per crossing).
    std::vector<std::uint32_t> slot;
    double rate = 0.0;
    void* user = nullptr;  ///< caller cookie, echoed in updated()
    /// BFS epoch stamp (component collection). `mutable`: pure solve scratch,
    /// written by the const probe path too.
    mutable std::uint64_t mark = 0;
    mutable bool frozen = false;  ///< scratch of the current solve round
  };

  /// One entry of a link's flow set: the flow id plus which of the flow's
  /// path slots points back here (so swap-erase can fix the moved entry),
  /// plus the FlowRec itself (unordered_map nodes are address-stable, so the
  /// hot solve/collect loops dereference instead of re-hashing the id).
  struct LinkSlot {
    std::uint64_t flow;
    std::uint32_t path_index;
    FlowRec* rec;
  };

  /// Replay log of one component's unmodified progressive fill at a fixed
  /// mutation stamp: the share of every round, plus for each member link its
  /// initial (remaining=cap, active) state and the (round, remaining, active)
  /// checkpoints where a freeze changed it - everything a probe needs to
  /// re-run the fill with its phantom flow overlaid, without touching the
  /// real flow set.
  struct ProbeSchedule {
    struct LinkEvent {
      std::uint32_t round;  ///< state below holds from the START of this round
      std::int32_t active;
      double remaining;
    };
    struct LinkTrack {
      std::int32_t active0;
      std::uint32_t first;  ///< index of this link's events in `events`
      std::uint32_t count;
    };
    std::vector<double> round_share;  ///< post-clamp share per round
    std::vector<LinkEvent> events;    ///< grouped per link, round-ascending
    std::unordered_map<std::uint32_t, LinkTrack> links;
    bool clean = false;  ///< fill drained without hitting a defensive break
  };

  void unlink(FlowRec& rec);
  /// Collects the component(s) reachable from `seed_links` into comp_flows_ /
  /// comp_links_ (excluding flows already marked with the current epoch), and
  /// initializes the fill state in the same walk: every collected link gets
  /// remaining_ = cap and its active flow count, every collected flow gets
  /// frozen = false. const: only epoch-stamped scratch and the mutable
  /// FlowRec marks move.
  void collect_component(const std::vector<LinkId>& seed_links) const;
  /// Round-synchronous max-min solve restricted to the collected component;
  /// fills updated_ with the new rates.
  void solve_component();
  /// Builds (and caches) the ProbeSchedule of the flow component containing
  /// `seed` - a flowed link - labelling every member link with the schedule
  /// index for the current mutation stamp. Returns that index. const: replays
  /// the fill on the mutable scratch without writing any flow's rate.
  std::uint32_t build_probe_schedule(LinkId seed) const;

  std::vector<double> caps_;
  std::unordered_map<std::uint64_t, FlowRec> flows_;
  std::vector<std::vector<LinkSlot>> link_flows_;
  std::uint64_t mutation_stamp_ = 0;

  // --- solve scratch (allocated once; epoch-stamped to avoid O(links)
  // clears). `mutable` so the side-effect-free probe_rate() can reuse the
  // exact machinery the mutating solves run on.
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
  mutable std::vector<std::pair<std::uint64_t, FlowRec*>> comp_flows_;
  mutable std::vector<std::uint32_t> touched_;  ///< links hit by this round's freezes
  /// Dedupes touched_ within a round (touch_mark_[l] == touch_stamp_ means
  /// "already queued this round"), so a link crossed by many freezing flows
  /// gets one ratio refresh instead of one per crossing.
  mutable std::vector<std::uint64_t> touch_mark_;
  mutable std::uint64_t touch_stamp_ = 0;
  std::vector<UpdatedFlow> updated_;

  // --- probe-schedule cache, valid for one mutation stamp. link_sched_[l] =
  // (stamp+1, index into scheds_); the +1 keeps the zero-initialized state
  // invalid. Cleared lazily by the first probe after a mutation.
  mutable std::vector<ProbeSchedule> scheds_;
  mutable std::vector<std::pair<std::uint64_t, std::uint32_t>> link_sched_;
  mutable std::uint64_t sched_stamp_ = 0;  ///< mutation_stamp_ + 1 scheds_ is for
  // scratch for probe_rate's replay: the path grouped to (link, crossings),
  // and the phantom-overlaid per-link replay cursors.
  struct ProbeCursor {
    std::uint32_t link;
    std::int32_t crossings;
    std::int32_t active;  ///< real active + crossings
    double remaining;
    std::uint32_t next;  ///< next unapplied event index in the schedule
    std::uint32_t end;
  };
  mutable std::vector<ProbeCursor> probe_cursors_;
  mutable std::uint64_t probe_count_ = 0;  ///< for the sampled debug cross-check
};

}  // namespace dpjit::net
