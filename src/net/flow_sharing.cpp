#include "net/flow_sharing.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace dpjit::net {
namespace {

/// Relative slack when testing whether a link saturates at the current round
/// share: keeps ties robust against last-ulp division noise. Links within
/// this band of the minimum freeze together (round-synchronously), which is
/// what makes the result independent of flow order.
constexpr double kShareTolerance = 1e-12;


}  // namespace

std::vector<double> max_min_fair_rates(const std::vector<FlowPath>& flows,
                                       const std::vector<double>& link_capacity_mbps) {
  const std::size_t nf = flows.size();
  std::vector<double> rate(nf, 0.0);
  std::vector<char> frozen(nf, 0);

  // Remaining capacity per link and the number of unfrozen flows crossing it.
  std::vector<double> remaining = link_capacity_mbps;
  std::vector<int> active_count(link_capacity_mbps.size(), 0);
  std::vector<char> bottleneck(link_capacity_mbps.size(), 0);

  std::size_t unfrozen = 0;
  for (std::size_t f = 0; f < nf; ++f) {
    if (flows[f].links.empty()) {
      rate[f] = kInf;  // loopback: no shared resource
      frozen[f] = 1;
      continue;
    }
    ++unfrozen;
    for (LinkId l : flows[f].links) {
      assert(l.valid() && static_cast<std::size_t>(l.get()) < link_capacity_mbps.size());
      ++active_count[static_cast<std::size_t>(l.get())];
    }
  }

  while (unfrozen > 0) {
    // Find the smallest fair share among links carrying unfrozen flows.
    double share = std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < remaining.size(); ++l) {
      if (active_count[l] > 0) {
        share = std::min(share, remaining[l] / active_count[l]);
      }
    }
    if (!std::isfinite(share)) break;  // defensive: no constrained link left
    share = std::max(share, 0.0);

    // Round-synchronous freeze: mark every link that saturates at `share`
    // BEFORE subtracting any capacity. A link with ratio > share keeps
    // ratio > share under the subtractions below, so computing the mask from
    // pre-round state is what a sequential freeze gets wrong: mid-round
    // mutation can flip near-tie comparisons depending on flow order.
    for (std::size_t l = 0; l < remaining.size(); ++l) {
      bottleneck[l] = active_count[l] > 0 &&
                      remaining[l] / active_count[l] <= share * (1.0 + kShareTolerance);
    }

    bool froze_any = false;
    for (std::size_t f = 0; f < nf; ++f) {
      if (frozen[f]) continue;
      bool bottlenecked = false;
      for (LinkId l : flows[f].links) {
        if (bottleneck[static_cast<std::size_t>(l.get())]) {
          bottlenecked = true;
          break;
        }
      }
      if (!bottlenecked) continue;
      rate[f] = share;
      frozen[f] = 1;
      froze_any = true;
      --unfrozen;
      for (LinkId l : flows[f].links) {
        const auto li = static_cast<std::size_t>(l.get());
        remaining[li] -= share;
        if (remaining[li] < 0.0) remaining[li] = 0.0;
        --active_count[li];
      }
    }
    if (!froze_any) break;  // defensive: numerical stalemate
  }
  return rate;
}

// ---------------------------------------------------------------------------
// FairShareSolver
// ---------------------------------------------------------------------------

FairShareSolver::FairShareSolver(std::vector<double> link_capacity_mbps)
    : caps_(std::move(link_capacity_mbps)),
      link_flows_(caps_.size()),
      link_comp_(caps_.size(), kNoComp),
      track_(caps_.size()),
      link_delta_(caps_.size(), 0),
      link_mark_(caps_.size(), 0),
      remaining_(caps_.size(), 0.0),
      active_(caps_.size(), 0),
      ratio_(caps_.size(), 0.0),
      bottleneck_(caps_.size(), 0),
      touch_mark_(caps_.size(), 0) {}

void FairShareSolver::add(std::uint64_t id, std::vector<LinkId> links, void* user) {
  ++mutation_stamp_;
  auto [it, inserted] = flows_.emplace(id, FlowRec{});
  assert(inserted && "FairShareSolver::add: duplicate flow id");
  (void)inserted;
  FlowRec& rec = it->second;
  rec.id = id;
  rec.links = std::move(links);
  rec.user = user;
  if (rec.links.empty()) {
    rec.rate = kInf;  // loopback: no shared resource, no component
    updated_.clear();
    updated_.push_back(UpdatedFlow{id, kInf, user});
    return;
  }

  // The flow resumes a record when every flowed link of its path belongs to
  // one recorded component. A path over flowless links only starts a new
  // component; one touching two components (or one without a record) merges
  // them. Both re-collect from scratch.
  group_path(rec.links);
  std::uint32_t ci = kNoComp;
  bool resumable = true;
  for (const ProbeCursor& c : probe_cursors_) {
    if (link_flows_[c.link].empty()) continue;
    const std::uint32_t lc = link_comp_[c.link];
    if (lc == kNoComp || (ci != kNoComp && lc != ci)) {
      resumable = false;
      break;
    }
    ci = lc;
  }
  // The round the flow freezes at: the rounds before it are untouched.
  std::uint32_t r0 = 0;
  if (resumable && ci != kNoComp) r0 = replay(ci).round;

  rec.slot.resize(rec.links.size());
  for (std::size_t k = 0; k < rec.links.size(); ++k) {
    const LinkId l = rec.links[k];
    assert(l.valid() && static_cast<std::size_t>(l.get()) < caps_.size());
    auto& slots = link_flows_[static_cast<std::size_t>(l.get())];
    rec.slot[k] = static_cast<std::uint32_t>(slots.size());
    slots.push_back(LinkSlot{&rec, static_cast<std::uint32_t>(k)});
  }
  if (!resumable || ci == kNoComp) {
    ++full_solves_;
    solve_from_scratch(rec.links);
    return;
  }

  ++resumed_solves_;
  for (const ProbeCursor& c : probe_cursors_) {
    link_delta_[c.link] += c.crossings;
    if (link_comp_[c.link] == kNoComp) {  // a flowless link joins the component
      link_comp_[c.link] = ci;
      comps_[ci].links.push_back(c.link);
      track_[c.link].assign(1, LinkEvent{0, 0, caps_[c.link]});
    }
  }
  resume(ci, r0, &rec);
#ifndef NDEBUG
  check_resumed(rec.links);
#endif
}

void FairShareSolver::unlink(FlowRec& rec) {
  for (std::size_t k = 0; k < rec.links.size(); ++k) {
    auto& slots = link_flows_[static_cast<std::size_t>(rec.links[k].get())];
    const std::uint32_t s = rec.slot[k];
    assert(s < slots.size());
    slots[s] = slots.back();
    slots.pop_back();
    if (s < slots.size()) {
      // Fix the back-pointer of the entry that swap-erase moved into slot s
      // (it may belong to this very flow when the path crosses a link twice).
      const LinkSlot moved = slots[s];
      moved.rec->slot[moved.path_index] = s;
    }
  }
}

void FairShareSolver::remove_batch(const std::vector<std::uint64_t>& ids) {
  ++mutation_stamp_;
  // The batch resumes when every removed path lies in one recorded
  // component, at the earliest freeze round among the removed flows.
  batch_.clear();
  std::uint32_t ci = kNoComp;
  bool resumable = true;
  std::uint32_t r0 = kUnfrozen;
  for (const std::uint64_t id : ids) {
    const auto it = flows_.find(id);
    assert(it != flows_.end() && "FairShareSolver::remove_batch: unknown flow id");
    FlowRec& rec = it->second;
    batch_.push_back(&rec);
    if (rec.links.empty()) continue;  // loopback: in no component
    const std::uint32_t lc = link_comp_[static_cast<std::size_t>(rec.links.front().get())];
    if (lc == kNoComp || (ci != kNoComp && lc != ci)) resumable = false;
    ci = lc;
    r0 = std::min(r0, rec.round);
  }
  std::vector<LinkId> seed;
  for (FlowRec* rec : batch_) {
    unlink(*rec);
    seed.insert(seed.end(), rec->links.begin(), rec->links.end());
    if (!resumable) continue;
    for (const LinkId l : rec->links) --link_delta_[static_cast<std::size_t>(l.get())];
    rec->round = kRemoved;
  }
  const auto erase_batch = [this, &ids] {
    for (const std::uint64_t id : ids) flows_.erase(id);
  };
  if (!resumable) {
    erase_batch();
    ++full_solves_;
    solve_from_scratch(seed);
    return;
  }
  updated_.clear();
  if (ci == kNoComp) {  // loopback flows only
    erase_batch();
    return;
  }

  // The removed flows' links that still carry flows: every part the
  // component may split into touches one of them.
  seeds_.clear();
  ++epoch_;
  for (const LinkId l : seed) {
    const auto li = static_cast<std::uint32_t>(l.get());
    if (link_mark_[li] == epoch_) continue;
    link_mark_[li] = epoch_;
    if (!link_flows_[li].empty()) seeds_.push_back(li);
  }
  if (seeds_.empty()) {  // the batch removed the whole component
    for (const LinkId l : seed) link_delta_[static_cast<std::size_t>(l.get())] = 0;
    drop_component(ci);
    erase_batch();
    return;
  }

  ++resumed_solves_;
  if (resume(ci, r0, nullptr) && !connected(seeds_)) {
    // Split: the resumed fill is the joint fill over every part, exactly
    // what the BFS from all removed links solves; but it is the record of
    // no single part, so each re-collects at its next mutation.
    drop_component(ci);
  }
  erase_batch();
#ifndef NDEBUG
  check_resumed(seed);
#endif
}

double FairShareSolver::rate(std::uint64_t id) const {
  const auto it = flows_.find(id);
  assert(it != flows_.end() && "FairShareSolver::rate: unknown flow id");
  return it->second.rate;
}

std::size_t FairShareSolver::collect_component(const std::vector<LinkId>& seed_links) const {
  comp_links_.clear();
  comp_flows_.clear();
  std::size_t parts = 0;
  // One BFS over the flow/link sharing graph per not-yet-reached seed;
  // comp_links_ doubles as the frontier. The fill state is seeded in the same
  // walk (reset at link discovery, one active increment per crossing at flow
  // discovery), so the solve paths start without another pass over the
  // component's flow paths.
  for (const LinkId seed : seed_links) {
    const auto si = static_cast<std::uint32_t>(seed.get());
    if (link_mark_[si] == epoch_) continue;
    link_mark_[si] = epoch_;
    remaining_[si] = caps_[si];
    active_[si] = 0;
    std::size_t head = comp_links_.size();
    comp_links_.push_back(si);
    if (!link_flows_[si].empty()) ++parts;
    for (; head < comp_links_.size(); ++head) {
      for (const LinkSlot& s : link_flows_[comp_links_[head]]) {
        FlowRec& f = *s.rec;
        if (f.mark == epoch_) continue;
        f.mark = epoch_;
        comp_flows_.push_back(&f);
        for (const LinkId fl : f.links) {
          const auto li = static_cast<std::uint32_t>(fl.get());
          if (link_mark_[li] != epoch_) {
            link_mark_[li] = epoch_;
            remaining_[li] = caps_[li];
            active_[li] = 0;
            comp_links_.push_back(li);
          }
          ++active_[li];
        }
      }
    }
  }
  return parts;
}

FairShareSolver::FreshFill FairShareSolver::fill_from_scratch(
    const std::vector<LinkId>& seed_links) const {
  ++epoch_;
  const std::size_t parts = collect_component(seed_links);
  // The collected components are re-filled (and merged) here; their old
  // records describe flow sets that no longer exist.
  for (const std::uint32_t li : comp_links_) {
    if (link_comp_[li] != kNoComp) drop_component(link_comp_[li]);
  }
  if (comp_flows_.empty()) return FreshFill{kNoComp, true, 0};
  for (FlowRec* f : comp_flows_) f->round = kUnfrozen;
  const std::uint32_t ci = new_component();
  return FreshFill{ci, fill(comps_[ci], 0, comp_flows_.size()), parts};
}

void FairShareSolver::solve_from_scratch(const std::vector<LinkId>& seed_links) {
  const FreshFill r = fill_from_scratch(seed_links);
  updated_.clear();
  if (r.comp == kNoComp) return;
  publish(comps_[r.comp], r.clean ? nullptr : &comp_flows_);
  // Several parts (a removal that split its component) were filled jointly:
  // that is the record of none of them.
  if (!r.clean || r.parts > 1) drop_component(r.comp);
}

bool FairShareSolver::resume(std::uint32_t ci, std::uint32_t r0, FlowRec* added) {
  Component& c = comps_[ci];
  assert(r0 <= c.round_share.size());
  // Reopen the flows that froze at r0 or later; the prefix keeps its rounds.
  const std::size_t first = r0 < c.round_first.size() ? c.round_first[r0] : c.flows.size();
  reopened_.clear();
  for (std::size_t i = first; i < c.flows.size(); ++i) {
    FlowRec* f = c.flows[i];
    if (f->round == kRemoved) continue;
    f->round = kUnfrozen;
    reopened_.push_back(f);
  }
  if (added != nullptr) {
    added->round = kUnfrozen;
    reopened_.push_back(added);
  }
  c.flows.resize(first);
  c.round_first.resize(r0);
  c.round_share.resize(r0);

  // Restore every member link's state at the start of r0. The mutated flows
  // were active through every earlier round, so their crossings shift the
  // active count of each prefix checkpoint of their links; the remaining
  // capacities are untouched (a flow subtracts only from its freeze round
  // on). Links the mutation left without flows leave the component.
  comp_links_.clear();
  std::size_t keep = 0;
  for (const std::uint32_t li : c.links) {
    const std::int32_t delta = link_delta_[li];
    link_delta_[li] = 0;
    if (link_flows_[li].empty()) {
      link_comp_[li] = kNoComp;
      continue;
    }
    c.links[keep++] = li;
    std::vector<LinkEvent>& track = track_[li];
    while (track.back().round > r0) track.pop_back();
    if (delta != 0) {
      for (LinkEvent& e : track) e.active += delta;
    }
    remaining_[li] = track.back().remaining;
    active_[li] = track.back().active;
    if (active_[li] > 0) comp_links_.push_back(li);
  }
  c.links.resize(keep);

  const bool clean = fill(c, r0, reopened_.size());
  publish(c, clean ? nullptr : &reopened_);
  if (!clean) drop_component(ci);
  return clean;
}

bool FairShareSolver::fill(Component& c, std::uint32_t round, std::size_t unfrozen) const {
  // Same round-synchronous progressive filling as max_min_fair_rates, but
  // restricted to one component and freezing flows through the per-link flow
  // sets. Disjoint components are independent subproblems, so the rates
  // computed here are the ones a full solve would assign: the per-round
  // shares of a component are computed from per-link state only its own
  // flows mutate, and every flow frozen in a round subtracts the same share
  // value, making the arithmetic identical operation-for-operation. (Sole
  // caveat: a cross-component tie within kShareTolerance can merge two
  // freeze rounds in the full solve; capacities that close are last-ulp
  // noise, and the differential tests exercise exactly this equivalence.)
  //
  // Three constant-factor devices, each provably bit-neutral:
  //  - ratio_ memoizes remaining/active per link, refreshed only for links a
  //    freeze touched (same operands -> same quotient as dividing fresh);
  //  - links whose active count hits 0 are compacted out of comp_links_
  //    during the share scan (a drained link can never regain a flow);
  //  - the bottleneck mask is fused into the freeze scan: ratio_ is frozen
  //    for the duration of a round, so testing it mid-scan reads exactly the
  //    pre-round state the two-pass mask was computed from, and the frozen
  //    SET is therefore identical; within a round the subtractions commute
  //    (every freeze subtracts the same share, clamped at 0).
  // The caller seeded remaining_/active_ of the scan set; only the ratio
  // cache needs seeding here.
  std::size_t alive = 0;
  for (const std::uint32_t li : comp_links_) {
    if (active_[li] == 0) continue;  // seed of a removed flow: no carriers left
    ratio_[li] = remaining_[li] / active_[li];
    comp_links_[alive++] = li;
  }
  comp_links_.resize(alive);

  // Near/far water-level partition. Per-link ratios are non-decreasing over
  // rounds (an unfrozen link has remaining/active > share, and
  // (R - k*s)/(A - k) > R/A whenever R/A > s), so the round share sweeps
  // upward through the ratio levels. Keeping only the kNearTarget
  // smallest-ratio links in a "near" scan set and remembering far_min, the
  // exact minimum over the rest, lets each round scan O(kNearTarget) links:
  // while share * (1 + tol) stays below far_min's guard, the near minimum IS
  // the global minimum (every far ratio only rose since the partition) and no
  // far link can be in the bottleneck band, so the round is bit-identical to
  // a full scan. The kFarGuard margin (1e-9, versus ~1e-15 of accumulated
  // rounding on a ratio) keeps an ulp-level dip of a far ratio below its
  // recorded floor from ever being mistaken for "still above the near
  // minimum". When the trigger fires, the round falls back to a full scan
  // and the partition is rebuilt from post-round ratios.
  constexpr std::size_t kNearTarget = 64;
  constexpr double kFarGuard = 1.0 - 1e-9;
  std::size_t near_n = 0;  // comp_links_[0..near_n) is the near set
  double far_trip = -std::numeric_limits<double>::infinity();

  while (unfrozen > 0) {
    double share = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < near_n;) {
      const std::uint32_t li = comp_links_[i];
      if (active_[li] == 0) {  // drained by an earlier round; never refills
        comp_links_[i] = comp_links_[--near_n];
        comp_links_[near_n] = comp_links_.back();
        comp_links_.pop_back();
        continue;
      }
      share = std::min(share, ratio_[li]);
      ++i;
    }
    const bool full_round = !(share * (1.0 + kShareTolerance) < far_trip);
    if (full_round) {
      // Near set exhausted or the water level reached the far band: rescan
      // everything (this also compacts links drained while far).
      share = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < comp_links_.size();) {
        const std::uint32_t li = comp_links_[i];
        if (active_[li] == 0) {
          comp_links_[i] = comp_links_.back();
          comp_links_.pop_back();
          continue;
        }
        share = std::min(share, ratio_[li]);
        ++i;
      }
    }
    if (!std::isfinite(share)) return false;  // defensive: no constrained link left
    share = std::max(share, 0.0);
    const double band = share * (1.0 + kShareTolerance);
    c.round_first.push_back(static_cast<std::uint32_t>(c.flows.size()));
    c.round_share.push_back(share);

    bool froze_any = false;
    touched_.clear();
    ++touch_stamp_;
    const std::size_t scan_n = full_round ? comp_links_.size() : near_n;
    for (std::size_t i = 0; i < scan_n; ++i) {
      const std::uint32_t li = comp_links_[i];
      if (ratio_[li] > band) continue;  // not a bottleneck this round
      for (const LinkSlot& s : link_flows_[li]) {
        FlowRec& f = *s.rec;
        if (f.round != kUnfrozen) continue;
        f.round = round;
        c.flows.push_back(&f);
        froze_any = true;
        --unfrozen;
        for (const LinkId fl : f.links) {
          const auto i2 = static_cast<std::size_t>(fl.get());
          remaining_[i2] -= share;
          if (remaining_[i2] < 0.0) remaining_[i2] = 0.0;
          --active_[i2];
          if (touch_mark_[i2] != touch_stamp_) {
            touch_mark_[i2] = touch_stamp_;
            touched_.push_back(static_cast<std::uint32_t>(i2));
          }
        }
      }
    }
    if (!froze_any) return false;  // defensive: numerical stalemate
    ++round;
    // Checkpoint every link this round's freezes changed: the state holds
    // from the start of the next round.
    for (const std::uint32_t li : touched_) {
      if (active_[li] > 0) ratio_[li] = remaining_[li] / active_[li];
      track_[li].push_back(LinkEvent{round, active_[li], remaining_[li]});
    }
    if (full_round) {
      // Rebuild the partition from post-round ratios. Links drained this
      // round may land on either side with a stale ratio; the near scan
      // compacts them and the far minimum skips them.
      if (comp_links_.size() <= kNearTarget * 2) {
        near_n = comp_links_.size();
        far_trip = kInf;  // no far set: every round is a near round
      } else {
        std::nth_element(comp_links_.begin(),
                         comp_links_.begin() + static_cast<std::ptrdiff_t>(kNearTarget),
                         comp_links_.end(), [this](std::uint32_t a, std::uint32_t b) {
                           return ratio_[a] < ratio_[b];
                         });
        near_n = kNearTarget;
        double far_min = std::numeric_limits<double>::infinity();
        for (std::size_t i = kNearTarget; i < comp_links_.size(); ++i) {
          const std::uint32_t li = comp_links_[i];
          if (active_[li] > 0) far_min = std::min(far_min, ratio_[li]);
        }
        far_trip = far_min * kFarGuard;
      }
    }
  }
  return true;
}

void FairShareSolver::publish(const Component& c, const std::vector<FlowRec*>* leftover) {
  updated_.clear();
  for (FlowRec* f : c.flows) {
    f->rate = c.round_share[f->round];
    updated_.push_back(UpdatedFlow{f->id, f->rate, f->user});
  }
  if (leftover == nullptr) return;
  for (FlowRec* f : *leftover) {
    if (f->round != kUnfrozen) continue;
    f->rate = 0.0;  // stalemate fallback, mirrors the reference
    updated_.push_back(UpdatedFlow{f->id, 0.0, f->user});
  }
}

std::uint32_t FairShareSolver::new_component() const {
  std::uint32_t ci;
  if (free_comps_.empty()) {
    ci = static_cast<std::uint32_t>(comps_.size());
    comps_.emplace_back();
  } else {
    ci = free_comps_.back();
    free_comps_.pop_back();
  }
  Component& c = comps_[ci];
  for (const std::uint32_t li : comp_links_) {
    if (active_[li] == 0) continue;  // a removed flow's seed link: no carriers
    link_comp_[li] = ci;
    c.links.push_back(li);
    track_[li].assign(1, LinkEvent{0, active_[li], remaining_[li]});
  }
  return ci;
}

void FairShareSolver::drop_component(std::uint32_t ci) const {
  Component& c = comps_[ci];
  for (const std::uint32_t li : c.links) link_comp_[li] = kNoComp;
  c.round_share.clear();
  c.round_first.clear();
  c.flows.clear();
  c.links.clear();
  free_comps_.push_back(ci);
}

bool FairShareSolver::record_component(std::uint32_t seed) const {
  const FreshFill r = fill_from_scratch({LinkId(static_cast<LinkId::underlying_type>(seed))});
  if (r.clean) return true;
  drop_component(r.comp);
  return false;
}

bool FairShareSolver::connected(const std::vector<std::uint32_t>& targets) const {
  if (targets.size() <= 1) return true;
  // Cheap sufficient test: one surviving flow crosses every target.
  const FlowRec& cover = *link_flows_[targets.front()].front().rec;
  bool covered = true;
  for (std::size_t k = 1; k < targets.size() && covered; ++k) {
    covered = std::any_of(cover.links.begin(), cover.links.end(), [&](LinkId l) {
      return static_cast<std::uint32_t>(l.get()) == targets[k];
    });
  }
  if (covered) return true;

  // BFS from the first target, stopping once it has reached the others.
  const std::uint64_t target_mark = ++epoch_;
  for (const std::uint32_t li : targets) link_mark_[li] = target_mark;
  const std::uint64_t visit = ++epoch_;
  std::size_t missing = targets.size() - 1;
  link_mark_[targets.front()] = visit;
  frontier_.assign(1, targets.front());
  for (std::size_t head = 0; head < frontier_.size(); ++head) {
    for (const LinkSlot& s : link_flows_[frontier_[head]]) {
      const FlowRec& f = *s.rec;
      if (f.mark == visit) continue;
      f.mark = visit;
      for (const LinkId fl : f.links) {
        const auto li = static_cast<std::uint32_t>(fl.get());
        if (link_mark_[li] == visit) continue;
        if (link_mark_[li] == target_mark && --missing == 0) return true;
        link_mark_[li] = visit;
        frontier_.push_back(li);
      }
    }
  }
  return false;
}

void FairShareSolver::group_path(const std::vector<LinkId>& links) const {
  // add() counts one active per crossing, so the phantom overlay must too.
  // Paths are short; quadratic grouping beats sorting here.
  probe_cursors_.clear();
  for (const LinkId l : links) {
    assert(l.valid() && static_cast<std::size_t>(l.get()) < caps_.size());
    const auto li = static_cast<std::uint32_t>(l.get());
    bool grouped = false;
    for (ProbeCursor& c : probe_cursors_) {
      if (c.link == li) {
        ++c.crossings;
        grouped = true;
        break;
      }
    }
    if (!grouped) probe_cursors_.push_back(ProbeCursor{li, 1, 0, 0.0, 0, 0});
  }
}

std::uint32_t FairShareSolver::attach_component() const {
  std::uint32_t ci = kNoComp;
  for (const ProbeCursor& pc : probe_cursors_) {
    if (link_flows_[pc.link].empty()) continue;  // flowless: plain capacity
    if (link_comp_[pc.link] == kNoComp && !record_component(pc.link)) return kNoReplay;
    const std::uint32_t lc = link_comp_[pc.link];
    if (ci != kNoComp && lc != ci) return kNoReplay;  // the phantom would merge them
    ci = lc;
  }
  return ci;
}

FairShareSolver::Replay FairShareSolver::replay(std::uint32_t ci) const {
  // Attach each cursor: member links replay their recorded checkpoints with
  // the phantom crossings overlaid on the active count; flowless links are
  // constant (cap, crossings) states.
  for (ProbeCursor& pc : probe_cursors_) {
    if (link_flows_[pc.link].empty()) {
      pc.active = pc.crossings;
      pc.remaining = caps_[pc.link];
      pc.next = pc.end = 0;
    } else {
      const std::vector<LinkEvent>& track = track_[pc.link];
      pc.active = track.front().active + pc.crossings;
      pc.remaining = track.front().remaining;
      pc.next = 1;
      pc.end = static_cast<std::uint32_t>(track.size());
    }
  }
  const auto ratio_min = [this] {
    double m = std::numeric_limits<double>::infinity();
    for (const ProbeCursor& pc : probe_cursors_) m = std::min(m, pc.remaining / pc.active);
    return m;
  };

  // Walk the recorded rounds. m is the phantom flow's own bottleneck ratio
  // (min over its links of remaining/active-with-phantom). The phantom's
  // extra crossings only ever LOWER ratios of links it crosses, so until the
  // freeze test below fires, the recorded process and the phantom-modified
  // process are bit-identical; the round it fires, the modified round share
  // is min(S, m) and the phantom is in the bottleneck mask - exactly the
  // reference's early return.
  double m = ratio_min();
  const std::uint32_t rounds =
      ci == kNoComp ? 0 : static_cast<std::uint32_t>(comps_[ci].round_share.size());
  for (std::uint32_t round = 0; round < rounds; ++round) {
    const double share = comps_[ci].round_share[round];
    if (m <= share * (1.0 + kShareTolerance)) return Replay{std::min(share, m), round};
    bool moved = false;
    for (ProbeCursor& pc : probe_cursors_) {
      const std::vector<LinkEvent>& track = track_[pc.link];
      while (pc.next != pc.end && track[pc.next].round == round + 1) {
        pc.remaining = track[pc.next].remaining;
        pc.active = track[pc.next].active + pc.crossings;
        ++pc.next;
        moved = true;
      }
    }
    if (moved) m = ratio_min();
  }
  // Drained: every real flow froze without saturating the phantom. The next
  // round has only the phantom active; its share is the phantom's final
  // bottleneck.
  return Replay{std::max(m, 0.0), rounds};
}

double FairShareSolver::probe_rate(const std::vector<LinkId>& links) const {
  if (links.empty()) return kInf;  // loopback: no shared resource
  group_path(links);
  const std::uint32_t ci = attach_component();
  if (ci == kNoReplay) return probe_rate_reference(links);
  const double result = replay(ci).rate;

#ifndef NDEBUG
  // Sampled differential check: the replay must match the from-scratch probe
  // bit-for-bit. Cheap enough to leave on in every debug run.
  if ((++probe_count_ & 63u) == 0) {
    assert(result == probe_rate_reference(links) &&
           "probe record replay diverged from the from-scratch probe");
  }
#endif
  return result;
}

double FairShareSolver::probe_rate_reference(const std::vector<LinkId>& links) const {
  if (links.empty()) return kInf;  // loopback: no shared resource
  ++epoch_;
  collect_component(links);

  // Mirror the progressive fill's initialization, with the probe flow's
  // crossings counted into the active sets but the flow itself kept phantom:
  // it never enters link_flows_, so the freeze scan below only ever touches
  // real flows. Every arithmetic operation up to the probe flow's freeze
  // round is then operation-for-operation identical to what add() would do,
  // which is what makes probe == rate-after-add bit-exact. (This is the
  // pre-record implementation, kept verbatim: the slow-path fallback and
  // the differential anchor for probe_rate().)
  for (const std::uint32_t li : comp_links_) {
    remaining_[li] = caps_[li];
    active_[li] = 0;
    bottleneck_[li] = 0;
  }
  for (const FlowRec* f : comp_flows_) {
    f->frozen = false;
    for (const LinkId l : f->links) ++active_[static_cast<std::size_t>(l.get())];
  }
  for (const LinkId l : links) {
    assert(l.valid() && static_cast<std::size_t>(l.get()) < caps_.size());
    ++active_[static_cast<std::size_t>(l.get())];
  }

  while (true) {
    double share = std::numeric_limits<double>::infinity();
    for (const std::uint32_t li : comp_links_) {
      if (active_[li] > 0) share = std::min(share, remaining_[li] / active_[li]);
    }
    // The probe flow keeps every link it crosses active until it freezes, so
    // `share` stays finite; guard anyway to mirror the solver's defense.
    if (!std::isfinite(share)) return 0.0;
    share = std::max(share, 0.0);

    for (const std::uint32_t li : comp_links_) {
      bottleneck_[li] =
          active_[li] > 0 && remaining_[li] / active_[li] <= share * (1.0 + kShareTolerance);
    }

    // The probe flow freezes (at exactly this round's share) as soon as any
    // of its links is in the bottleneck mask - the same round-synchronous
    // condition add()'s solve applies to the real flow.
    for (const LinkId l : links) {
      if (bottleneck_[static_cast<std::size_t>(l.get())]) return share;
    }

    bool froze_any = false;
    for (const std::uint32_t li : comp_links_) {
      if (!bottleneck_[li]) continue;
      for (const LinkSlot& s : link_flows_[li]) {
        const FlowRec& f = *s.rec;
        if (f.frozen) continue;
        f.frozen = true;
        froze_any = true;
        for (const LinkId fl : f.links) {
          const auto i = static_cast<std::size_t>(fl.get());
          remaining_[i] -= share;
          if (remaining_[i] < 0.0) remaining_[i] = 0.0;
          --active_[i];
        }
      }
    }
    if (!froze_any) return 0.0;  // numerical stalemate: mirrors the 0-rate fallback
  }
}

std::vector<std::pair<std::uint64_t, double>> FairShareSolver::resolve_reference(
    const std::vector<LinkId>& seed_links) const {
  ++epoch_;
  collect_component(seed_links);
  // Re-index the component's links densely for the stateless reference.
  std::unordered_map<std::uint32_t, LinkId::underlying_type> local;
  std::vector<double> caps;
  for (const std::uint32_t li : comp_links_) {
    local.emplace(li, static_cast<LinkId::underlying_type>(caps.size()));
    caps.push_back(caps_[li]);
  }
  std::vector<FlowPath> paths;
  paths.reserve(comp_flows_.size());
  for (const FlowRec* f : comp_flows_) {
    FlowPath p;
    for (const LinkId l : f->links) p.links.emplace_back(local.at(static_cast<std::uint32_t>(l.get())));
    paths.push_back(std::move(p));
  }
  const auto rates = max_min_fair_rates(paths, caps);
  std::vector<std::pair<std::uint64_t, double>> out;
  out.reserve(rates.size());
  for (std::size_t i = 0; i < rates.size(); ++i) out.emplace_back(comp_flows_[i]->id, rates[i]);
  std::sort(out.begin(), out.end());
  return out;
}

#ifndef NDEBUG
void FairShareSolver::check_resumed(const std::vector<LinkId>& seed_links) const {
  // Sampled differential check: a resumed solve must publish exactly the
  // rates the from-scratch component solve computes, bit for bit.
  if ((++resume_count_ & 63u) != 0) return;
  std::vector<std::pair<std::uint64_t, double>> got;
  got.reserve(updated_.size());
  for (const UpdatedFlow& u : updated_) got.emplace_back(u.id, u.rate);
  std::sort(got.begin(), got.end());
  assert(got == resolve_reference(seed_links) &&
         "resumed fill diverged from the from-scratch component solve");
}
#endif

std::vector<std::pair<std::uint64_t, double>> FairShareSolver::full_solve() const {
  std::vector<std::uint64_t> ids;
  std::vector<FlowPath> paths;
  ids.reserve(flows_.size());
  paths.reserve(flows_.size());
  for (const auto& [id, rec] : flows_) {
    ids.push_back(id);
    paths.push_back(FlowPath{rec.links});
  }
  const auto rates = max_min_fair_rates(paths, caps_);
  std::vector<std::pair<std::uint64_t, double>> out;
  out.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) out.emplace_back(ids[i], rates[i]);
  return out;
}

}  // namespace dpjit::net
