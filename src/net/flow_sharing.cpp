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
      link_mark_(caps_.size(), 0),
      remaining_(caps_.size(), 0.0),
      active_(caps_.size(), 0),
      ratio_(caps_.size(), 0.0),
      bottleneck_(caps_.size(), 0),
      touch_mark_(caps_.size(), 0),
      link_sched_(caps_.size(), {0, 0}) {}

void FairShareSolver::add(std::uint64_t id, std::vector<LinkId> links, void* user) {
  ++mutation_stamp_;
  auto [it, inserted] = flows_.emplace(id, FlowRec{});
  assert(inserted && "FairShareSolver::add: duplicate flow id");
  (void)inserted;
  FlowRec& rec = it->second;
  rec.links = std::move(links);
  rec.user = user;
  if (rec.links.empty()) {
    rec.rate = kInf;  // loopback: no shared resource, no component
    updated_.clear();
    updated_.push_back(UpdatedFlow{id, kInf, user});
    return;
  }
  rec.slot.resize(rec.links.size());
  for (std::size_t k = 0; k < rec.links.size(); ++k) {
    const LinkId l = rec.links[k];
    assert(l.valid() && static_cast<std::size_t>(l.get()) < caps_.size());
    auto& slots = link_flows_[static_cast<std::size_t>(l.get())];
    rec.slot[k] = static_cast<std::uint32_t>(slots.size());
    slots.push_back(LinkSlot{id, static_cast<std::uint32_t>(k), &rec});
  }
  ++epoch_;
  collect_component(rec.links);
  solve_component();
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

void FairShareSolver::remove(std::uint64_t id) {
  ++mutation_stamp_;
  const auto it = flows_.find(id);
  assert(it != flows_.end() && "FairShareSolver::remove: unknown flow id");
  unlink(it->second);
  const std::vector<LinkId> seed = std::move(it->second.links);
  flows_.erase(it);
  ++epoch_;
  collect_component(seed);
  solve_component();
}

void FairShareSolver::remove_batch(const std::vector<std::uint64_t>& ids) {
  ++mutation_stamp_;
  std::vector<LinkId> seed;
  for (const std::uint64_t id : ids) {
    const auto it = flows_.find(id);
    assert(it != flows_.end() && "FairShareSolver::remove_batch: unknown flow id");
    unlink(it->second);
    seed.insert(seed.end(), it->second.links.begin(), it->second.links.end());
    flows_.erase(it);
  }
  ++epoch_;
  collect_component(seed);
  solve_component();
}

double FairShareSolver::rate(std::uint64_t id) const {
  const auto it = flows_.find(id);
  assert(it != flows_.end() && "FairShareSolver::rate: unknown flow id");
  return it->second.rate;
}

void FairShareSolver::collect_component(const std::vector<LinkId>& seed_links) const {
  comp_links_.clear();
  comp_flows_.clear();
  for (const LinkId l : seed_links) {
    const auto li = static_cast<std::uint32_t>(l.get());
    if (link_mark_[li] != epoch_) {
      link_mark_[li] = epoch_;
      remaining_[li] = caps_[li];
      active_[li] = 0;
      comp_links_.push_back(li);
    }
  }
  // BFS over the flow/link sharing graph; comp_links_ doubles as the
  // frontier. The fill state is seeded in the same walk (reset at link
  // discovery, one active increment per crossing at flow discovery), so the
  // solve and schedule-build paths start without another pass over the
  // component's flow paths.
  for (std::size_t head = 0; head < comp_links_.size(); ++head) {
    for (const LinkSlot& s : link_flows_[comp_links_[head]]) {
      const FlowRec& f = *s.rec;
      if (f.mark == epoch_) continue;
      f.mark = epoch_;
      f.frozen = false;
      comp_flows_.emplace_back(s.flow, s.rec);
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

void FairShareSolver::solve_component() {
  // Same round-synchronous progressive filling as max_min_fair_rates, but
  // restricted to the collected component and freezing flows through the
  // per-link flow sets. Disjoint components are independent subproblems, so
  // the rates computed here are the ones a full solve would assign: the
  // per-round shares of a component are computed from per-link state only its
  // own flows mutate, and every flow frozen in a round subtracts the same
  // share value, making the arithmetic identical operation-for-operation.
  // (Sole caveat: a cross-component tie within kShareTolerance can merge two
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
  // collect_component() already reset the member links and counted active
  // crossings; only the ratio cache needs seeding here.
  updated_.clear();
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

  std::size_t unfrozen = comp_flows_.size();
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
    if (!std::isfinite(share)) break;  // defensive: no constrained link left
    share = std::max(share, 0.0);
    const double band = share * (1.0 + kShareTolerance);

    bool froze_any = false;
    touched_.clear();
    ++touch_stamp_;
    const std::size_t scan_n = full_round ? comp_links_.size() : near_n;
    for (std::size_t i = 0; i < scan_n; ++i) {
      const std::uint32_t li = comp_links_[i];
      if (ratio_[li] > band) continue;  // not a bottleneck this round
      for (const LinkSlot& s : link_flows_[li]) {
        FlowRec& f = *s.rec;
        if (f.frozen) continue;
        f.frozen = true;
        f.rate = share;
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
    if (!froze_any) break;  // defensive: numerical stalemate
    for (const std::uint32_t li : touched_) {
      if (active_[li] > 0) ratio_[li] = remaining_[li] / active_[li];
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

  for (const auto& cf : comp_flows_) {
    FlowRec* f = cf.second;
    if (!f->frozen) f->rate = 0.0;  // stalemate fallback, mirrors the reference
    updated_.push_back(UpdatedFlow{cf.first, f->rate, f->user});
  }
}

std::uint32_t FairShareSolver::build_probe_schedule(LinkId seed) const {
  const auto idx = static_cast<std::uint32_t>(scheds_.size());
  scheds_.emplace_back();

  ++epoch_;
  const std::vector<LinkId> seed_vec{seed};
  collect_component(seed_vec);
  // Label every member link: any flowed link of this component now resolves
  // to this schedule for as long as the mutation stamp holds. (Seeding from a
  // single flowed link and walking flow adjacencies only means a "component"
  // here is exactly one flow-connected island - flowless probe links never
  // glue two islands into one label.)
  for (const std::uint32_t li : comp_links_) {
    link_sched_[li] = {sched_stamp_, idx};
  }

  // Replay solve_component()'s progressive fill on the scratch arrays -
  // identical arithmetic, identical rounds - but record instead of assign:
  // the share of every round, and a checkpoint for each link a freeze
  // touched. FlowRec::rate is never written (probes are pure); the mutable
  // frozen flags are solve scratch and get reset by the next solve anyway.
  ProbeSchedule& sched = scheds_[idx];
  sched.links.reserve(comp_links_.size());
  for (const std::uint32_t li : comp_links_) {
    sched.links.emplace(li, ProbeSchedule::LinkTrack{active_[li], 0, 0});
    if (active_[li] > 0) ratio_[li] = remaining_[li] / active_[li];
  }

  struct RawEvent {
    std::uint32_t link;
    ProbeSchedule::LinkEvent ev;
  };
  std::vector<RawEvent> raw;
  raw.reserve(comp_links_.size() * 2);

  std::size_t unfrozen = comp_flows_.size();
  std::uint32_t round = 0;
  while (unfrozen > 0) {
    double share = std::numeric_limits<double>::infinity();
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
    if (!std::isfinite(share)) break;  // defensive break: schedule unusable
    share = std::max(share, 0.0);
    sched.round_share.push_back(share);
    const double band = share * (1.0 + kShareTolerance);

    bool froze_any = false;
    touched_.clear();
    for (const std::uint32_t li : comp_links_) {
      if (ratio_[li] > band) continue;
      for (const LinkSlot& s : link_flows_[li]) {
        const FlowRec& f = *s.rec;
        if (f.frozen) continue;
        f.frozen = true;
        froze_any = true;
        --unfrozen;
        for (const LinkId fl : f.links) {
          const auto i2 = static_cast<std::size_t>(fl.get());
          remaining_[i2] -= share;
          if (remaining_[i2] < 0.0) remaining_[i2] = 0.0;
          --active_[i2];
          touched_.push_back(static_cast<std::uint32_t>(i2));
        }
      }
    }
    if (!froze_any) break;  // numerical stalemate: schedule unusable
    // Checkpoint every link this round's freezes changed: the recorded state
    // holds from the START of round `round + 1`.
    std::sort(touched_.begin(), touched_.end());
    touched_.erase(std::unique(touched_.begin(), touched_.end()), touched_.end());
    for (const std::uint32_t li : touched_) {
      if (active_[li] > 0) ratio_[li] = remaining_[li] / active_[li];
      raw.push_back(RawEvent{li, {round + 1, active_[li], remaining_[li]}});
    }
    ++round;
  }
  sched.clean = unfrozen == 0;

  if (sched.clean) {
    // Group the checkpoints per link (round order within a link is already
    // ascending; stable sort preserves it).
    std::stable_sort(raw.begin(), raw.end(),
                     [](const RawEvent& a, const RawEvent& b) { return a.link < b.link; });
    sched.events.reserve(raw.size());
    for (const RawEvent& r : raw) {
      ProbeSchedule::LinkTrack& track = sched.links.find(r.link)->second;
      if (track.count == 0) track.first = static_cast<std::uint32_t>(sched.events.size());
      ++track.count;
      sched.events.push_back(r.ev);
    }
  }
  return idx;
}

double FairShareSolver::probe_rate(const std::vector<LinkId>& links) const {
  if (links.empty()) return kInf;  // loopback: no shared resource

  if (sched_stamp_ != mutation_stamp_ + 1) {
    // First probe since a mutation: drop the stale schedules. The per-link
    // labels invalidate themselves (they carry the stamp they were set at).
    scheds_.clear();
    sched_stamp_ = mutation_stamp_ + 1;
  }

  // Group the path to (link, crossings): add() counts one active per
  // crossing, so the phantom overlay must too. Paths are short; quadratic
  // grouping beats sorting here.
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

  // Resolve the flow component. All flowed links must land in ONE schedule:
  // a probe spanning two islands would merge them, which no recorded
  // single-island schedule can replay - fall back to the from-scratch probe.
  std::int64_t comp = -1;
  for (const ProbeCursor& c : probe_cursors_) {
    if (link_flows_[c.link].empty()) continue;  // flowless: plain capacity
    if (link_sched_[c.link].first != sched_stamp_) {
      build_probe_schedule(LinkId(static_cast<std::int32_t>(c.link)));
    }
    const std::uint32_t cidx = link_sched_[c.link].second;
    if (comp < 0) {
      comp = cidx;
    } else if (static_cast<std::uint32_t>(comp) != cidx) {
      return probe_rate_reference(links);
    }
  }
  if (comp >= 0 && !scheds_[static_cast<std::size_t>(comp)].clean) {
    return probe_rate_reference(links);  // builder hit a defensive break
  }

  double result;
  if (comp < 0) {
    // Every crossed link is flowless: the fill has a single round whose share
    // is the probe's own bottleneck.
    double m = std::numeric_limits<double>::infinity();
    for (const ProbeCursor& c : probe_cursors_) {
      m = std::min(m, caps_[c.link] / c.crossings);
    }
    result = std::max(m, 0.0);
  } else {
    const ProbeSchedule& sched = scheds_[static_cast<std::size_t>(comp)];
    // Attach each cursor: member links replay their recorded trajectory with
    // the phantom crossings overlaid on the active count; flowless links are
    // constant (cap, crossings) states.
    for (ProbeCursor& c : probe_cursors_) {
      const auto it = sched.links.find(c.link);
      if (it == sched.links.end()) {
        c.active = c.crossings;
        c.remaining = caps_[c.link];
        c.next = c.end = 0;
      } else {
        c.active = it->second.active0 + c.crossings;
        c.remaining = caps_[c.link];
        c.next = it->second.first;
        c.end = it->second.first + it->second.count;
      }
    }

    // Walk the recorded rounds. m is the probe flow's own bottleneck ratio
    // (min over its links of remaining/active-with-phantom). The phantom's
    // extra crossings only ever LOWER ratios of links the probe itself
    // crosses, so until the freeze test below fires, the recorded unmodified
    // process and the probe-modified process are bit-identical; the round it
    // fires, the modified round share is min(S[r], m) and the probe is in
    // the bottleneck mask - exactly the reference's early return.
    double m = std::numeric_limits<double>::infinity();
    for (const ProbeCursor& c : probe_cursors_) {
      m = std::min(m, c.remaining / c.active);
    }
    const auto rounds = static_cast<std::uint32_t>(sched.round_share.size());
    bool done = false;
    result = 0.0;
    for (std::uint32_t r = 0; r < rounds && !done; ++r) {
      bool moved = false;
      for (ProbeCursor& c : probe_cursors_) {
        while (c.next != c.end && sched.events[c.next].round == r) {
          c.remaining = sched.events[c.next].remaining;
          c.active = sched.events[c.next].active + c.crossings;
          ++c.next;
          moved = true;
        }
      }
      if (moved) {
        m = std::numeric_limits<double>::infinity();
        for (const ProbeCursor& c : probe_cursors_) {
          m = std::min(m, c.remaining / c.active);
        }
      }
      const double share = sched.round_share[r];
      if (m <= share * (1.0 + kShareTolerance)) {
        result = std::min(share, m);
        done = true;
      }
    }
    if (!done) {
      // Drained: every real flow froze without saturating the probe. The
      // reference's next round has only the phantom active - apply the tail
      // checkpoints and return its final bottleneck.
      for (ProbeCursor& c : probe_cursors_) {
        while (c.next != c.end) {
          c.remaining = sched.events[c.next].remaining;
          c.active = sched.events[c.next].active + c.crossings;
          ++c.next;
        }
      }
      double fin = std::numeric_limits<double>::infinity();
      for (const ProbeCursor& c : probe_cursors_) {
        fin = std::min(fin, c.remaining / c.active);
      }
      result = std::max(fin, 0.0);
    }
  }

#ifndef NDEBUG
  // Sampled differential check: the replay must match the from-scratch probe
  // bit-for-bit. Cheap enough to leave on in every debug run.
  if ((++probe_count_ & 63u) == 0) {
    assert(result == probe_rate_reference(links) &&
           "probe schedule replay diverged from the from-scratch probe");
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
  // pre-schedule implementation, kept verbatim: the slow-path fallback and
  // the differential anchor for probe_rate().)
  for (const std::uint32_t li : comp_links_) {
    remaining_[li] = caps_[li];
    active_[li] = 0;
    bottleneck_[li] = 0;
  }
  for (const auto& cf : comp_flows_) {
    const FlowRec* f = cf.second;
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
