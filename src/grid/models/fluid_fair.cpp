// Fluid max-min fair sharing (Mode::kFluidFair) - the zero-lookahead live
// model. Pure code motion from the pre-seam transfer_manager.cpp: every path
// here is pinned bit-identical by the 29 pre-quantised golden digests and the
// randomized fluid differential suite (tests/grid/fluid_differential_test).
#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "grid/transfer_manager.hpp"

namespace dpjit::grid {

void TransferManager::fair_flow_started(std::uint64_t id) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return;
  Flow& flow = it->second;
  assert(flow.latency_pending && !flow.fluid);
  flow.latency_pending = false;
  // The latency event is firing right now: invalidate the handle so finish()
  // never cancels a stale one (the slot may be reused by an unrelated event).
  flow.event = sim::EventQueue::kInvalidHandle;
  // Sync the fluid clock BEFORE the flow joins the pool. With an empty pool
  // nothing accrues, so this is what keeps a manager whose first fluid flow
  // starts at t > 0 from integrating a bogus [0, now] window later on.
  fair_advance_to_now();
  if (flow.remaining_mb <= kEpsilonMb) {
    finish(id, true);
    return;
  }
  join_pool(flow);
  // The Flow's address is stable (node-based unordered_map), so it rides
  // along as the solver's user cookie: every future rate update for this
  // flow comes back with the pointer attached, sparing a hash lookup per
  // re-solved flow on the hottest path in fair mode.
  solver_.add(id, flow.links, &flow);
  fair_apply_updated_rates();
  fair_abort_stalled();
  fair_schedule_next_completion();
}

void TransferManager::fair_abort_stalled() {
  // A rate of 0 only comes from a zero-capacity link on the flow's own path:
  // a link with capacity keeps a positive remainder while it still carries
  // an unfrozen flow, so every round share it sets is positive. Such a flow
  // is therefore stalled from the add that admits it. A removal can lower
  // surviving rates (max-min fairness is not population-monotone: with A,
  // B, D on one unit link and B, C on another, removing A drops C from 2/3
  // to 1/2), but never to 0. The scan over the re-solved component is cheap,
  // and running it after every mutation makes the no-zero-rate-fluid-flow
  // invariant unconditional.
  std::vector<std::uint64_t> stalled;
  for (const auto& u : solver_.updated()) {
    if (u.rate <= 0.0) stalled.push_back(u.id);
  }
  if (stalled.empty()) return;
  std::sort(stalled.begin(), stalled.end());
  resolve_batch(stalled, false);  // recursion bounded: each pass removes flows
}

void TransferManager::fair_advance_to_now() {
  const SimTime now = engine_.now();
  const double dt = now - fair_clock_;
  if (dt > 0.0) {
    for (Flow* flow : pool_) {
      flow->remaining_mb = std::max(0.0, flow->remaining_mb - flow->rate_mbps * dt);
    }
  }
  fair_clock_ = now;
}

void TransferManager::fair_apply_updated_rates() {
  // Callers advance the fluid clock before any re-solve, so `now` is the
  // instant the new rates take effect and remaining_mb is current: the
  // projected finish below is exactly the `now + remaining / rate` the old
  // brute-force arming scan would compute at this moment.
  assert(fair_clock_ == engine_.now());
  const SimTime now = engine_.now();
  for (const auto& u : solver_.updated()) {
    // The cookie is the Flow itself (attached at solver_.add time); removed
    // flows leave the solver before the re-solve, so every entry here names
    // a live flow and the pointer cannot dangle.
    Flow& flow = *static_cast<Flow*>(u.user);
    assert(flows_.find(u.id) != flows_.end() && &flows_.find(u.id)->second == &flow &&
           flow.fluid);
    flow.rate_mbps = u.rate;
    if (u.rate > 0.0) {
      flow.ci_slot = next_completion_.upsert(u.id, now + flow.remaining_mb / u.rate, flow.ci_slot);
    } else {
      // Saturated path: fair_abort_stalled() resolves it right after this.
      next_completion_.erase(u.id);
      flow.ci_slot = CompletionIndex::kNoSlot;
    }
  }
}

void TransferManager::fair_schedule_next_completion() {
  if (fair_event_armed_) {
    engine_.cancel(fair_event_);
    fair_event_armed_ = false;
  }
  if (next_completion_.empty()) return;
  // The index orders flows by their projected *absolute* finish; the armed
  // delay is recomputed from the eagerly advanced remaining volume with the
  // identical `remaining / rate` expression the old O(active) scan evaluated,
  // so the event lands on the bit-identical time (golden digests depend on
  // this; the debug block below cross-checks it on every arming). Two flows
  // whose delays differ by less than one ulp of the absolute clock collapse
  // onto the same index key - rounding is monotone, so a true-order
  // difference can only become a key tie, never an inversion - and the tie
  // is broken here at full relative precision over the tied subtree.
  tie_scratch_.clear();
  next_completion_.collect_min_ties(tie_scratch_);
  double soonest = kInf;
  for (const std::uint64_t fid : tie_scratch_) {
    const auto it = flows_.find(fid);
    assert(it != flows_.end() && it->second.fluid);
    assert(it->second.rate_mbps > 0.0 && "zero-rate fluid flow survived the stall guard");
    soonest = std::min(soonest, it->second.remaining_mb / it->second.rate_mbps);
  }
#ifndef NDEBUG
  double scan = kInf;
  for (const Flow* flow : pool_) {
    assert(flow->rate_mbps > 0.0);
    scan = std::min(scan, flow->remaining_mb / flow->rate_mbps);
  }
  assert(scan == soonest && "CompletionIndex diverged from the brute-force scan");
#endif
  if (!std::isfinite(soonest)) return;  // defensive: mirrors the old scan guard
  fair_event_ = engine_.schedule_in(soonest, [this] {
    fair_event_armed_ = false;
    fair_tick();
  });
  fair_event_armed_ = true;
}

void TransferManager::fair_tick() {
  fair_advance_to_now();
  std::vector<std::uint64_t> done;
  const SimTime now = engine_.now();
  for (const Flow* flow : pool_) {
    // Delivered - or so close that the completion event could not advance
    // simulated time: with a sub-ulp remaining/rate, re-arming would fire at
    // exactly `now` again with dt == 0 and spin forever.
    if (flow->remaining_mb <= kEpsilonMb ||
        now + flow->remaining_mb / flow->rate_mbps <= now) {
      done.push_back(flow->id);
    }
  }
  std::sort(done.begin(), done.end());
  if (done.empty()) {
    // Numerical under-shoot: re-arm and let the frontier catch up. Every
    // surviving flow's completion lies measurably past `now` (the sub-ulp
    // cases were just delivered), so the next tick makes progress.
    fair_schedule_next_completion();
    return;
  }
  resolve_batch(done, true);
}

}  // namespace dpjit::grid
