// Epoch-quantised max-min fair sharing (Mode::kQuantisedFair) - the
// lookahead-compatible contended model (ROADMAP item 1).
//
// run_quantised() is the whole driver: a serial loop over epoch barriers
// t = kE on the manager's own engine. At every barrier, in this order:
//  1. The world engine catches up to t. All grid behaviour (scheduling
//     cycles, gossip, churn, transfer starts and aborts) happens in here.
//  2. The drains found at the PREVIOUS barrier are delivered, in
//     (finish_s, id) order. A drained flow keeps its solver share until this
//     delivery, so the survivors' rates only rise at the barrier after the
//     one that detected the drain (two barriers after the drain epoch).
//  3. The epoch that just ended is integrated lazily, in one O(flows) pass
//     over remaining_mb at each flow's frozen rate_mbps (instead of the fluid
//     mode's eager advance on every mutation - ROADMAP item 3). Flows that
//     cross the line are queued for delivery at the next barrier.
//  4. quantised_barrier() admits the propagation-complete joins queued since
//     the last barrier and re-freezes every active flow's rate from the
//     solver, aborting barrier-stalled flows.
// The manager never schedules completion events in this mode. Aborts between
// barriers (churn, link failure, task failure) fire their callbacks and leave
// the solver immediately, but surviving flows' FROZEN rates do not move until
// the next barrier. An aborted flow that had already drained is skipped by
// the flows_ membership check at delivery.
#include <algorithm>
#include <cassert>
#include <vector>

#include "grid/transfer_manager.hpp"

namespace dpjit::grid {

void TransferManager::run_quantised(double epoch_s, SimTime horizon) {
  assert(mode_ == Mode::kQuantisedFair && epoch_s > 0.0);
  // t accumulates (t += E, not k * E): the golden digests pin this exact
  // sequence of barrier times.
  SimTime epoch_start = 0.0;
  for (SimTime t = 0.0; t <= horizon; epoch_start = t, t += epoch_s) {
    engine_.run_until(t);
    // Deliver the last barrier's drains in (finish_s, id) order, skipping
    // flows aborted since detection: the abort already fired their callback
    // and left the solver.
    std::vector<std::uint64_t> delivered;
    delivered.reserve(drained_.size());
    for (const auto& [finish_s, id] : drained_) {
      const auto it = flows_.find(id);
      if (it == flows_.end()) continue;
      assert(it->second.fluid);
      delivered.push_back(id);
    }
    drained_.clear();
    resolve_batch(delivered, true);
    quantised_integrate(epoch_start, epoch_s);
    quantised_barrier();
  }
  // Tail flush: world events in (last barrier, horizon] when the horizon is
  // not a barrier multiple. Flows still in flight simply do not complete -
  // the same horizon cut-off the fluid mode applies.
  engine_.run_until(horizon);
}

void TransferManager::quantised_flow_ready(std::uint64_t id) {
  assert(mode_ == Mode::kQuantisedFair);
  auto it = flows_.find(id);
  if (it == flows_.end()) return;
  Flow& flow = it->second;
  assert(flow.latency_pending && !flow.fluid);
  flow.latency_pending = false;
  // The latency event is firing right now: invalidate the handle so finish()
  // never cancels a stale, potentially reused one.
  flow.event = sim::EventQueue::kInvalidHandle;
  flow.join_pending = true;
  pending_joins_.push_back(id);
}

void TransferManager::quantised_barrier() {
  assert(mode_ == Mode::kQuantisedFair);
  // The stamp moves FIRST: any probe a barrier-time callback issues below
  // must see the post-barrier flow set, never a pre-barrier cached answer.
  ++barrier_stamp_;

  // 1. Admit the propagation-complete joins in id order. The queue may hold
  // stale ids (flows aborted before admission); the join_pending flag is the
  // authority. Zero-size flows are delivered right away instead of occupying
  // solver capacity for an epoch.
  std::sort(pending_joins_.begin(), pending_joins_.end());
  std::vector<std::uint64_t> zero_size;
  for (const std::uint64_t id : pending_joins_) {
    auto it = flows_.find(id);
    if (it == flows_.end() || !it->second.join_pending) continue;
    Flow& flow = it->second;
    flow.join_pending = false;
    if (flow.remaining_mb <= kEpsilonMb) {
      zero_size.push_back(id);
      continue;
    }
    join_pool(flow);
    solver_.add(id, flow.links, &flow);
  }
  pending_joins_.clear();
  // Zero-size deliveries may re-enter start() (successor staging) and even
  // abort admitted flows (task-failure cascades); both are safe here - new
  // flows sit in the propagation phase until the next barrier, and aborted
  // ones simply vanish from flows_ before the rate collection below.
  for (const std::uint64_t id : zero_size) finish(id, true);

  // 2. Re-freeze every active flow's rate for the coming epoch. pool_ is in
  // no particular order, so collect and sort by id: the stall callbacks
  // below must fire in the same order run to run for the golden digests to
  // hold.
  std::vector<std::uint64_t> active;
  active.reserve(pool_.size());
  for (const Flow* flow : pool_) active.push_back(flow->id);
  std::sort(active.begin(), active.end());
  std::vector<std::uint64_t> stalled;
  for (const std::uint64_t id : active) {
    const double rate = solver_.rate(id);
    if (rate <= 0.0) {
      // Saturated/zero-capacity path: the flow could never drain. Abort at
      // the barrier (the quantised analogue of the fluid stall guard).
      stalled.push_back(id);
      continue;
    }
    flows_.at(id).rate_mbps = rate;
  }
  resolve_batch(stalled, false);
}

void TransferManager::quantised_integrate(SimTime epoch_start, double epoch_s) {
  assert(drained_.empty());
  for (Flow* pooled : pool_) {
    Flow& flow = *pooled;
    // The barrier's stall guard aborts zero-rate flows and frozen rates only
    // move at barriers, so every frozen rate is strictly positive and the
    // division below is safe.
    assert(flow.rate_mbps > 0.0);
    if (flow.remaining_mb - flow.rate_mbps * epoch_s <= kEpsilonMb) {
      drained_.emplace_back(epoch_start + std::min(epoch_s, flow.remaining_mb / flow.rate_mbps),
                            flow.id);
    } else {
      flow.remaining_mb -= flow.rate_mbps * epoch_s;
    }
  }
  // (finish_s, id) order: pool order must not leak into the callback order.
  std::sort(drained_.begin(), drained_.end());
}

}  // namespace dpjit::grid
