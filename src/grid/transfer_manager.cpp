// Mode-agnostic facade of the TransferManager: flow bookkeeping, transfer
// lifecycle entry points and the live-rate oracle probes. The per-mode
// machinery lives behind the net::NetworkModel seam in
// models/fluid_fair.cpp and models/quantised_fair.cpp.
#include "grid/transfer_manager.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "grid/models/transfer_model_detail.hpp"
#include "net/rate_oracle.hpp"

namespace dpjit::grid {
namespace {

std::vector<double> link_capacities(const net::Topology& topo) {
  std::vector<double> caps;
  caps.reserve(topo.link_count());
  for (const auto& link : topo.links()) caps.push_back(link.bandwidth_mbps);
  return caps;
}

}  // namespace

TransferManager::TransferManager(sim::Engine& engine, const net::Topology& topo,
                                 const net::Routing& routing, Mode mode, bool track_paths)
    : engine_(engine), topo_(topo), routing_(routing), mode_(mode), track_paths_(track_paths),
      solver_(link_capacities(topo)) {}

std::uint64_t TransferManager::start(NodeId src, NodeId dst, double size_mb,
                                     CompletionFn on_done) {
  assert(size_mb >= 0.0);
  const std::uint64_t id = next_id_++;
  Flow flow;
  flow.id = id;
  flow.src = src;
  flow.dst = dst;
  flow.size_mb = size_mb;
  flow.remaining_mb = size_mb;
  flow.on_done = std::move(on_done);

  if (src == dst) {
    // Loopback: deliver after zero delay (still asynchronously).
    auto [it, ok] = flows_.emplace(id, std::move(flow));
    (void)ok;
    it->second.event = engine_.schedule_in(0.0, [this, id] { finish(id, true); });
    return id;
  }

  const double latency = routing_.latency_s(src, dst);
  if (!std::isfinite(latency)) {
    // Unreachable pair (cannot happen on connected topologies; defensive).
    auto [it, ok] = flows_.emplace(id, std::move(flow));
    (void)ok;
    it->second.event = engine_.schedule_in(0.0, [this, id] { finish(id, false); });
    return id;
  }

  if (mode_ == Mode::kBottleneck) {
    const double bandwidth = routing_.bandwidth_mbps(src, dst);
    if (bandwidth <= 0.0) {
      // Path crosses a zero-capacity link: infinite duration, treat like an
      // unreachable pair instead of scheduling an event at t = +inf.
      auto [it, ok] = flows_.emplace(id, std::move(flow));
      (void)ok;
      it->second.event = engine_.schedule_in(0.0, [this, id] { finish(id, false); });
      return id;
    }
    const double duration = latency + size_mb / bandwidth;
    if (track_paths_) flow.links = routing_.path_links(src, dst);
    auto [it, ok] = flows_.emplace(id, std::move(flow));
    (void)ok;
    it->second.event = engine_.schedule_in(duration, [this, id] { finish(id, true); });
    return id;
  }

  // Contended modes: propagation first, then join the (fluid/frozen) pool -
  // immediately in fluid mode, at the next epoch barrier in quantised mode.
  flow.links = routing_.path_links(src, dst);
  flow.latency_pending = true;
  flows_.emplace(id, std::move(flow));
  if (mode_ == Mode::kQuantisedFair) {
    flows_.at(id).event = engine_.schedule_in(latency, [this, id] { quantised_flow_ready(id); });
  } else {
    flows_.at(id).event = engine_.schedule_in(latency, [this, id] { fair_flow_started(id); });
  }
  return id;
}

void TransferManager::finish(std::uint64_t id, bool success) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return;
  if (it->second.fluid) {
    // Single-flow pool removal is the batch resolve with one element, so the
    // two paths cannot drift apart.
    if (mode_ == Mode::kQuantisedFair) {
      quantised_resolve_batch({id}, success);
    } else {
      fair_resolve_batch({id}, success);
    }
    return;
  }
  CompletionFn cb = std::move(it->second.on_done);
  engine_.cancel(it->second.event);
  if (success) {
    ++completed_;
    delivered_mb_ += it->second.size_mb;
  }
  erase_flow(it);
  if (cb) cb(success);
}

void TransferManager::join_pool(Flow& flow) {
  assert(!flow.fluid);
  flow.fluid = true;
  flow.pool_slot = static_cast<std::uint32_t>(pool_.size());
  pool_.push_back(&flow);
}

void TransferManager::erase_flow(std::unordered_map<std::uint64_t, Flow>::iterator it) {
  if (it->second.fluid) {
    const std::uint32_t slot = it->second.pool_slot;
    assert(pool_[slot] == &it->second);
    pool_[slot] = pool_.back();
    pool_[slot]->pool_slot = slot;
    pool_.pop_back();
  }
  flows_.erase(it);
}

void TransferManager::node_left(NodeId n) {
  std::vector<std::uint64_t> doomed;
  for (const auto& [id, flow] : flows_) {
    if (flow.src == n || flow.dst == n) doomed.push_back(id);
  }
  if (mode_ == Mode::kFluidFair || mode_ == Mode::kQuantisedFair) {
    // Churn teardown: one batched re-solve for every doomed flow instead of a
    // full recompute per flow; sorted so the callback order is deterministic
    // (the collection above iterates in hash-map order).
    std::sort(doomed.begin(), doomed.end());
    if (mode_ == Mode::kQuantisedFair) {
      quantised_resolve_batch(doomed, false);
    } else {
      fair_resolve_batch(doomed, false);
    }
  } else {
    for (std::uint64_t id : doomed) finish(id, false);
  }
}

bool TransferManager::abort(std::uint64_t id) {
  if (flows_.find(id) == flows_.end()) return false;
  finish(id, false);
  return true;
}

void TransferManager::link_state_changed(LinkId l, bool up) {
  // Probe paths change on failure AND recovery (Routing::set_link_state has
  // already rerouted by contract), so the cache stamp moves either way even
  // though only failures abort transfers below.
  ++link_stamp_;
  if (up) return;  // surviving transfers keep their (still valid) old routes
  std::vector<std::uint64_t> doomed;
  for (const auto& [id, flow] : flows_) {
    if (std::find(flow.links.begin(), flow.links.end(), l) != flow.links.end()) {
      doomed.push_back(id);
    }
  }
  if (doomed.empty()) return;
  std::sort(doomed.begin(), doomed.end());  // hash-map order -> deterministic
  link_aborts_ += doomed.size();
  if (mode_ == Mode::kQuantisedFair) {
    quantised_resolve_batch(doomed, false);
  } else if (mode_ == Mode::kFluidFair) {
    fair_resolve_batch(doomed, false);
  } else {
    for (const std::uint64_t id : doomed) finish(id, false);
  }
}

// --- live-rate oracle (see rate_oracle.hpp) --------------------------------

double TransferManager::predicted_rate_mbps_uncached(NodeId src, NodeId dst) const {
  if (src == dst) return kInf;  // loopback transfers are free
  if (mode_ == Mode::kBottleneck) {
    // No contention in this model: the live rate IS the static path rate.
    return routing_.bandwidth_mbps(src, dst);
  }
  const std::vector<LinkId> links = routing_.path_links(src, dst);
  if (links.empty()) return 0.0;  // unreachable pair (no route)
  return solver_.probe_rate(links);
}

double TransferManager::predicted_rate_mbps_reference(NodeId src, NodeId dst) const {
  if (src == dst) return kInf;  // loopback transfers are free
  if (mode_ == Mode::kBottleneck) {
    return routing_.bandwidth_mbps(src, dst);
  }
  const std::vector<LinkId> links = routing_.path_links(src, dst);
  if (links.empty()) return 0.0;  // unreachable pair (no route)
  return solver_.probe_rate_reference(links);
}

double TransferManager::predicted_rate_mbps(NodeId src, NodeId dst) const {
  if (src == dst) return kInf;  // loopback transfers are free
  if (mode_ == Mode::kBottleneck) {
    // The matrix read is cheaper than any cache lookup and always live.
    return routing_.bandwidth_mbps(src, dst);
  }
  // Stamp check: the cache holds exactly while no flow joined/left the pool,
  // no link changed state, and (quantised mode) no epoch barrier re-froze the
  // rates. Probes themselves never move any stamp, so a ranking pass over
  // hundreds of candidates reuses one solve per distinct pair. The barrier
  // stamp is constant outside quantised mode, so the extra compare costs the
  // fluid path nothing.
  const std::uint64_t solver_stamp = solver_.mutation_stamp();
  if (probe_cache_solver_stamp_ != solver_stamp || probe_cache_link_stamp_ != link_stamp_ ||
      probe_cache_barrier_stamp_ != barrier_stamp_) {
    probe_cache_.clear();
    probe_cache_solver_stamp_ = solver_stamp;
    probe_cache_link_stamp_ = link_stamp_;
    probe_cache_barrier_stamp_ = barrier_stamp_;
  }
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src.get())) << 32) |
      static_cast<std::uint32_t>(dst.get());
  if (const auto it = probe_cache_.find(key); it != probe_cache_.end()) {
    ++probe_cache_hits_;
#ifndef NDEBUG
    // Sampled differential check (every 64th hit): a full per-hit re-probe
    // would make Debug builds as slow as the uncached path; the dedicated
    // probe_cache test asserts bit-equality at EVERY step instead.
    if ((probe_cache_hits_ & 63u) == 0) {
      assert(it->second == predicted_rate_mbps_uncached(src, dst) &&
             "probe cache diverged from a fresh solve");
    }
#endif
    return it->second;
  }
  ++probe_cache_misses_;
  const double rate = predicted_rate_mbps_uncached(src, dst);
  probe_cache_.emplace(key, rate);
  return rate;
}

double TransferManager::expected_transfer_time_s(NodeId src, NodeId dst, double size_mb) const {
  if (src == dst) return 0.0;
  const double latency = routing_.latency_s(src, dst);
  if (!std::isfinite(latency)) return kInf;  // skip the probe entirely
  if (size_mb <= 0.0) return latency;
  return net::transfer_time_from_rate(latency, predicted_rate_mbps(src, dst), size_mb);
}

}  // namespace dpjit::grid
