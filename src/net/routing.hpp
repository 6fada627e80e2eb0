// Shortest-path routing over the topology.
//
// Paths are latency-shortest (Dijkstra per source). For every ordered pair we
// precompute the end-to-end latency and the *bottleneck bandwidth* (minimum
// link bandwidth along the chosen path) - the quantity the paper's
// `bandwidth(p_h', p_h)` denotes - plus a next-hop matrix from which full
// paths can be reconstructed for the flow-sharing network model.
//
// Links can fail and recover at runtime (sim::FaultPlan waves). Instead of a
// full O(n^2 log n) rebuild, set_link_state repairs only the affected source
// rows: a failed link invalidates exactly the sources whose shortest-path
// tree used it (detected structurally from the next-hop matrix - the tree
// contains link (a,b) iff it is the parent edge of a or of b), and a restored
// link invalidates exactly the sources for which it offers an equal-or-better
// path to one of its endpoints (O(1) per source from the latency matrix).
// Each affected row is rebuilt by a fresh per-source Dijkstra over the
// currently-up links, so the repaired matrices are identical to a full
// rebuild (routing_repair_test cross-checks this).
#pragma once

#include <cstdint>
#include <vector>

#include "net/topology.hpp"

namespace dpjit::net {

/// All-pairs routing derived from a Topology. Mutable only through
/// set_link_state (fault injection); otherwise immutable after construction.
class Routing {
 public:
  /// Runs Dijkstra from every source, one source per thread-pool task;
  /// workers write disjoint row blocks of the flattened matrices, so the
  /// result is bit-identical to a serial build regardless of thread count.
  /// `threads` <= 0 means hardware concurrency. O(n * E log n) total work;
  /// fine for n <= ~4000.
  explicit Routing(const Topology& topo, int threads = 0);

  /// End-to-end latency in seconds; 0 for u == v; +inf when unreachable.
  [[nodiscard]] double latency_s(NodeId u, NodeId v) const;

  /// Bottleneck bandwidth (Mb/s) along the routed path; +inf for u == v;
  /// 0 when unreachable.
  [[nodiscard]] double bandwidth_mbps(NodeId u, NodeId v) const;

  /// Hop count of the routed path (0 for u == v).
  [[nodiscard]] int hops(NodeId u, NodeId v) const;

  /// Sequence of link ids from u to v (empty when u == v or unreachable).
  [[nodiscard]] std::vector<LinkId> path_links(NodeId u, NodeId v) const;

  [[nodiscard]] int node_count() const { return n_; }

  /// Mean pairwise bottleneck bandwidth over all ordered pairs u != v that are
  /// reachable, computed once at build time from the healthy (all-links-up)
  /// topology - the "true" system average used when computing eft (Eq. 1).
  /// The name says *initial*: this is deliberately NOT refreshed by
  /// set_link_state, so it goes stale the moment links fail or recover. That
  /// is the intended contract - eft ranks workflows against the stable
  /// healthy-network average so a mid-run failure wave cannot reshuffle
  /// relative rankings - and the rename exists so no caller can mistake it
  /// for a live mean again (see "Stale mean bandwidth" in ARCHITECTURE.md).
  [[nodiscard]] double initial_mean_pair_bandwidth_mbps() const { return mean_bandwidth_mbps_; }

  /// Takes a link down / brings it back up and incrementally repairs the
  /// affected source rows (see the header comment). No-op when the state does
  /// not change. Serial; O(affected_rows * E log n).
  void set_link_state(LinkId l, bool up);

  [[nodiscard]] bool link_state(LinkId l) const {
    return link_up_[static_cast<std::size_t>(l.get())] != 0;
  }

  /// Source rows rebuilt by set_link_state repairs so far (tests).
  [[nodiscard]] std::uint64_t repaired_rows() const { return repaired_rows_; }

 private:
  [[nodiscard]] std::size_t idx(NodeId u, NodeId v) const {
    return static_cast<std::size_t>(u.get()) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(v.get());
  }

  /// Dijkstra + matrix fill for sources [src_begin, src_end).
  void build_rows(const Topology& topo, int src_begin, int src_end);

  /// Resets source row u to the unreachable defaults (rebuild prerequisite:
  /// build_rows only writes reachable entries).
  void reset_row(int u);

  /// Link id of the last hop on the routed u -> v path, or invalid when
  /// u == v / unreachable. O(hops) walk of the next-hop matrix.
  [[nodiscard]] LinkId::underlying_type last_link(NodeId u, NodeId v) const;

  int n_ = 0;
  const Topology* topo_ = nullptr;
  double mean_bandwidth_mbps_ = 0.0;
  /// Per-link up/down state (fault injection); all up at construction.
  std::vector<char> link_up_;
  std::uint64_t repaired_rows_ = 0;
  // Flattened n x n matrices (float to halve memory at n = 2000).
  std::vector<float> latency_;
  std::vector<float> bandwidth_;
  // next_hop_[u][v] = link id of the first hop on the u -> v path.
  std::vector<LinkId::underlying_type> next_link_;
};

}  // namespace dpjit::net
