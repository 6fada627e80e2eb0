// Internet-like WAN topology, replacing the paper's Brite tool.
//
// Brite's router-level Waxman mode places nodes uniformly on a plane and adds
// links with probability P(u,v) = alpha * exp(-d(u,v) / (beta * L)) where d is
// the Euclidean distance and L the plane diagonal. We reproduce Brite's
// *incremental growth* variant: nodes join one at a time and connect to
// `kLinksPerNode` existing nodes sampled with Waxman weights, which guarantees
// a connected graph (what Brite does when asked for a connected topology).
#pragma once

#include <vector>

#include "util/rng.hpp"
#include "util/types.hpp"

namespace dpjit::net {

/// 2-D position on the Brite plane.
struct Point {
  double x = 0.0;
  double y = 0.0;
};

/// Euclidean distance between two points.
[[nodiscard]] double distance(const Point& a, const Point& b);

/// An undirected physical link.
struct Link {
  NodeId a;
  NodeId b;
  /// Link capacity in Mb/s (paper Table I: 0.1 - 10 Mb/s).
  double bandwidth_mbps = 1.0;
  /// Propagation latency in seconds (derived from Euclidean distance).
  double latency_s = 0.0;
};

/// Waxman/Brite generation constants: common Brite settings, and paper
/// Table I for link bandwidth.
inline constexpr double kWaxmanAlpha = 0.15;  ///< link probability scale
inline constexpr double kWaxmanBeta = 0.2;    ///< distance sensitivity
inline constexpr int kLinksPerNode = 2;       ///< Brite incremental-growth links per new node
inline constexpr double kPlaneSize = 1000.0;  ///< side of the square placement plane
inline constexpr double kMinBandwidthMbps = 0.1;
inline constexpr double kMaxBandwidthMbps = 10.0;
/// Latency per plane distance unit, seconds (~ 10 us/unit, i.e. roughly
/// fiber propagation if one unit is a kilometre).
inline constexpr double kLatencyPerUnitS = 1e-5;

/// Waxman/Brite generation parameters: the node count; the shape is the
/// constants above.
struct TopologyParams {
  int node_count = 100;

  void validate() const;  ///< throws std::invalid_argument when node_count < 1
};

/// An immutable undirected multigraph-free topology with node positions.
class Topology {
 public:
  /// Generates a connected Waxman topology; deterministic in `rng`.
  static Topology generate_waxman(const TopologyParams& params, util::Rng& rng);

  /// Builds a topology from an explicit link list (used by tests).
  static Topology from_links(int node_count, std::vector<Link> links);

  [[nodiscard]] int node_count() const { return static_cast<int>(positions_.size()); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] const Point& position(NodeId n) const;
  [[nodiscard]] const Link& link(LinkId l) const;
  [[nodiscard]] const std::vector<Link>& links() const { return links_; }

  /// Links incident to `n` (as link ids).
  [[nodiscard]] const std::vector<LinkId>& incident(NodeId n) const;

  /// Neighbor on the other side of link `l` from node `n`.
  [[nodiscard]] NodeId other_end(LinkId l, NodeId n) const;

  /// True when every node can reach every other node.
  [[nodiscard]] bool connected() const;

 private:
  std::vector<Point> positions_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> incident_;
};

}  // namespace dpjit::net
