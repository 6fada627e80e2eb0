#include "net/topology.hpp"

#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace dpjit::net {

double distance(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

void TopologyParams::validate() const {
  if (node_count < 1) throw std::invalid_argument("TopologyParams: node_count >= 1");
}

Topology Topology::generate_waxman(const TopologyParams& params, util::Rng& rng) {
  params.validate();
  Topology topo;
  const int n = params.node_count;
  topo.positions_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    topo.positions_.push_back(Point{rng.uniform(0.0, kPlaneSize), rng.uniform(0.0, kPlaneSize)});
  }
  topo.incident_.resize(static_cast<std::size_t>(n));

  const double diag = kPlaneSize * std::numbers::sqrt2;
  auto waxman_weight = [&](int u, int v) {
    const double d = distance(topo.positions_[static_cast<std::size_t>(u)],
                              topo.positions_[static_cast<std::size_t>(v)]);
    return kWaxmanAlpha * std::exp(-d / (kWaxmanBeta * diag));
  };

  auto add_link = [&](int u, int v) {
    const double d = distance(topo.positions_[static_cast<std::size_t>(u)],
                              topo.positions_[static_cast<std::size_t>(v)]);
    Link link;
    link.a = NodeId{u};
    link.b = NodeId{v};
    link.bandwidth_mbps = rng.uniform(kMinBandwidthMbps, kMaxBandwidthMbps);
    link.latency_s = d * kLatencyPerUnitS;
    const LinkId id{static_cast<LinkId::underlying_type>(topo.links_.size())};
    topo.links_.push_back(link);
    topo.incident_[static_cast<std::size_t>(u)].push_back(id);
    topo.incident_[static_cast<std::size_t>(v)].push_back(id);
  };

  // Incremental growth: node i joins and picks up to kLinksPerNode distinct
  // existing nodes by Waxman-weighted roulette selection.
  for (int i = 1; i < n; ++i) {
    const int m = std::min(kLinksPerNode, i);
    std::vector<char> chosen(static_cast<std::size_t>(i), 0);
    for (int k = 0; k < m; ++k) {
      double total = 0.0;
      for (int j = 0; j < i; ++j) {
        if (!chosen[static_cast<std::size_t>(j)]) total += waxman_weight(i, j);
      }
      int pick = -1;
      if (total <= 0.0) {
        // Degenerate weights (numerically zero): fall back to uniform choice.
        int remaining = 0;
        for (int j = 0; j < i; ++j) remaining += chosen[static_cast<std::size_t>(j)] ? 0 : 1;
        int idx = static_cast<int>(rng.index(static_cast<std::size_t>(remaining)));
        for (int j = 0; j < i; ++j) {
          if (chosen[static_cast<std::size_t>(j)]) continue;
          if (idx-- == 0) {
            pick = j;
            break;
          }
        }
      } else {
        double r = rng.uniform(0.0, total);
        for (int j = 0; j < i; ++j) {
          if (chosen[static_cast<std::size_t>(j)]) continue;
          r -= waxman_weight(i, j);
          if (r <= 0.0) {
            pick = j;
            break;
          }
        }
        if (pick < 0) {  // floating point leftover: take the last unchosen
          for (int j = i - 1; j >= 0; --j) {
            if (!chosen[static_cast<std::size_t>(j)]) {
              pick = j;
              break;
            }
          }
        }
      }
      assert(pick >= 0);
      chosen[static_cast<std::size_t>(pick)] = 1;
      add_link(i, pick);
    }
  }
  return topo;
}

Topology Topology::from_links(int node_count, std::vector<Link> links) {
  if (node_count < 1) throw std::invalid_argument("from_links: node_count >= 1");
  Topology topo;
  topo.positions_.resize(static_cast<std::size_t>(node_count));
  topo.incident_.resize(static_cast<std::size_t>(node_count));
  for (const Link& link : links) {
    if (!link.a.valid() || !link.b.valid() || link.a.get() >= node_count ||
        link.b.get() >= node_count) {
      throw std::out_of_range("from_links: link endpoint out of range");
    }
    // Zero capacity is allowed: a dead/saturated link the fair-sharing model
    // assigns rate 0 across (the bottleneck model treats such paths as
    // unreachable). Note that routing is latency-shortest and bandwidth-blind,
    // so a dead link on the chosen route poisons that pair even when a live
    // detour exists - deliberate: a saturated link drops what is routed over
    // it. Generated Waxman topologies always have positive bounds.
    if (link.bandwidth_mbps < 0.0) throw std::invalid_argument("from_links: bandwidth < 0");
    const LinkId id{static_cast<LinkId::underlying_type>(topo.links_.size())};
    topo.links_.push_back(link);
    topo.incident_[static_cast<std::size_t>(link.a.get())].push_back(id);
    topo.incident_[static_cast<std::size_t>(link.b.get())].push_back(id);
  }
  return topo;
}

const Point& Topology::position(NodeId n) const {
  assert(n.valid() && static_cast<std::size_t>(n.get()) < positions_.size());
  return positions_[static_cast<std::size_t>(n.get())];
}

const Link& Topology::link(LinkId l) const {
  assert(l.valid() && static_cast<std::size_t>(l.get()) < links_.size());
  return links_[static_cast<std::size_t>(l.get())];
}

const std::vector<LinkId>& Topology::incident(NodeId n) const {
  assert(n.valid() && static_cast<std::size_t>(n.get()) < incident_.size());
  return incident_[static_cast<std::size_t>(n.get())];
}

NodeId Topology::other_end(LinkId l, NodeId n) const {
  const Link& link = this->link(l);
  assert(link.a == n || link.b == n);
  return link.a == n ? link.b : link.a;
}

bool Topology::connected() const {
  if (positions_.empty()) return true;
  std::vector<char> seen(positions_.size(), 0);
  std::vector<NodeId> stack{NodeId{0}};
  std::size_t count = 0;
  while (!stack.empty()) {
    NodeId u = stack.back();
    stack.pop_back();
    auto ui = static_cast<std::size_t>(u.get());
    if (seen[ui]) continue;
    seen[ui] = 1;
    ++count;
    for (LinkId l : incident_[ui]) stack.push_back(other_end(l, u));
  }
  return count == positions_.size();
}

}  // namespace dpjit::net
