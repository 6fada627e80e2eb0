#include "net/routing.hpp"

#include <cassert>
#include <cmath>
#include <limits>
#include <queue>
#include <vector>

#include "util/parallel.hpp"

namespace dpjit::net {
namespace {

/// Reusable per-worker Dijkstra scratch, allocated once per worker instead of
/// once per source.
struct DijkstraScratch {
  std::vector<double> dist;
  std::vector<LinkId> via;  // link used to reach node
  std::vector<int> parent;  // previous node on path

  explicit DijkstraScratch(std::size_t n) : dist(n), via(n), parent(n) {}
};

}  // namespace

void Routing::build_rows(const Topology& topo, int src_begin, int src_end) {
  using QEntry = std::pair<double, int>;  // (distance, node)
  DijkstraScratch scratch(static_cast<std::size_t>(n_));
  auto& dist = scratch.dist;
  auto& via = scratch.via;
  auto& parent = scratch.parent;

  for (int src = src_begin; src < src_end; ++src) {
    std::fill(dist.begin(), dist.end(), std::numeric_limits<double>::infinity());
    std::fill(via.begin(), via.end(), LinkId{});
    std::fill(parent.begin(), parent.end(), -1);
    std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> pq;
    dist[static_cast<std::size_t>(src)] = 0.0;
    pq.emplace(0.0, src);
    while (!pq.empty()) {
      auto [d, u] = pq.top();
      pq.pop();
      if (d > dist[static_cast<std::size_t>(u)]) continue;
      for (LinkId l : topo.incident(NodeId{u})) {
        if (link_up_[static_cast<std::size_t>(l.get())] == 0) continue;  // failed link
        const Link& link = topo.link(l);
        const int v = topo.other_end(l, NodeId{u}).get();
        const double nd = d + link.latency_s;
        // Strict improvement keeps the route deterministic (first-found wins on ties).
        if (nd < dist[static_cast<std::size_t>(v)]) {
          dist[static_cast<std::size_t>(v)] = nd;
          via[static_cast<std::size_t>(v)] = l;
          parent[static_cast<std::size_t>(v)] = u;
          pq.emplace(nd, v);
        }
      }
    }
    // Fill matrices: walk parents back to the source for bottleneck/next-hop.
    const NodeId s{src};
    latency_[idx(s, s)] = 0.0f;
    bandwidth_[idx(s, s)] = std::numeric_limits<float>::infinity();
    for (int v = 0; v < n_; ++v) {
      if (v == src || parent[static_cast<std::size_t>(v)] < 0) continue;
      const NodeId dst{v};
      latency_[idx(s, dst)] = static_cast<float>(dist[static_cast<std::size_t>(v)]);
      // Walk back from v to src accumulating the bottleneck and the first link.
      double bottleneck = std::numeric_limits<double>::infinity();
      int cur = v;
      LinkId first_link{};
      while (cur != src) {
        const LinkId l = via[static_cast<std::size_t>(cur)];
        bottleneck = std::min(bottleneck, topo.link(l).bandwidth_mbps);
        first_link = l;
        cur = parent[static_cast<std::size_t>(cur)];
      }
      bandwidth_[idx(s, dst)] = static_cast<float>(bottleneck);
      next_link_[idx(s, dst)] = first_link.get();
    }
  }
}

Routing::Routing(const Topology& topo, int threads) : n_(topo.node_count()), topo_(&topo) {
  link_up_.assign(static_cast<std::size_t>(topo.link_count()), 1);
  const auto nn = static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_);
  latency_.assign(nn, std::numeric_limits<float>::infinity());
  bandwidth_.assign(nn, 0.0f);
  next_link_.assign(nn, LinkId::kInvalid);

  // Each worker writes a disjoint contiguous block of source rows, so the
  // result is bit-identical to the serial build regardless of thread count.
  // n < 64 is not worth the thread spawns.
  util::parallel_for_blocks(static_cast<std::size_t>(n_), n_ < 64 ? 1 : threads,
                            [this, &topo](std::size_t begin, std::size_t end) {
                              build_rows(topo, static_cast<int>(begin), static_cast<int>(end));
                            });

  // Cache the all-pairs mean once; the scan order matches the original
  // on-demand implementation exactly, so the cached value is bit-identical.
  double sum = 0.0;
  std::size_t count = 0;
  for (int u = 0; u < n_; ++u) {
    for (int v = 0; v < n_; ++v) {
      if (u == v) continue;
      const float bw = bandwidth_[idx(NodeId{u}, NodeId{v})];
      if (bw > 0.0f && std::isfinite(bw)) {
        sum += bw;
        ++count;
      }
    }
  }
  mean_bandwidth_mbps_ = count == 0 ? 0.0 : sum / static_cast<double>(count);
}

double Routing::latency_s(NodeId u, NodeId v) const {
  assert(u.valid() && v.valid() && u.get() < n_ && v.get() < n_);
  return latency_[idx(u, v)];
}

double Routing::bandwidth_mbps(NodeId u, NodeId v) const {
  assert(u.valid() && v.valid() && u.get() < n_ && v.get() < n_);
  return bandwidth_[idx(u, v)];
}

int Routing::hops(NodeId u, NodeId v) const {
  return static_cast<int>(path_links(u, v).size());
}

void Routing::reset_row(int u) {
  const auto base = static_cast<std::size_t>(u) * static_cast<std::size_t>(n_);
  for (std::size_t k = 0; k < static_cast<std::size_t>(n_); ++k) {
    latency_[base + k] = std::numeric_limits<float>::infinity();
    bandwidth_[base + k] = 0.0f;
    next_link_[base + k] = LinkId::kInvalid;
  }
}

LinkId::underlying_type Routing::last_link(NodeId u, NodeId v) const {
  if (u == v) return LinkId::kInvalid;
  NodeId cur = u;
  auto last = LinkId::kInvalid;
  while (cur != v) {
    const auto raw = next_link_[idx(cur, v)];
    if (raw == LinkId::kInvalid) return LinkId::kInvalid;  // unreachable
    last = raw;
    cur = topo_->other_end(LinkId{raw}, cur);
  }
  return last;
}

void Routing::set_link_state(LinkId l, bool up) {
  auto& state = link_up_[static_cast<std::size_t>(l.get())];
  if ((state != 0) == up) return;
  state = up ? 1 : 0;
  const Link& link = topo_->link(l);
  const NodeId a = link.a;
  const NodeId b = link.b;

  // Which source rows can the change affect?
  //  - Failure: exactly the sources whose shortest-path tree used l. The tree
  //    edge into a node is the last link of the routed path to it, so l is in
  //    SPT(u) iff it is the parent edge of a or of b. (A link never chosen by
  //    Dijkstra's strict-improvement rule cannot influence any final row.)
  //  - Recovery: a path through l has the shape u ~> a -l-> b ~> v (or
  //    mirrored), of length lat(u,a) + L + lat(b,v) >= lat(u,b) + lat(b,v)
  //    >= lat(u,v) whenever lat(u,a) + L >= lat(u,b) (and symmetrically), so
  //    only sources with lat(u,a) + L <= lat(u,b) or the mirror can gain;
  //    <= instead of < absorbs the float rounding of the stored matrix.
  std::vector<int> affected;
  for (int u = 0; u < n_; ++u) {
    const NodeId src{u};
    bool hit = false;
    if (!up) {
      hit = (src != a && last_link(src, a) == l.get()) ||
            (src != b && last_link(src, b) == l.get());
    } else {
      const double da = latency_[idx(src, a)];
      const double db = latency_[idx(src, b)];
      hit = (std::isfinite(da) && da + link.latency_s <= db) ||
            (std::isfinite(db) && db + link.latency_s <= da);
    }
    if (hit) affected.push_back(u);
  }
  for (const int u : affected) {
    reset_row(u);
    build_rows(*topo_, u, u + 1);
  }
  repaired_rows_ += affected.size();
}

std::vector<LinkId> Routing::path_links(NodeId u, NodeId v) const {
  std::vector<LinkId> path;
  if (u == v) return path;
  NodeId cur = u;
  while (cur != v) {
    const auto raw = next_link_[idx(cur, v)];
    if (raw == LinkId::kInvalid) return {};  // unreachable
    const LinkId l{raw};
    path.push_back(l);
    cur = topo_->other_end(l, cur);
  }
  return path;
}

}  // namespace dpjit::net
