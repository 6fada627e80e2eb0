// Live-network rate queries for contention-aware scheduling.
//
// The first scheduling phase estimates transfer costs when ranking candidate
// resource nodes (Eq. 4's LTD term). The baseline policies use *static*
// estimates - gossiped averages or landmark coordinates - which ignore what
// the network is doing right now. The live-rate oracle answers the question
// those policies cannot ask: "if a new transfer started on this path at this
// instant, what rate would it actually get, and when would it finish?"
//
// grid::TransferManager answers it (predicted_rate_mbps,
// expected_transfer_time_s) for every network model:
//  - bottleneck mode: the routed path's bottleneck bandwidth (transfers do
//    not contend, so the static answer is also the live one);
//  - fair-sharing modes: a what-if probe of the incremental max-min solver
//    (net::FairShareSolver::probe_rate) - the rate the flow would be
//    allocated against the *current* set of in-flight transfers, without
//    mutating any solver state.
//
// The oracle reports instantaneous conditions: a fair-mode rate holds until
// the next flow arrival/completion re-solves the component, so predicted
// transfer times are extrapolations, not guarantees. That is exactly the
// quality of information a just-in-time scheduler can act on.
#pragma once

#include <cmath>

#include "util/types.hpp"

namespace dpjit::net {

/// The canonical transfer-time ladder of the live-rate oracle:
/// `latency + size / rate` with the edge cases pinned in one place
/// (unreachable pair -> +inf, empty payload -> latency only, saturated
/// zero-rate path -> +inf, infinite rate -> latency only). Loopback is the
/// caller's job (src == dst costs 0 before any latency lookup).
[[nodiscard]] inline double transfer_time_from_rate(double latency_s, double rate_mbps,
                                                    double size_mb) {
  if (!std::isfinite(latency_s)) return kInf;
  if (size_mb <= 0.0) return latency_s;
  if (rate_mbps <= 0.0) return kInf;
  if (std::isinf(rate_mbps)) return latency_s;
  return latency_s + size_mb / rate_mbps;
}

}  // namespace dpjit::net
