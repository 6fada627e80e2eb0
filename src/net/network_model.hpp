// The network-model seam (ROADMAP item 1, PR 9).
//
// Every layer that cares how transfers share the network - the
// grid::TransferManager that executes them, the live-rate probes the
// contention-aware policies consume, core::GridSystem's run loop, and the
// scenario registry - selects behaviour through this one enum instead of a
// scattered `bool fair_sharing`. The mode matrix below lists the properties
// the layers branch on:
//
//   mode            contended  lookahead            oracle path
//   --------------  ---------  -------------------  -------------------
//   bottleneck      no         n/a (no rate state)  static routed path
//   fluid-fair      yes        ZERO (a rate change  live what-if probe,
//                              is instantly global) probe cache keyed on
//                                                   the solver stamp
//   quantised-fair  yes        one epoch (rates     live what-if probe,
//                              frozen between       cache additionally
//                              barriers)            keyed on the barrier
//                                                   stamp
//
// Every mode runs the workflow world on the serial engine.
//
// Epoch-quantised fair sharing is the lookahead-compatible contended model:
// max-min rates are re-solved ONLY at epoch barriers t = kE and frozen in
// between, flows accrue volume against the frozen rates, and completions
// surface at barriers. A serial barrier loop drives it
// (grid::TransferManager::run_quantised).
#pragma once

#include <string_view>

namespace dpjit::net {

enum class NetworkMode {
  /// The paper's evaluation model: latency + size/bottleneck-bandwidth,
  /// transfers never contend.
  kBottleneck,
  /// Fluid max-min fair sharing, incrementally re-solved on every flow
  /// join/leave (the PR 4 ablation; zero lookahead).
  kFluidFair,
  /// Max-min fair sharing with rates frozen per epoch and re-solved only at
  /// epoch barriers (non-zero lookahead).
  kQuantisedFair,
};

/// Canonical spelling of `mode`, e.g. "quantised-fair" (scenario_runner
/// --describe prints it).
[[nodiscard]] std::string_view network_mode_name(NetworkMode mode);

}  // namespace dpjit::net
