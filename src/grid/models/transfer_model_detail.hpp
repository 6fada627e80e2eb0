// Shared internals of the TransferManager's per-mode model files
// (transfer_manager.cpp, models/fluid_fair.cpp, models/quantised_fair.cpp).
#pragma once

namespace dpjit::grid::detail {

/// Remaining volume below this is considered delivered (numerical slack).
/// One definition for every mode: the quantised integration must agree with
/// the fluid pool on what "drained" means or the epoch->0 convergence breaks.
constexpr double kEpsilonMb = 1e-9;

}  // namespace dpjit::grid::detail
