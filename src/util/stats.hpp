// Percentiles for the metrics layer.
#pragma once

#include <vector>

namespace dpjit::util {

/// Percentile with linear interpolation over a *copy* of the data.
/// q in [0,1]; returns NaN for empty input.
[[nodiscard]] double percentile(std::vector<double> values, double q);

}  // namespace dpjit::util
