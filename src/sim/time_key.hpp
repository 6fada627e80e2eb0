// Order-preserving integer encoding of event times, shared by the pending-event
// sets (sim::EventQueue, sim::TwoTierQueue): comparing encoded keys as
// integers orders them exactly as comparing the times as doubles.
#pragma once

#include <bit>
#include <cstdint>

#include "util/types.hpp"

namespace dpjit::sim {

/// Maps a double to an integer with the same ordering (IEEE total-order
/// trick: flip all bits of negatives, flip the sign bit of non-negatives).
/// -0.0 is normalized to +0.0 first so key equality matches `==` on
/// doubles, which keeps the FIFO tie-break exactly as before.
[[nodiscard]] inline std::uint64_t encode_time(SimTime t) {
  const auto k = std::bit_cast<std::uint64_t>(t + 0.0);
  constexpr std::uint64_t kSign = 0x8000000000000000ULL;
  return k ^ ((k & kSign) != 0 ? ~std::uint64_t{0} : kSign);
}

/// Inverse of encode_time.
[[nodiscard]] inline SimTime decode_time(std::uint64_t k) {
  constexpr std::uint64_t kSign = 0x8000000000000000ULL;
  return std::bit_cast<SimTime>(k ^ ((k & kSign) != 0 ? kSign : ~std::uint64_t{0}));
}

}  // namespace dpjit::sim
