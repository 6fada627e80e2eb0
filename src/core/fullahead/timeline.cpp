#include "core/fullahead/timeline.hpp"

#include <algorithm>
#include <stdexcept>

namespace dpjit::core {
namespace {
/// Two intervals closer than this are considered touching, not overlapping.
constexpr double kEps = 1e-9;
}  // namespace

double Timeline::earliest_start(double ready_time, double duration) const {
  double candidate = ready_time;
  for (const auto& [start, end] : slots_) {
    if (end - start <= 0.0) continue;  // zero-width bookings occupy no time
    if (candidate + duration <= start + kEps) return candidate;  // fits in the gap
    candidate = std::max(candidate, end);
  }
  return candidate;
}

void Timeline::book(double start, double duration) {
  if (duration < 0.0) throw std::logic_error("Timeline::book: negative duration");
  const double end = start + duration;
  auto it = std::lower_bound(slots_.begin(), slots_.end(), std::make_pair(start, end));
  // Check the neighbours for overlap.
  if (it != slots_.begin()) {
    const auto& prev = *std::prev(it);
    if (prev.second > start + kEps) throw std::logic_error("Timeline::book: overlap (prev)");
  }
  if (it != slots_.end() && it->first < end - kEps) {
    throw std::logic_error("Timeline::book: overlap (next)");
  }
  slots_.insert(it, {start, end});
}

}  // namespace dpjit::core
