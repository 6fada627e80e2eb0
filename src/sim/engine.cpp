#include "sim/engine.hpp"

#include <algorithm>
#include <stdexcept>

namespace dpjit::sim {

// The time checks are negated so that NaN fails them too.

EventQueue::Handle Engine::schedule_at(SimTime t, EventFn fn) {
  if (!(t >= now_)) throw std::logic_error("Engine::schedule_at: time is in the past or NaN");
  return insert(t, queue_.reserve_seq(), std::move(fn));
}

EventQueue::Handle Engine::schedule_in(double delay, EventFn fn) {
  if (!(delay >= 0.0)) throw std::logic_error("Engine::schedule_in: negative or NaN delay");
  return insert(now_ + delay, queue_.reserve_seq(), std::move(fn));
}

EventQueue::Handle Engine::schedule_reserved(SimTime t, std::uint64_t seq, EventFn fn) {
  if (!(t >= now_)) {
    throw std::logic_error("Engine::schedule_reserved: time is in the past or NaN");
  }
  return insert(t, seq, std::move(fn));
}

EventQueue::Handle Engine::insert(SimTime t, std::uint64_t seq, EventFn fn) {
  const EventQueue::Handle h = queue_.schedule_reserved(t, seq, std::move(fn));
  pending_max_ = std::max(pending_max_, queue_.size());
  return h;
}

bool Engine::take_next(SimTime t, std::uint64_t seq) {
  if (!(t <= take_until_) || !queue_.precedes_next(t, seq)) return false;
  now_ = t;
  ++processed_;
  return true;
}

bool Engine::cancel(EventQueue::Handle h) { return queue_.cancel(h); }

void Engine::run_next() {
  auto [t, fn] = queue_.pop();
  now_ = t;
  ++processed_;
  fn();
}

bool Engine::step() {
  if (queue_.empty()) return false;
  const SimTime outer = std::exchange(take_until_, kNoTake);
  run_next();
  take_until_ = outer;
  return true;
}

void Engine::run_until(SimTime end) {
  const SimTime outer = std::exchange(take_until_, end);
  while (!queue_.empty() && queue_.next_time() <= end) run_next();
  take_until_ = outer;
  if (now_ < end) now_ = end;
}

void Engine::run_all() {
  const SimTime outer = std::exchange(take_until_, std::numeric_limits<SimTime>::infinity());
  while (!queue_.empty()) run_next();
  take_until_ = outer;
}

}  // namespace dpjit::sim
