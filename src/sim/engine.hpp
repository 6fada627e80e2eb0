// The discrete-event simulation engine (our Peersim substitute).
//
// Components schedule callbacks at absolute or relative simulated times;
// the engine executes them in (time, insertion) order. Scheduling into the
// past (or at a NaN time) is a programming error and throws.
//
// A component that holds a sorted run of its own future events (the gossip
// layer's delivery rounds) keeps one of them pending at a time, each under a
// sequence number reserved when the event was created. When that event runs,
// take_next() lets it run its successors in place for as long as the run loop
// would have picked them next anyway, so the order and the event count are
// exactly those of scheduling every event separately.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>

#include "sim/event_queue.hpp"

namespace dpjit::sim {

class Engine {
 public:
  /// Current simulated time in seconds.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn` at absolute simulated time `t` (>= now and not NaN, or
  /// throws).
  EventQueue::Handle schedule_at(SimTime t, EventFn fn);

  /// Schedules `fn` after `delay` seconds (>= 0 and not NaN, or throws).
  EventQueue::Handle schedule_in(double delay, EventFn fn);

  /// Reserves an insertion sequence number for a later schedule_reserved().
  [[nodiscard]] std::uint64_t reserve_seq() { return queue_.reserve_seq(); }

  /// Schedules `fn` at absolute time `t` (>= now and not NaN, or throws)
  /// under a sequence number from reserve_seq().
  EventQueue::Handle schedule_reserved(SimTime t, std::uint64_t seq, EventFn fn);

  /// Called by a running event: true when the run loop would run an event
  /// keyed (t, seq) next - `t` is within the current run_until end, no stop
  /// was requested, the caller is not inside step(), and (t, seq) orders
  /// before every pending event. Then the caller runs that event itself:
  /// now() is `t` and processed() counts it. False changes nothing; the
  /// caller schedules the event instead.
  [[nodiscard]] bool take_next(SimTime t, std::uint64_t seq);

  /// Cancels a pending event; false if it already fired or was cancelled.
  bool cancel(EventQueue::Handle h);

  /// Time of the earliest pending event. Requires pending() > 0.
  [[nodiscard]] SimTime next_event_time() const { return queue_.next_time(); }

  /// Pre-sizes the event slab for `n` concurrently pending events (capacity
  /// hint from the experiment configuration; purely an allocation saver).
  void reserve(std::size_t n) { queue_.reserve(n); }

  /// Executes one event if any is pending. Returns false when idle. The
  /// event cannot take_next() others, so this runs exactly one.
  bool step();

  /// Runs until the queue drains or simulated time would exceed `end`.
  /// Events at exactly `end` still run; `now()` is `end` afterwards
  /// (unless the queue drained earlier, in which case it is the last event time).
  void run_until(SimTime end);

  /// Runs until the queue drains completely.
  void run_all();

  /// Makes run_until / run_all return after the current event completes.
  void request_stop() { stop_requested_ = true; }

  /// Number of events executed so far.
  [[nodiscard]] std::uint64_t processed() const { return processed_; }

  /// Number of pending events.
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  /// The most events ever pending at once (observability; events a component
  /// holds back for take_next() are not pending).
  [[nodiscard]] std::size_t pending_max() const { return pending_max_; }

  /// Read-only view of the underlying queue (slab-capacity inspection).
  [[nodiscard]] const EventQueue& queue() const { return queue_; }

 private:
  static constexpr SimTime kNoTake = -std::numeric_limits<SimTime>::infinity();

  /// Schedules under `seq` and tracks pending_max().
  EventQueue::Handle insert(SimTime t, std::uint64_t seq, EventFn fn);
  /// Pops and runs the earliest event. Requires pending() > 0.
  void run_next();

  EventQueue queue_;
  SimTime now_ = 0.0;
  /// Latest time take_next() may run an event at: the run_until end inside a
  /// run loop, -infinity outside one and inside step().
  SimTime take_until_ = kNoTake;
  std::uint64_t processed_ = 0;
  std::size_t pending_max_ = 0;
  bool stop_requested_ = false;
};

}  // namespace dpjit::sim
