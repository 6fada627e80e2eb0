// Periodic process helper: Peersim-style cycle-driven protocols (gossip
// rounds, scheduling intervals, churn steps) on top of the event engine.
#pragma once

#include "sim/engine.hpp"

namespace dpjit::sim {

/// Invokes a callback every `interval` seconds starting at `start`.
/// The callback receives the cycle index (0, 1, 2, ...). Stop via stop() or by
/// destroying the process; destruction cancels the pending event.
class PeriodicProcess {
 public:
  using CycleFn = InlineFunction<void(std::uint64_t cycle)>;

  /// Does not start until start() is called.
  PeriodicProcess(Engine& engine, SimTime start, double interval, CycleFn fn);
  ~PeriodicProcess();

  PeriodicProcess(const PeriodicProcess&) = delete;
  PeriodicProcess& operator=(const PeriodicProcess&) = delete;

  /// Schedules the first cycle. Idempotent.
  void start();

  /// Cancels future cycles. Idempotent.
  void stop();

  [[nodiscard]] bool running() const { return running_; }

 private:
  void arm(SimTime t);

  Engine& engine_;
  SimTime start_;
  double interval_;
  CycleFn fn_;
  std::uint64_t cycle_ = 0;
  EventQueue::Handle pending_ = EventQueue::kInvalidHandle;
  bool running_ = false;
};

}  // namespace dpjit::sim
