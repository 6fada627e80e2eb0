// Optional structured trace of simulation activity.
//
// Tests use the trace to assert orderings (e.g. a task never starts before its
// inputs arrive); examples use it to narrate what the grid did. Disabled
// traces cost one branch per record call.
#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace dpjit::sim {

/// Category of a trace record; kept coarse on purpose.
enum class TraceKind {
  kDispatch,       ///< task sent from home node to resource node
  kTransferStart,  ///< data/image transfer started
  kTransferEnd,    ///< transfer delivered
  kExecStart,      ///< task began executing
  kExecEnd,        ///< task finished executing
  kWorkflowDone,   ///< workflow's exit task completed
  kNodeJoin,       ///< churn: node joined
  kNodeLeave,      ///< churn: node left
  kTaskFailed,     ///< task lost to churn
  kReschedule,     ///< extension: failed task re-entered the schedule-point set
  kReoffer,        ///< dispatched task pulled back (executor suspected dead)
  kLinkDown,       ///< fault injection: link failed
  kLinkUp,         ///< fault injection: link recovered
};

/// One trace record.
struct TraceRecord {
  SimTime time;
  TraceKind kind;
  NodeId node;      ///< primary node involved
  TaskRef task;     ///< task involved (may be invalid for node events)
  std::string note; ///< free-form detail
};

class Trace {
 public:
  /// Enables/disables recording (disabled by default).
  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Appends a record when enabled; the note is copied only then.
  void record(SimTime time, TraceKind kind, NodeId node, TaskRef task = {},
              std::string_view note = {}) {
    if (enabled_) append(time, kind, node, task, note);
  }

  [[nodiscard]] const std::vector<TraceRecord>& records() const { return records_; }
  void clear() { records_.clear(); }

  /// Counts records of one kind.
  [[nodiscard]] std::size_t count(TraceKind kind) const;

  /// Human-readable dump.
  void print(std::ostream& os) const;

 private:
  void append(SimTime time, TraceKind kind, NodeId node, TaskRef task, std::string_view note);

  bool enabled_ = false;
  std::vector<TraceRecord> records_;
};

/// Short name of a trace kind (for printing).
[[nodiscard]] const char* trace_kind_name(TraceKind kind);

}  // namespace dpjit::sim
