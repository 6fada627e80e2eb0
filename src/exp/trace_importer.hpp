// Trace-driven workloads: importers for the two de-facto standard grid/cluster
// job-log formats and a fitted-generator path for replaying a trace's
// statistics synthetically at any scale.
//
//  - SWF (Standard Workload Format, Feitelson's Parallel Workloads Archive):
//    ';' comments carry header directives, data rows are 18 whitespace-
//    separated fields (job, submit, wait, runtime, allocated procs, ...,
//    status, user, ...), -1 marking a missing value.
//  - GWA (Grid Workloads Archive): '#' comments, 29 columns whose leading 12
//    share the SWF semantics.
//
// Parsing is tolerant of comments, blank lines and missing trailing columns,
// and *deterministically* normalizing for the rest: semantically bad rows
// (missing submit/runtime) are skipped with per-reason counts, zero runtimes
// and non-positive processor counts are clamped, out-of-order arrivals are
// stably re-sorted, and the whole trace is shifted so the first arrival is at
// t = 0. Structurally broken input (truncated data row, non-numeric field)
// throws std::runtime_error naming the line — never crashes, never guesses.
//
// The fitted path estimates Guazzone-style distributions from a parsed trace
// (Weibull interarrivals matched by mean/CV, lognormal runtimes from
// log-moments, empirical owner weights, processor-count histogram) and
// synthesizes an arbitrarily large workload from them with util::Rng — the
// open-stream heavy-traffic scenarios replay a small bundled sample at
// 1M-task scale this way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace dpjit::exp {

enum class TraceFormat {
  kAuto,  ///< Detect from the comment character / column count.
  kSwf,
  kGwa,
};

[[nodiscard]] std::string_view to_string(TraceFormat format);

/// One job of a parsed trace, after normalization.
struct TraceJob {
  std::int64_t id = 0;
  /// Arrival time in seconds, shifted so the trace's first arrival is 0.
  double submit_s = 0.0;
  /// Runtime in seconds; always > 0 after normalization.
  double runtime_s = 0.0;
  /// Allocated processors; always >= 1 after normalization. Drives the
  /// task count of the workflow a job is expanded into.
  int procs = 1;
  /// User id; always >= 0 after normalization (missing maps to 0).
  int owner = 0;
};

/// Per-reason counts of what normalization did — the parser never silently
/// drops a row without incrementing one of these.
struct TraceStats {
  std::size_t accepted = 0;
  std::size_t comment_lines = 0;
  std::size_t skipped_missing_submit = 0;
  std::size_t skipped_missing_runtime = 0;
  std::size_t normalized_zero_runtime = 0;
  std::size_t normalized_procs = 0;
  std::size_t normalized_owner = 0;
  /// Rows whose submit time preceded an earlier row's (re-sorted stably).
  std::size_t out_of_order = 0;
};

/// A parsed, normalized trace: jobs sorted by (submit_s, id), first at t = 0.
struct TraceWorkload {
  TraceFormat format = TraceFormat::kSwf;  ///< The detected/declared format.
  std::vector<TraceJob> jobs;
  /// Arrival span: submit time of the last job (0 for <= 1 job).
  double span_s = 0.0;
  TraceStats stats;
};

/// Parses a trace from a stream. Throws std::runtime_error with a line number
/// on structurally broken input; semantically bad rows are skipped/normalized
/// per TraceStats.
[[nodiscard]] TraceWorkload parse_trace(std::istream& in, TraceFormat format = TraceFormat::kAuto);

/// Parses in-memory trace text (scenario transforms embed the bundled sample
/// this way to stay pure).
[[nodiscard]] TraceWorkload parse_trace_text(std::string_view text,
                                             TraceFormat format = TraceFormat::kAuto);

/// Loads a trace file. Throws std::runtime_error when unreadable.
[[nodiscard]] TraceWorkload load_trace(const std::string& path,
                                       TraceFormat format = TraceFormat::kAuto);

/// Distribution estimates fitted from a trace (Guazzone-style workload model).
struct TraceFit {
  /// Interarrival Weibull(shape k, scale lambda), matched to the empirical
  /// mean and CV by bisection on CV^2(k) = G(1+2/k)/G(1+1/k)^2 - 1.
  double ia_shape = 1.0;
  double ia_scale = 3600.0;
  double ia_mean_s = 3600.0;
  /// Squared coefficient of variation of interarrivals: > 1 = burstier than
  /// Poisson (the per-owner clustering of real grid submissions shows up
  /// here, since owners submit in batches).
  double ia_cv2 = 1.0;

  /// Runtime lognormal: log-space moments plus the raw mean for scaling.
  double rt_mu = 0.0;
  double rt_sigma = 1.0;
  double rt_mean_s = 1.0;

  /// Empirical processor-count histogram (index 0 = 1 processor, ...).
  std::vector<double> procs_weights;
  /// Empirical owner weights, descending (owner identity is anonymized away;
  /// synthesis assigns dense ids 0..k-1 by rank).
  std::vector<double> owner_weights;

  std::size_t job_count = 0;
};

/// Fits distributions to a parsed trace. Requires at least 2 jobs (throws
/// std::invalid_argument otherwise — one interarrival is the minimum).
[[nodiscard]] TraceFit fit_trace(const TraceWorkload& workload);

/// Draws `count` synthetic jobs from a fit, deterministic in `rng`. Arrival
/// times are rescaled so the synthetic span equals `span_s` (> 0), preserving
/// the fitted interarrival *shape* while replaying at any traffic intensity.
[[nodiscard]] TraceWorkload synthesize_trace(const TraceFit& fit, std::size_t count,
                                             double span_s, util::Rng& rng);

}  // namespace dpjit::exp
