#include "exp/trace_importer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace dpjit::exp {
namespace {

/// The floor zero-runtime jobs are clamped to (a 0 s job would collapse to a
/// zero-load workflow and divide-by-zero the efficiency metric).
constexpr double kMinRuntimeS = 1.0;

std::vector<std::string_view> split_fields(std::string_view line) {
  std::vector<std::string_view> fields;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r')) ++i;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t' && line[i] != '\r') ++i;
    if (i > start) fields.push_back(line.substr(start, i - start));
  }
  return fields;
}

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw std::runtime_error("trace parse error at line " + std::to_string(line_no) + ": " + what);
}

double parse_number(std::string_view field, std::size_t line_no, const char* name) {
  // strtod on a NUL-terminated copy: trace fields are short, and strtod's
  // end-pointer check is the only portable full-consumption test.
  char buf[64];
  if (field.empty() || field.size() >= sizeof(buf)) fail(line_no, std::string(name) + " field malformed");
  std::copy(field.begin(), field.end(), buf);
  buf[field.size()] = '\0';
  char* end = nullptr;
  const double v = std::strtod(buf, &end);
  if (end != buf + field.size() || !std::isfinite(v)) {
    fail(line_no, "non-numeric " + std::string(name) + " field '" + std::string(field) + "'");
  }
  return v;
}

/// Column layout shared by SWF and GWA's leading fields (0-based).
constexpr std::size_t kColJob = 0;
constexpr std::size_t kColSubmit = 1;
constexpr std::size_t kColRuntime = 3;
constexpr std::size_t kColProcs = 4;
constexpr std::size_t kColUser = 11;
/// A data row must carry at least through the processor count.
constexpr std::size_t kMinFields = kColProcs + 1;
/// GWA rows have 29 columns, SWF 18; anything past this is called GWA.
constexpr std::size_t kGwaDetectFields = 20;

char comment_char(TraceFormat format) { return format == TraceFormat::kGwa ? '#' : ';'; }

}  // namespace

std::string_view to_string(TraceFormat format) {
  switch (format) {
    case TraceFormat::kAuto: return "auto";
    case TraceFormat::kSwf: return "swf";
    case TraceFormat::kGwa: return "gwa";
  }
  return "unknown";
}

TraceWorkload parse_trace(std::istream& in, TraceFormat format) {
  TraceWorkload out;
  out.format = format == TraceFormat::kAuto ? TraceFormat::kSwf : format;

  std::string line;
  std::size_t line_no = 0;
  bool detected = format != TraceFormat::kAuto;
  double prev_submit = -std::numeric_limits<double>::infinity();

  while (std::getline(in, line)) {
    ++line_no;
    std::string_view sv = line;
    // Strip a trailing CR so CRLF traces parse identically to LF ones.
    if (!sv.empty() && sv.back() == '\r') sv.remove_suffix(1);
    const std::size_t first = sv.find_first_not_of(" \t");
    if (first == std::string_view::npos) continue;  // blank

    if (!detected) {
      // First non-blank line decides: the comment character is format-unique,
      // and a bare data row is told apart by its column count.
      if (sv[first] == ';') {
        out.format = TraceFormat::kSwf;
        detected = true;
      } else if (sv[first] == '#') {
        out.format = TraceFormat::kGwa;
        detected = true;
      } else {
        out.format = split_fields(sv).size() >= kGwaDetectFields ? TraceFormat::kGwa
                                                                 : TraceFormat::kSwf;
        detected = true;
      }
    }
    if (sv[first] == comment_char(out.format)) {
      ++out.stats.comment_lines;
      continue;
    }

    const auto fields = split_fields(sv);
    if (fields.size() < kMinFields) {
      fail(line_no, "truncated row: need >= " + std::to_string(kMinFields) + " fields, got " +
                        std::to_string(fields.size()));
    }

    TraceJob job;
    job.id = static_cast<std::int64_t>(parse_number(fields[kColJob], line_no, "job id"));
    job.submit_s = parse_number(fields[kColSubmit], line_no, "submit time");
    job.runtime_s = parse_number(fields[kColRuntime], line_no, "runtime");
    const double procs = parse_number(fields[kColProcs], line_no, "processor count");
    const double user = fields.size() > kColUser
                            ? parse_number(fields[kColUser], line_no, "user id")
                            : -1.0;

    // Semantic normalization: skip what cannot be placed on the timeline,
    // clamp what merely needs a floor. Every decision increments a counter.
    if (job.submit_s < 0.0) {
      ++out.stats.skipped_missing_submit;
      continue;
    }
    if (job.runtime_s < 0.0) {
      ++out.stats.skipped_missing_runtime;
      continue;
    }
    if (job.runtime_s < kMinRuntimeS) {
      job.runtime_s = kMinRuntimeS;
      ++out.stats.normalized_zero_runtime;
    }
    if (procs < 1.0) {
      job.procs = 1;
      ++out.stats.normalized_procs;
    } else {
      job.procs = static_cast<int>(procs);
    }
    if (user < 0.0) {
      job.owner = 0;
      if (fields.size() > kColUser) ++out.stats.normalized_owner;
    } else {
      job.owner = static_cast<int>(user);
    }

    if (job.submit_s < prev_submit) ++out.stats.out_of_order;
    prev_submit = std::max(prev_submit, job.submit_s);
    ++out.stats.accepted;
    out.jobs.push_back(job);
  }

  // Deterministic ordering + origin shift: equal (submit, id) pairs keep
  // their file order, and the first arrival defines t = 0.
  std::stable_sort(out.jobs.begin(), out.jobs.end(), [](const TraceJob& a, const TraceJob& b) {
    if (a.submit_s != b.submit_s) return a.submit_s < b.submit_s;
    return a.id < b.id;
  });
  if (!out.jobs.empty()) {
    const double t0 = out.jobs.front().submit_s;
    for (auto& j : out.jobs) j.submit_s -= t0;
    out.span_s = out.jobs.back().submit_s;
  }
  return out;
}

TraceWorkload parse_trace_text(std::string_view text, TraceFormat format) {
  std::istringstream in{std::string(text)};
  return parse_trace(in, format);
}

TraceWorkload load_trace(const std::string& path, TraceFormat format) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  return parse_trace(in, format);
}

namespace {

/// CV^2 of Weibull(k, .): Gamma(1+2/k)/Gamma(1+1/k)^2 - 1, strictly
/// decreasing in k (k = 1 is exponential, CV^2 = 1). Via lgamma for range.
double weibull_cv2(double k) {
  return std::exp(std::lgamma(1.0 + 2.0 / k) - 2.0 * std::lgamma(1.0 + 1.0 / k)) - 1.0;
}

/// Inverts CV^2(k) by bisection on k in [0.08, 20] (CV^2 from ~1e-2 to ~1e5
/// over that range — wider than any sane trace). Clamps at the ends.
double weibull_shape_for_cv2(double cv2) {
  double lo = 0.08, hi = 20.0;
  if (cv2 >= weibull_cv2(lo)) return lo;
  if (cv2 <= weibull_cv2(hi)) return hi;
  for (int it = 0; it < 80; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (weibull_cv2(mid) > cv2) {
      lo = mid;  // CV^2 too high -> need larger k; function decreases in k
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace

TraceFit fit_trace(const TraceWorkload& workload) {
  const auto& jobs = workload.jobs;
  if (jobs.size() < 2) {
    throw std::invalid_argument("fit_trace: need >= 2 jobs (one interarrival)");
  }
  TraceFit fit;
  fit.job_count = jobs.size();

  // Interarrivals: first and second moments of the (sorted) arrival gaps.
  double ia_sum = 0.0, ia_sq = 0.0;
  const std::size_t n_ia = jobs.size() - 1;
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    const double d = jobs[i].submit_s - jobs[i - 1].submit_s;
    ia_sum += d;
    ia_sq += d * d;
  }
  fit.ia_mean_s = ia_sum / static_cast<double>(n_ia);
  if (fit.ia_mean_s > 0.0) {
    const double var =
        std::max(0.0, ia_sq / static_cast<double>(n_ia) - fit.ia_mean_s * fit.ia_mean_s);
    fit.ia_cv2 = var / (fit.ia_mean_s * fit.ia_mean_s);
    fit.ia_shape = weibull_shape_for_cv2(fit.ia_cv2);
    // E[Weibull(k, lambda)] = lambda * Gamma(1 + 1/k).
    fit.ia_scale = fit.ia_mean_s / std::exp(std::lgamma(1.0 + 1.0 / fit.ia_shape));
  } else {
    // All jobs at the same instant (fully batched trace): degenerate to a
    // nominal Poisson hour so synthesis still spreads arrivals.
    fit.ia_mean_s = 3600.0;
    fit.ia_cv2 = 1.0;
    fit.ia_shape = 1.0;
    fit.ia_scale = 3600.0;
  }

  // Runtimes: lognormal via log-moments (runtimes are > 0 post-normalization).
  double log_sum = 0.0, log_sq = 0.0, rt_sum = 0.0;
  for (const auto& j : jobs) {
    const double l = std::log(j.runtime_s);
    log_sum += l;
    log_sq += l * l;
    rt_sum += j.runtime_s;
  }
  const double n = static_cast<double>(jobs.size());
  fit.rt_mu = log_sum / n;
  fit.rt_sigma = std::sqrt(std::max(0.0, log_sq / n - fit.rt_mu * fit.rt_mu));
  fit.rt_mean_s = rt_sum / n;

  // Processor counts: empirical histogram (normalized).
  int max_procs = 1;
  for (const auto& j : jobs) max_procs = std::max(max_procs, j.procs);
  fit.procs_weights.assign(static_cast<std::size_t>(max_procs), 0.0);
  for (const auto& j : jobs) fit.procs_weights[static_cast<std::size_t>(j.procs - 1)] += 1.0;
  for (auto& w : fit.procs_weights) w /= n;

  // Owners: job share per distinct owner, descending. Identity is dropped —
  // rank order is all the burstiness/locality model needs.
  std::vector<std::pair<int, std::size_t>> per_owner;
  for (const auto& j : jobs) {
    auto it = std::find_if(per_owner.begin(), per_owner.end(),
                           [&](const auto& p) { return p.first == j.owner; });
    if (it == per_owner.end()) {
      per_owner.emplace_back(j.owner, 1);
    } else {
      ++it->second;
    }
  }
  std::stable_sort(per_owner.begin(), per_owner.end(),
                   [](const auto& a, const auto& b) { return a.second > b.second; });
  fit.owner_weights.reserve(per_owner.size());
  for (const auto& [owner, count] : per_owner) {
    fit.owner_weights.push_back(static_cast<double>(count) / n);
  }
  return fit;
}

TraceWorkload synthesize_trace(const TraceFit& fit, std::size_t count, double span_s,
                               util::Rng& rng) {
  if (span_s <= 0.0) throw std::invalid_argument("synthesize_trace: span_s must be > 0");
  TraceWorkload out;
  out.format = TraceFormat::kSwf;
  out.jobs.reserve(count);
  if (count == 0) return out;

  // Cumulative weights for the categorical draws.
  auto draw_categorical = [&rng](const std::vector<double>& weights) -> std::size_t {
    double total = 0.0;
    for (double w : weights) total += w;
    if (total <= 0.0 || weights.empty()) return 0;
    double ticket = rng.uniform(0.0, total);
    for (std::size_t i = 0; i < weights.size(); ++i) {
      if (ticket < weights[i]) return i;
      ticket -= weights[i];
    }
    return weights.size() - 1;
  };

  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    TraceJob job;
    job.id = static_cast<std::int64_t>(i + 1);
    job.submit_s = t;
    t += rng.weibull(fit.ia_shape, fit.ia_scale);
    job.runtime_s = std::max(kMinRuntimeS, rng.lognormal(fit.rt_mu, fit.rt_sigma));
    job.procs = fit.procs_weights.empty()
                    ? 1
                    : static_cast<int>(draw_categorical(fit.procs_weights)) + 1;
    job.owner = fit.owner_weights.empty()
                    ? 0
                    : static_cast<int>(draw_categorical(fit.owner_weights));
    out.jobs.push_back(job);
  }

  // Rescale arrivals onto the requested span. Weibull is closed under
  // scaling, so this only retunes the scale parameter, not the burst shape.
  const double raw_span = out.jobs.back().submit_s;
  if (raw_span > 0.0) {
    const double factor = span_s / raw_span;
    for (auto& j : out.jobs) j.submit_s *= factor;
    out.jobs.back().submit_s = span_s;  // pin exactly (kills FP drift at the end)
  }
  out.span_s = out.jobs.back().submit_s;
  out.stats.accepted = count;
  return out;
}

}  // namespace dpjit::exp
