#include "exp/reporters.hpp"

#include <stdexcept>

#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/table_printer.hpp"

namespace dpjit::exp {
namespace {

const std::vector<CurvePoint>& select_curve(const ExperimentResult& r, const std::string& which) {
  if (which == "throughput") return r.throughput;
  if (which == "act") return r.act_over_time;
  if (which == "ae") return r.ae_over_time;
  throw std::invalid_argument("unknown series: " + which);
}

std::vector<std::string> effective_labels(const std::vector<ExperimentResult>& results,
                                          const std::vector<std::string>& labels) {
  if (!labels.empty()) return labels;
  std::vector<std::string> out;
  out.reserve(results.size());
  for (const auto& r : results) out.push_back(r.algorithm);
  return out;
}

}  // namespace

void print_summary_table(std::ostream& os, const std::vector<ExperimentResult>& results) {
  util::TablePrinter table({"algorithm", "finished", "submitted", "ACT(s)", "AE", "response(s)",
                            "tasks_failed", "rescheduled", "wall(s)"});
  for (const auto& r : results) {
    table.add_row({r.algorithm, std::to_string(r.workflows_finished),
                   std::to_string(r.workflows_submitted), util::TablePrinter::fmt(r.act, 6),
                   util::TablePrinter::fmt(r.ae, 4), util::TablePrinter::fmt(r.mean_response, 6),
                   std::to_string(r.tasks_failed), std::to_string(r.tasks_rescheduled),
                   util::TablePrinter::fmt(r.wall_seconds, 3)});
  }
  table.print(os);
}

void print_time_series(std::ostream& os, const std::vector<ExperimentResult>& results,
                       const std::string& which, const std::vector<std::string>& labels) {
  if (results.empty()) return;
  const auto names = effective_labels(results, labels);
  std::vector<std::string> headers{"hour"};
  headers.insert(headers.end(), names.begin(), names.end());
  util::TablePrinter table(headers);
  const std::size_t points = select_curve(results.front(), which).size();
  for (std::size_t i = 0; i < points; ++i) {
    std::vector<std::string> row;
    row.push_back(
        util::TablePrinter::fmt(select_curve(results.front(), which)[i].time / 3600.0, 3));
    for (const auto& r : results) {
      const auto& curve = select_curve(r, which);
      row.push_back(i < curve.size() ? util::TablePrinter::fmt(curve[i].value, 5) : "");
    }
    table.add_row(std::move(row));
  }
  table.print(os);
}

void write_time_series_csv(std::ostream& os, const std::vector<ExperimentResult>& results,
                           const std::string& which, const std::vector<std::string>& labels) {
  if (results.empty()) return;
  const auto names = effective_labels(results, labels);
  util::CsvWriter csv(os);
  std::vector<std::string> header{"hour"};
  header.insert(header.end(), names.begin(), names.end());
  csv.row(header);
  const std::size_t points = select_curve(results.front(), which).size();
  for (std::size_t i = 0; i < points; ++i) {
    std::vector<std::string> row;
    row.push_back(util::CsvWriter::num(select_curve(results.front(), which)[i].time / 3600.0));
    for (const auto& r : results) {
      const auto& curve = select_curve(r, which);
      row.push_back(i < curve.size() ? util::CsvWriter::num(curve[i].value) : "");
    }
    csv.row(row);
  }
}

void print_sweep_table(std::ostream& os, const std::string& x_name,
                       const std::vector<std::string>& x_values,
                       const std::vector<std::string>& series_names,
                       const std::vector<std::vector<double>>& values) {
  std::vector<std::string> headers{x_name};
  headers.insert(headers.end(), series_names.begin(), series_names.end());
  util::TablePrinter table(headers);
  for (std::size_t i = 0; i < x_values.size(); ++i) {
    std::vector<std::string> row{x_values[i]};
    for (std::size_t s = 0; s < series_names.size(); ++s) {
      row.push_back(i < values[s].size() ? util::TablePrinter::fmt(values[s][i], 5) : "");
    }
    table.add_row(std::move(row));
  }
  table.print(os);
}

void write_results_json(std::ostream& os, const std::vector<ExperimentResult>& results) {
  util::JsonWriter json(os);
  json.begin_array();
  for (const auto& r : results) {
    json.begin_object();
    json.kv("algorithm", std::string_view(r.algorithm));
    json.kv("nodes", static_cast<std::int64_t>(r.nodes));
    json.kv("workflows_per_node", static_cast<std::int64_t>(r.workflows_per_node));
    json.kv("seed", static_cast<std::uint64_t>(r.seed));
    json.kv("workflows_submitted", static_cast<std::uint64_t>(r.workflows_submitted));
    json.kv("workflows_finished", static_cast<std::uint64_t>(r.workflows_finished));
    json.kv("act_s", r.act);
    json.kv("ae", r.ae);
    json.kv("mean_response_s", r.mean_response);
    json.kv("converged_rss_size", r.converged_rss_size);
    json.kv("tasks_dispatched", r.tasks_dispatched);
    json.kv("tasks_failed", r.tasks_failed);
    json.kv("tasks_rescheduled", r.tasks_rescheduled);
    json.kv("tasks_reoffered", r.tasks_reoffered);
    json.kv("schedule_points_offered", r.schedule_points_offered);
    json.kv("gossip_messages", r.gossip_messages);
    json.kv("gossip_bytes", r.gossip_bytes);
    json.kv("gossip_floor_rejections", r.gossip_floor_rejections);
    json.kv("solver_resumed", r.solver_resumed);
    json.kv("solver_full", r.solver_full);
    json.kv("probe_cache_hits", r.probe_cache_hits);
    json.kv("probe_cache_misses", r.probe_cache_misses);
    json.kv("link_aborts", r.link_aborts);
    json.kv("events_processed", r.events_processed);
    json.kv("live_reports", static_cast<std::uint64_t>(r.live_reports));
    json.kv("ct_p50_s", r.ct_p50);
    json.kv("ct_p95_s", r.ct_p95);
    json.kv("ct_p99_s", r.ct_p99);
    json.kv("ready_depth_max", r.ready_depth_max);
    json.kv("pending_max", r.pending_max);
    json.kv("fault_messages_lost", r.fault_messages_lost);
    json.kv("fault_messages_duplicated", r.fault_messages_duplicated);
    json.kv("fault_messages_delayed", r.fault_messages_delayed);
    json.kv("fault_link_failures", r.fault_link_failures);
    json.kv("fault_link_recoveries", r.fault_link_recoveries);
    json.kv("fault_node_crashes", r.fault_node_crashes);
    json.kv("fault_node_restarts", r.fault_node_restarts);
    json.kv("detector_suspicions", r.detector_suspicions);
    json.kv("detector_refutations", r.detector_refutations);
    json.kv("detector_declared_dead", r.detector_declared_dead);
    json.kv("gossip_messages_suppressed", r.gossip_messages_suppressed);
    json.kv("churn_steps", r.churn_steps);
    json.kv("churn_leaves", r.churn_leaves);
    json.kv("churn_joins", r.churn_joins);
    json.kv("quantised_barriers", r.quantised_barriers);
    json.kv("routing_repaired_rows", r.routing_repaired_rows);
    json.kv("wall_seconds", r.wall_seconds);
    const std::pair<const char*, const std::vector<CurvePoint>*> curves[] = {
        {"throughput", &r.throughput},
        {"act_over_time", &r.act_over_time},
        {"ae_over_time", &r.ae_over_time},
    };
    for (const auto& [name, curve] : curves) {
      json.key(name);
      json.begin_array();
      for (const auto& p : *curve) {
        json.begin_array().value(p.time).value(p.value).end_array();
      }
      json.end_array();
    }
    json.end_object();
  }
  json.end_array();
  os << '\n';
}

}  // namespace dpjit::exp
