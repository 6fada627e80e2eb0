// Presentation of experiment results: the figure drivers print the same rows
// and series the paper's tables and figures report, in aligned text tables
// and optionally CSV.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "exp/experiment.hpp"

namespace dpjit::exp {

/// Prints one summary row per result: algorithm, finished/submitted, ACT, AE,
/// response, failures. The paper's "converged" numbers.
void print_summary_table(std::ostream& os, const std::vector<ExperimentResult>& results);

/// Prints a "metric vs time" table: one row per bucket (hours), one column per
/// result (labelled by algorithm) - the textual form of Figs. 4-6 and 12-14.
/// `which` selects the series: "throughput", "act" or "ae".
void print_time_series(std::ostream& os, const std::vector<ExperimentResult>& results,
                       const std::string& which,
                       const std::vector<std::string>& labels = {});

/// Emits the same series as CSV (for external plotting).
void write_time_series_csv(std::ostream& os, const std::vector<ExperimentResult>& results,
                           const std::string& which,
                           const std::vector<std::string>& labels = {});

/// Prints a sweep table: one row per result with a caller-provided x column
/// (e.g. load factor or system scale) and the chosen metric per algorithm.
void print_sweep_table(std::ostream& os, const std::string& x_name,
                       const std::vector<std::string>& x_values,
                       const std::vector<std::string>& series_names,
                       const std::vector<std::vector<double>>& values);

/// Writes the full result set (summary scalars + all three curves per result)
/// as one JSON document, for downstream plotting/analysis tooling.
void write_results_json(std::ostream& os, const std::vector<ExperimentResult>& results);

}  // namespace dpjit::exp
