// The paper's Section IV evaluation as one table of figure drivers.
//
// Each entry regenerates one table or figure of the paper (Table I, Figs.
// 3-14, the in-text FCFS table) or one of this repo's ablations, printing
// through exp/reporters to a caller-provided stream. `scenario_runner
// --figure=NAME` runs an entry; a bare `--figure` lists them. Every driver
// starts from a registered scenario (exp/scenario.hpp) at a reduced default
// scale; `--paper` (or an explicit --nodes=1000) runs at publication scale.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "exp/experiment.hpp"
#include "util/config.hpp"

namespace dpjit::exp {

/// The command-line overrides shared by `scenario_runner --run` and every
/// figure, applied in this order: --paper (n = 1000), --nodes, --workflows,
/// --seed, --hours. Absent flags leave the configuration untouched.
void apply_cli_overrides(const util::Config& cli, ExperimentConfig& cfg);

/// A registered scenario as a figure's base configuration: the scenario at
/// full scale, its node count replaced by `bench_scale_nodes` when > 0 (the
/// figure's reduced default scale), then apply_cli_overrides.
[[nodiscard]] ExperimentConfig figure_config(const util::Config& cli, std::string_view scenario,
                                             int bench_scale_nodes = 0);

/// One figure/table/ablation driver.
struct Figure {
  /// "fig04", "table1", "ablation_gossip", ...
  std::string name;
  /// What the entry reproduces; also its banner line.
  std::string title;
  /// Runs the experiment(s) and prints the result to the stream. Progress
  /// lines go to stderr.
  std::function<void(const util::Config& cli, std::ostream& os)> run;
};

/// Every figure, in paper order: Table I, Figs. 3-14, the in-text FCFS
/// table, then the ablations.
[[nodiscard]] const std::vector<Figure>& figure_table();

/// Null when the name is unknown.
[[nodiscard]] const Figure* find_figure(std::string_view name);

}  // namespace dpjit::exp
