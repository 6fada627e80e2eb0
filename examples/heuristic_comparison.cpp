// Head-to-head of all eight scheduling algorithms on one workload - a small-
// scale interactive version of the paper's Figs. 4-6.
//
//   ./heuristic_comparison [--scenario=paper/static-n200] [--nodes=128]
//                          [--workflows=3] [--hours=36] [--csv]
#include <iostream>

#include "exp/reporters.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "util/config.hpp"

int main(int argc, char** argv) {
  using namespace dpjit;
  const auto cli = util::Config::from_args(argc, argv);

  // Any registered scenario works as the common workload for the head-to-head
  // (e.g. --scenario=tail/heavy-tailed-loads compares under heavy tails).
  const auto scenario = cli.get_string("scenario", "paper/static-n200");
  exp::ExperimentConfig base = exp::scenario_registry().at(scenario).config();
  base.nodes = cli.get_int("nodes", 128);
  base.workflows_per_node = cli.get_int("workflows", 3);
  base.seed = cli.get_int("seed", std::uint64_t{3});
  base.system.horizon_s = cli.get_double("hours", 36.0) * 3600.0;

  std::cout << "comparing the paper's eight algorithms on " << base.nodes << " peers, "
            << base.workflows_per_node << " workflows/node (scenario " << scenario << ")\n\n";

  const auto results = exp::run_sweep(exp::across_algorithms(base));

  exp::print_summary_table(std::cout, results);
  std::cout << "\naverage finish-time over time (Fig. 5 shape):\n";
  exp::print_time_series(std::cout, results, "act");
  std::cout << "\naverage efficiency over time (Fig. 6 shape):\n";
  exp::print_time_series(std::cout, results, "ae");

  if (cli.get_bool("csv", false)) {
    std::cout << "\n--- CSV (throughput) ---\n";
    exp::write_time_series_csv(std::cout, results, "throughput");
  }
  if (cli.get_bool("json", false)) {
    std::cout << "\n--- JSON (full results) ---\n";
    exp::write_results_json(std::cout, results);
  }
  return 0;
}
