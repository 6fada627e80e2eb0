// Churn resilience demo (paper Section IV.B, dynamic environment).
//
// Runs the same workload under increasing dynamic factors, with and without
// the failed-task rescheduling extension (the paper's future work), and shows
// how throughput degrades while finished workflows keep stable completion
// times - and how rescheduling recovers the lost throughput.
//
//   ./churn_resilience [--nodes=200] [--hours=18]
#include <exception>
#include <iostream>

#include "exp/reporters.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "util/config.hpp"
#include "util/table_printer.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace dpjit;
  const auto cli = util::Config::from_args(argc, argv);

  exp::ExperimentConfig base;
  base.nodes = cli.get_int("nodes", 200);
  base.workflows_per_node = cli.get_int("workflows", 3);
  base.algorithm = cli.get_string("algorithm", "dsmf");
  base.seed = cli.get_int("seed", std::uint64_t{11});
  base.system.horizon_s = cli.get_double("hours", 18.0) * 3600.0;

  // The dynamic environments come from the scenario registry; "" is the
  // static base. The correlated-waves scenario shows what a flash outage
  // every 4th interval does on top of df=0.1.
  const auto& registry = exp::scenario_registry();
  std::vector<exp::ExperimentConfig> configs;
  std::vector<std::string> labels;
  for (const char* name :
       {"", "paper/dynamic-df10", "paper/dynamic-df20", "paper/dynamic-df40"}) {
    for (bool resched : {false, true}) {
      if (*name == '\0' && resched) continue;  // rescheduling is a no-op without churn
      exp::ExperimentConfig cfg = *name == '\0' ? base : registry.at(name).apply(base);
      cfg.nodes = base.nodes;  // keep the interactive scale, not the scenario's
      cfg.reschedule = resched;
      configs.push_back(cfg);
      labels.push_back("df=" + util::TablePrinter::fmt(cfg.dynamic_factor, 2) +
                       (resched ? "+resched" : ""));
    }
  }
  {
    exp::ExperimentConfig cfg = registry.at("churn/correlated-waves").apply(base);
    cfg.nodes = base.nodes;
    configs.push_back(cfg);
    labels.push_back("df=0.10+waves");
  }

  std::cout << "churn resilience: " << base.nodes << " peers (" << base.nodes / 2
            << " stable homes), algorithm=" << base.algorithm << "\n\n";
  const auto results = exp::run_sweep(configs);

  util::TablePrinter table(
      {"scenario", "finished", "submitted", "ACT(s)", "AE", "tasks_failed", "rescheduled"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    table.add_row({labels[i], std::to_string(r.workflows_finished),
                   std::to_string(r.workflows_submitted), util::TablePrinter::fmt(r.act, 6),
                   util::TablePrinter::fmt(r.ae, 4), std::to_string(r.tasks_failed),
                   std::to_string(r.tasks_rescheduled)});
  }
  table.print(std::cout);

  std::cout << "\nthroughput over time:\n";
  exp::print_time_series(std::cout, results, "throughput", labels);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A malformed or out-of-range value (--nodes=abc, --hours=-1) exits 1
  // naming the problem.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "churn_resilience: " << e.what() << "\n";
    return 1;
  }
}
