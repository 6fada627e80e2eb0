// Figure-config parity: the figure drivers were moved from hand-rolled
// configs onto the scenario registry; these digests were recorded from the
// pre-registry drivers, so exp::figure_config must reproduce the old outputs
// bit-identically. They double as a standing regression net for the whole
// stack at figure scales (bigger n than the conformance preset).
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "exp/figures.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"

namespace dpjit::exp {
namespace {

util::Config cli_from(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return util::Config::from_args(static_cast<int>(args.size()), args.data());
}

// Recorded from the pre-registry fig04 driver (Table-I defaults at n=200,
// --nodes=64): one digest per algorithm in across_algorithms order.
struct AlgoDigest {
  const char* algorithm;
  std::uint64_t digest;
};
constexpr AlgoDigest kFig04N64[] = {
    {"dheft", 7349063439217761596ULL},
    {"heft", 13560073497829356213ULL},
    {"maxmin", 9910605002200691914ULL},
    {"minmin", 8704180494732171477ULL},
    {"dsdf", 649670137986840733ULL},
    {"sufferage", 11512441263546402226ULL},
    {"dsmf", 13356348578863560070ULL},
    {"smf", 16565475073514119892ULL},
};

TEST(BenchParity, Fig04ScenarioPathReproducesPrePortDigests) {
  const auto base = figure_config(cli_from({"--nodes=64"}), "paper/static-n200");
  EXPECT_EQ(base.nodes, 64);
  const auto results = run_sweep(across_algorithms(base));
  ASSERT_EQ(results.size(), std::size(kFig04N64));
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].algorithm, kFig04N64[i].algorithm);
    EXPECT_EQ(result_digest(results[i]), kFig04N64[i].digest) << results[i].algorithm;
  }
}

// Recorded from the pre-registry fig11 driver (Table-I defaults at n=100,
// algorithm=dsmf) at its first two scales.
constexpr std::pair<int, std::uint64_t> kFig11Scales[] = {
    {100, 4652137975387078828ULL},
    {200, 13379726274966425877ULL},
};

TEST(BenchParity, Fig11ScenarioPathReproducesPrePortDigests) {
  auto base = figure_config(cli_from({}), "paper/static-n1000", /*bench_scale_nodes=*/100);
  base.algorithm = "dsmf";
  std::vector<ExperimentConfig> configs;
  for (const auto& [n, digest] : kFig11Scales) {
    ExperimentConfig cfg = base;
    cfg.nodes = n;
    configs.push_back(cfg);
  }
  const auto results = run_sweep(configs);
  ASSERT_EQ(results.size(), std::size(kFig11Scales));
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(result_digest(results[i]), kFig11Scales[i].second)
        << "n=" << kFig11Scales[i].first;
  }
}

// The n=500 DSMF end-to-end anchor first recorded by the retired perf
// harness; ties exp::result_digest to that published fingerprint.
TEST(BenchParity, Fig11PerfAnchorN500MatchesRecordedDigest) {
  ExperimentConfig cfg = scenario_registry().at("paper/static-n500").config();
  EXPECT_EQ(cfg.nodes, 500);
  EXPECT_EQ(cfg.algorithm, "dsmf");
  const auto result = run_experiment(cfg);
  EXPECT_EQ(result_digest(result), 9659472094034910224ULL);
}

// `--figure` (figure_config) and `--run` (the scenario config, then
// apply_cli_overrides) must apply the shared overrides identically.
TEST(BenchParity, FigureAndRunApplyCliOverridesIdentically) {
  const std::vector<std::vector<const char*>> cases = {
      {"--nodes=80", "--workflows=5", "--seed=9", "--hours=12"},
      {"--paper"},
      {"--paper", "--nodes=300"},
      {}};
  for (const auto& args : cases) {
    const auto cli = cli_from(args);
    const std::string text = args.empty() ? "" : args.front();
    const auto figure = figure_config(cli, "paper/static-n200");
    ExperimentConfig run = scenario_registry().at("paper/static-n200").config();
    apply_cli_overrides(cli, run);
    EXPECT_EQ(figure.nodes, run.nodes) << text;
    EXPECT_EQ(figure.workflows_per_node, run.workflows_per_node) << text;
    EXPECT_EQ(figure.seed, run.seed) << text;
    EXPECT_EQ(figure.system.horizon_s, run.system.horizon_s) << text;
  }

  const auto overridden = figure_config(
      cli_from({"--nodes=80", "--workflows=5", "--seed=9", "--hours=12"}), "paper/static-n200");
  EXPECT_EQ(overridden.nodes, 80);
  EXPECT_EQ(overridden.workflows_per_node, 5);
  EXPECT_EQ(overridden.seed, 9u);
  EXPECT_DOUBLE_EQ(overridden.system.horizon_s, 12 * 3600.0);

  const auto defaults = figure_config(cli_from({}), "paper/static-n200", 64);
  EXPECT_EQ(defaults.nodes, 64);
  EXPECT_EQ(defaults.workflows_per_node, 3);
  EXPECT_EQ(defaults.seed, 1u);
  EXPECT_DOUBLE_EQ(defaults.system.horizon_s, 36 * 3600.0);

  EXPECT_EQ(figure_config(cli_from({"--paper"}), "paper/static-n200", 64).nodes, 1000);
  EXPECT_EQ(figure_config(cli_from({"--paper", "--nodes=300"}), "paper/static-n200").nodes, 300);
}

}  // namespace
}  // namespace dpjit::exp
