// Named, self-describing end-to-end scenarios.
//
// The ROADMAP's "as many scenarios as you can imagine" lives here: instead of
// each figure driver wiring its own ad-hoc Table-I sweep, a scenario is a
// registered, documented transform over ExperimentConfig — the paper's static
// and dynamic environments, the four CCR regimes, and extension workloads
// (Poisson open arrivals, flash-crowd bursts, heavy-tailed task sizes,
// correlated churn waves, mixed structured workflows). Every registered
// scenario is digest-checked end-to-end at a small-n conformance preset
// against tests/scenario/golden_digests.json, so a silent change of results
// anywhere in the stack fails the `scenario` ctest tier loudly.
#pragma once

#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "exp/experiment.hpp"

namespace dpjit::exp {

/// Coarse wall-clock expectation of a run at the scenario's full default
/// scale on one core (fast < ~5 s, medium < ~1 min, slow = minutes).
enum class RuntimeTier { kFast, kMedium, kSlow };

[[nodiscard]] std::string_view to_string(RuntimeTier tier);

/// A named end-to-end scenario: metadata plus a pure configuration transform.
struct Scenario {
  /// "family/variant", e.g. "paper/static-n500" or "burst/flash-crowd".
  std::string name;
  std::string description;
  /// Paper section the scenario reproduces; empty for extensions.
  std::string paper_section;
  RuntimeTier tier = RuntimeTier::kMedium;
  /// Shapes a base configuration. Must be pure: same input, same output.
  std::function<ExperimentConfig(ExperimentConfig)> transform;
  /// True for scale/* scenarios: the run executes the sharded scale model
  /// (exp::run_scale_model on sim::ShardEngine) instead of the full
  /// GridSystem world, and a shard count may be applied — with byte-identical
  /// digests at every count. Classic scenarios (every network mode, quantised/*
  /// included) run the whole GridSystem world on the serial engine and ignore
  /// any requested shard or thread count.
  bool sharded = false;

  /// Applies the transform to `base` (CLI/bench overrides survive unless the
  /// scenario explicitly owns the knob, e.g. "-n500" scenarios set nodes).
  [[nodiscard]] ExperimentConfig apply(ExperimentConfig base) const {
    return transform(std::move(base));
  }

  /// The scenario at its full default scale.
  [[nodiscard]] ExperimentConfig config() const { return apply(ExperimentConfig{}); }
};

/// Name-keyed scenario collection, iterable in sorted-name order.
class ScenarioRegistry {
 public:
  /// Registers a scenario. Throws std::invalid_argument on an empty/duplicate
  /// name or a missing transform.
  void add(Scenario scenario);

  /// Null when the name is unknown.
  [[nodiscard]] const Scenario* find(std::string_view name) const;

  /// Throws std::out_of_range (listing known names) when unknown.
  [[nodiscard]] const Scenario& at(std::string_view name) const;

  /// All scenarios in ascending name order.
  [[nodiscard]] const std::vector<Scenario>& all() const { return scenarios_; }

  /// Scenarios whose name starts with `prefix` (e.g. "ccr/"), sorted.
  [[nodiscard]] std::vector<const Scenario*> family(std::string_view prefix) const;

  [[nodiscard]] std::size_t size() const { return scenarios_.size(); }

 private:
  std::vector<Scenario> scenarios_;  // kept sorted by name
};

/// The built-in scenario library (built once, immutable afterwards).
[[nodiscard]] const ScenarioRegistry& scenario_registry();

/// The small-n conformance preset: shrinks any scenario configuration to a
/// deterministic sub-second run so every scenario can be golden-digest
/// checked in the test tier. Applied AFTER the scenario transform. The node
/// count scales with the scenario's full-size scale (see conformance_nodes),
/// so scale-distinguished scenarios (paper/static-n200/-n500/-n1000) keep
/// distinct conformance runs instead of collapsing onto one digest.
[[nodiscard]] ExperimentConfig conformance_preset(ExperimentConfig cfg);

/// The preset's node count for a scenario whose full scale is `full_nodes`:
/// full_nodes / 10, clamped into [kConformanceMinNodes, kConformanceMaxNodes].
[[nodiscard]] int conformance_nodes(int full_nodes);

inline constexpr int kConformanceMinNodes = 40;
inline constexpr int kConformanceMaxNodes = 64;

/// Runs one scenario under the conformance preset and digests the result.
[[nodiscard]] std::uint64_t conformance_digest(const Scenario& scenario);

/// Same, executing a sharded scenario at the given shard count (>= 1). The
/// digest is shard-invariant — tests/scenario and the shard-determinism CI
/// job check every count against the SAME golden entry. `shards` is applied
/// to scale/* scenarios (exp::run_scale_model) only; classic scenarios ignore
/// it (see Scenario::sharded).
[[nodiscard]] std::uint64_t conformance_digest(const Scenario& scenario, int shards);

/// Same, additionally pinning the worker-thread count of the sharded run
/// (also digest-neutral; the determinism tests sweep both axes).
[[nodiscard]] std::uint64_t conformance_digest(const Scenario& scenario, int shards, int threads);

/// Writes the canonical golden-digest document (valid JSON, one scenario per
/// line, sorted by name) — the exact bytes committed as
/// tests/scenario/golden_digests.json and emitted by `scenario_runner
/// --digest`, so `diff` works directly.
void write_digest_document(std::ostream& os,
                           const std::vector<std::pair<std::string, std::uint64_t>>& digests);

/// Parses a golden-digest document back into name -> digest. Throws
/// std::runtime_error on malformed input or a schema mismatch.
[[nodiscard]] std::map<std::string, std::uint64_t> parse_digest_document(std::istream& is);

}  // namespace dpjit::exp
