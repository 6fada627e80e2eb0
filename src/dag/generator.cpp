#include "dag/generator.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string_view>

namespace dpjit::dag {
namespace {

/// One size draw from [lo, hi] under the requested family. The uniform path
/// consumes exactly one uniform (bit-compatible with the pre-distribution
/// generator); heavy tails are clamped back into the range.
double draw_size(util::Rng& rng, SizeDistribution dist, double lo, double hi, double shape) {
  switch (dist) {
    case SizeDistribution::kUniform: return rng.uniform(lo, hi);
    case SizeDistribution::kLogNormal: {
      const double mu = 0.5 * (std::log(lo) + std::log(hi));
      return std::clamp(rng.lognormal(mu, shape), lo, hi);
    }
    case SizeDistribution::kPareto: return std::min(rng.pareto(lo, shape), hi);
  }
  throw std::logic_error("draw_size: unknown distribution");
}

}  // namespace

void GeneratorParams::validate() const {
  auto check = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string("GeneratorParams: ") + what);
  };
  check(min_tasks >= 1 && min_tasks <= max_tasks, "task count bounds");
  check(min_load_mi >= 0 && min_load_mi <= max_load_mi, "load bounds");
  check(min_data_mb >= 0 && min_data_mb <= max_data_mb, "data bounds");
  if (load_distribution != SizeDistribution::kUniform) {
    check(min_load_mi > 0, "heavy-tailed load needs min_load_mi > 0");
    check(load_tail_shape > 0, "load tail shape > 0");
  }
  if (data_distribution != SizeDistribution::kUniform) {
    check(min_data_mb > 0, "heavy-tailed data needs min_data_mb > 0");
    check(data_tail_shape > 0, "data tail shape > 0");
  }
}

Workflow generate_workflow(WorkflowId id, const GeneratorParams& params, util::Rng& rng) {
  params.validate();
  Workflow wf(id);

  const int n = static_cast<int>(rng.uniform_int(params.min_tasks, params.max_tasks));
  const auto size = static_cast<std::size_t>(n);
  // Room for a virtual entry and exit; every task's out-degree stays within
  // kMaxFanout, and the virtual exit takes at most one in-edge per task.
  wf.reserve(size + 2, size * static_cast<std::size_t>(kMaxFanout + 1));
  for (int i = 0; i < n; ++i) {
    char name[16] = {'t'};
    const auto end = std::to_chars(name + 1, name + sizeof(name), i).ptr;
    wf.add_task(draw_size(rng, params.load_distribution, params.min_load_mi,
                          params.max_load_mi, params.load_tail_shape),
                rng.uniform(kMinImageMb, kMaxImageMb),
                std::string_view(name, static_cast<std::size_t>(end - name)));
  }

  const auto task = [](int i) { return TaskIndex{static_cast<TaskIndex::underlying_type>(i)}; };
  std::vector<int> outdeg(size, 0);
  // parent[i]: the precedent task i took in phase 1 (-1 for task 0).
  std::vector<int> parent(size, -1);
  std::vector<int> candidates;
  candidates.reserve(size);
  auto data = [&] {
    return draw_size(rng, params.data_distribution, params.min_data_mb, params.max_data_mb,
                     params.data_tail_shape);
  };

  // Phase 1 - connectivity: every task i>0 takes one precedent among the
  // earlier tasks that still have fan-out budget. During this phase at most
  // i-1 edges exist among the first i tasks, so a candidate always exists.
  for (int i = 1; i < n; ++i) {
    candidates.clear();
    for (int j = 0; j < i; ++j) {
      if (outdeg[static_cast<std::size_t>(j)] < kMaxFanout) candidates.push_back(j);
    }
    const int j = candidates[rng.index(candidates.size())];
    wf.add_dependency(task(j), task(i), data());
    ++outdeg[static_cast<std::size_t>(j)];
    parent[static_cast<std::size_t>(i)] = j;
  }

  // Phase 2 - densification: raise each task's out-degree toward a uniform
  // target, wiring to distinct later tasks (keeps the topological layout).
  for (int i = 0; i < n - 1; ++i) {
    const int target = static_cast<int>(rng.uniform_int(kMinFanout, kMaxFanout));
    const int later = n - 1 - i;
    const int want = std::min(target, later);
    if (outdeg[static_cast<std::size_t>(i)] >= want) continue;
    // Later tasks not already successors of i. Task i's only out-edges so far
    // are its phase-1 children: earlier rounds wired other sources.
    candidates.clear();
    for (int k = i + 1; k < n; ++k) {
      if (parent[static_cast<std::size_t>(k)] != i) candidates.push_back(k);
    }
    rng.shuffle(candidates);
    for (int k : candidates) {
      if (outdeg[static_cast<std::size_t>(i)] >= want) break;
      wf.add_dependency(task(i), task(k), data());
      ++outdeg[static_cast<std::size_t>(i)];
    }
  }

  wf.normalize();
  return wf;
}

}  // namespace dpjit::dag
