// Deterministic pseudo-random number generation for reproducible simulation.
//
// The simulator must be bit-reproducible across runs given the same seed, and
// sub-streams (topology, workload, per-node gossip, churn...) must be
// independent so that, e.g., changing the number of workflows does not perturb
// the topology. We therefore use a SplitMix64-seeded xoshiro256** generator
// with an explicit `fork(label)` operation deriving decorrelated child streams.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace dpjit::util {

namespace detail {

/// Rng::uniform_int's rejection test for a raw draw `v` with r = v % span:
/// true exactly when v is at or above the largest multiple of span that is
/// <= 2^64-1. v - r is the multiple of span at or below v, and it reaches that
/// limit when a further span does not fit below 2^64-1.
[[nodiscard]] constexpr bool rejects_draw(std::uint64_t v, std::uint64_t r, std::uint64_t span) {
  return ~0ULL - (v - r) < span;
}

}  // namespace detail

/// xoshiro256** PRNG (Blackman & Vigna), seeded via SplitMix64.
/// Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Creates a generator from a 64-bit seed (any value, including 0, is fine).
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit output.
  result_type operator()();

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Derives an independent child stream. The same (parent seed, label) pair
  /// always yields the same child, so component streams are stable even when
  /// other components consume a different amount of randomness.
  [[nodiscard]] Rng fork(std::string_view label) const;

  /// Same as fork(label) but with an integer discriminator (e.g. a node id).
  [[nodiscard]] Rng fork(std::string_view label, std::uint64_t index) const;

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in the inclusive range [lo, hi]. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean);

  /// Normally distributed value (Box-Muller; consumes two uniforms per call).
  double normal(double mean, double stddev);

  /// Log-normally distributed value: exp(N(mu, sigma)) with mu/sigma in
  /// log-space. sigma > 1 gives the heavy right tail of real grid workloads.
  double lognormal(double mu, double sigma);

  /// Weibull value with shape k > 0 and scale lambda > 0 (inverse CDF).
  /// shape == 1 reduces to exponential(scale); shape < 1 models the bursty
  /// interarrival times mined from real grid traces.
  double weibull(double shape, double scale);

  /// Pareto (Type I) value with scale xm > 0 and tail index alpha > 0:
  /// support [xm, inf), P(X > x) = (xm/x)^alpha. Small alpha = heavier tail.
  double pareto(double scale, double alpha);

  /// Picks one element uniformly from {0, ..., n-1}. Requires n >= 1.
  std::size_t index(std::size_t n);

  /// Picks a uniform element of a non-empty vector.
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    return v[index(v.size())];
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    if (v.size() < 2) return;
    for (std::size_t i = v.size() - 1; i > 0; --i) {
      std::size_t j = index(i + 1);
      using std::swap;
      swap(v[i], v[j]);
    }
  }

  /// Samples k distinct indices from {0,...,n-1} (k > n yields all n).
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

 private:
  std::uint64_t s_[4];

  /// 64-bit seed of this stream (kept so fork() can derive children).
  std::uint64_t seed_;
};

}  // namespace dpjit::util
