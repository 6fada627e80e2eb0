#include "util/rng.hpp"

#include <cassert>
#include <cmath>

namespace dpjit::util {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

/// FNV-1a over a string, used to turn fork labels into seed material.
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Rng Rng::fork(std::string_view label) const {
  // Mix the parent's seed with the label hash; SplitMix64 in the constructor
  // decorrelates nearby values.
  std::uint64_t mixed = seed_ ^ (fnv1a(label) * 0x9e3779b97f4a7c15ULL);
  return Rng(mixed);
}

Rng Rng::fork(std::string_view label, std::uint64_t index) const {
  std::uint64_t mixed = seed_ ^ (fnv1a(label) * 0x9e3779b97f4a7c15ULL);
  mixed ^= (index + 1) * 0xff51afd7ed558ccdULL;
  return Rng(mixed);
}

double Rng::uniform01() {
  // 53-bit mantissa construction: uniform in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  assert(lo <= hi);
  return lo + (hi - lo) * uniform01();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  // Unsigned arithmetic: hi - lo and lo + r overflow std::int64_t on ranges
  // wider than 2^63.
  const std::uint64_t span = static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full 64-bit range
  // Rejection sampling to avoid modulo bias, with one division per draw.
  std::uint64_t v;
  std::uint64_t r;
  do {
    v = (*this)();
    r = v % span;
  } while (detail::rejects_draw(v, r, span));
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + r);
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

double Rng::exponential(double mean) {
  assert(mean > 0.0);
  double u;
  do {
    u = uniform01();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) {
  assert(stddev >= 0.0);
  // Box-Muller: u1 in (0, 1] keeps the log finite; always consumes exactly
  // two uniforms so interleaved streams stay aligned.
  const double u1 = 1.0 - uniform01();
  const double u2 = uniform01();
  const double r = std::sqrt(-2.0 * std::log(u1));
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  return mean + stddev * r * std::cos(kTwoPi * u2);
}

double Rng::lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

double Rng::weibull(double shape, double scale) {
  assert(shape > 0.0 && scale > 0.0);
  // Inverse CDF on u in (0, 1]: scale * (-ln u)^(1/shape). shape == 1 is the
  // exponential; shape < 1 gives the bursty heavy-tailed interarrivals of
  // real grid traces (Guazzone et al.).
  double u;
  do {
    u = uniform01();
  } while (u <= 0.0);
  return scale * std::pow(-std::log(u), 1.0 / shape);
}

double Rng::pareto(double scale, double alpha) {
  assert(scale > 0.0 && alpha > 0.0);
  // Inverse CDF on u in (0, 1].
  const double u = 1.0 - uniform01();
  return scale * std::pow(u, -1.0 / alpha);
}

std::size_t Rng::index(std::size_t n) {
  assert(n >= 1);
  return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  if (k >= n) return all;
  // Partial Fisher-Yates: the first k slots become the sample.
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t j = i + index(n - i);
    std::swap(all[i], all[j]);
  }
  all.resize(k);
  return all;
}

}  // namespace dpjit::util
