#include "rng/distributions.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace divpp::rng {

namespace detail {

std::int64_t uniform_below_slow(Xoshiro256& gen, std::int64_t bound,
                                __uint128_t product) {
  if (bound < 1) throw std::invalid_argument("uniform_below: bound must be >= 1");
  const auto range = static_cast<std::uint64_t>(bound);
  const std::uint64_t threshold = (0 - range) % range;
  while (static_cast<std::uint64_t>(product) < threshold)
    product = static_cast<__uint128_t>(gen()) * range;
  return static_cast<std::int64_t>(product >> 64);
}

namespace {

/// Marsaglia & Tsang's 256-layer constants for Exp(1): the base layer's
/// right edge r and the common layer area v = (r + 1)·e^{−r}.
constexpr double kExpZigguratR = 7.69711747013104972;
constexpr double kExpZigguratV = 0.0039496598225815571993;

ExpZiggurat build_exp_ziggurat() {
  ExpZiggurat z{};
  z.x[0] = kExpZigguratV * std::exp(kExpZigguratR);
  z.x[1] = kExpZigguratR;
  z.f[1] = std::exp(-kExpZigguratR);
  for (std::size_t i = 1; i < 255; ++i) {
    z.f[i + 1] = z.f[i] + kExpZigguratV / z.x[i];
    z.x[i + 1] = -std::log(z.f[i + 1]);
  }
  z.x[256] = 0.0;
  z.f[256] = 1.0;
  return z;
}

}  // namespace

const ExpZiggurat kExpZiggurat = build_exp_ziggurat();

double exponential_slow(Xoshiro256& gen, std::size_t layer, double x) {
  // Beyond r in the base layer lies the tail, which is r + Exp(1).
  if (layer == 0) return kExpZigguratR + exponential(gen);
  // In a wedge: accept under the curve, otherwise start afresh.
  const double y = kExpZiggurat.f[layer] +
                   (kExpZiggurat.f[layer + 1] - kExpZiggurat.f[layer]) *
                       uniform01(gen);
  return y < std::exp(-x) ? x : exponential(gen);
}

}  // namespace detail

std::int64_t uniform_int(Xoshiro256& gen, std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("uniform_int: lo must be <= hi");
  return lo + uniform_below(gen, hi - lo + 1);
}

bool bernoulli(Xoshiro256& gen, double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01(gen) < p;
}

std::int64_t geometric_failures(Xoshiro256& gen, double p) {
  if (!(p > 0.0) || p > 1.0)
    throw std::invalid_argument("geometric_failures: p must be in (0, 1]");
  if (p == 1.0) return 0;  // deterministic: no uniform consumed
  // Inversion: floor(log(U) / log(1-p)) with U in (0, 1].
  double u = 1.0 - uniform01(gen);  // in (0, 1]
  const double denom = std::log1p(-p);
  const double value = std::floor(std::log(u) / denom);
  // Overflow guard: for p ≈ 0 the quotient exceeds the int64 range (the
  // smallest representable U bounds |log U| by ~37, so value can reach
  // ~37/p, or ±inf/NaN when log1p underflows to -0); clamp to the
  // documented ceiling instead of invoking UB in the float→int
  // conversion.  Negated comparison so NaN also lands on the ceiling.
  if (!(value < static_cast<double>(kGeometricFailuresCeiling)))
    return kGeometricFailuresCeiling;
  return static_cast<std::int64_t>(value);
}

std::pair<std::int64_t, std::int64_t> two_distinct(Xoshiro256& gen,
                                                   std::int64_t n) {
  if (n < 2) throw std::invalid_argument("two_distinct: need n >= 2");
  const std::int64_t first = uniform_below(gen, n);
  std::int64_t second = uniform_below(gen, n - 1);
  if (second >= first) ++second;
  return {first, second};
}

std::int64_t sample_discrete(Xoshiro256& gen,
                             std::span<const double> weights) {
  if (weights.empty())
    throw std::invalid_argument("sample_discrete: empty weight vector");
  double total = 0.0;
  for (const double w : weights) {
    if (w < 0.0)
      throw std::invalid_argument("sample_discrete: negative weight");
    total += w;
  }
  if (!(total > 0.0))
    throw std::invalid_argument("sample_discrete: weights sum to zero");
  double target = uniform01(gen) * total;
  for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return static_cast<std::int64_t>(i);
  }
  return static_cast<std::int64_t>(weights.size() - 1);
}

std::int64_t sample_counts(Xoshiro256& gen,
                           std::span<const std::int64_t> counts,
                           std::int64_t total) {
  if (total <= 0) throw std::invalid_argument("sample_counts: total <= 0");
  std::int64_t target = uniform_below(gen, total);
  for (std::size_t i = 0; i + 1 < counts.size(); ++i) {
    target -= counts[i];
    if (target < 0) return static_cast<std::int64_t>(i);
  }
  return static_cast<std::int64_t>(counts.size() - 1);
}

void shuffle(Xoshiro256& gen, std::span<std::int64_t> values) {
  const auto n = static_cast<std::int64_t>(values.size());
  for (std::int64_t i = n - 1; i > 0; --i) {
    const std::int64_t j = uniform_below(gen, i + 1);
    std::swap(values[static_cast<std::size_t>(i)],
              values[static_cast<std::size_t>(j)]);
  }
}

std::vector<std::int64_t> random_permutation(Xoshiro256& gen, std::int64_t n) {
  if (n < 0) throw std::invalid_argument("random_permutation: n must be >= 0");
  std::vector<std::int64_t> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), std::int64_t{0});
  shuffle(gen, perm);
  return perm;
}

}  // namespace divpp::rng
