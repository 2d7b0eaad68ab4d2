#ifndef DIVPP_RNG_DISTRIBUTIONS_H
#define DIVPP_RNG_DISTRIBUTIONS_H

/// \file distributions.h
/// Bias-free sampling primitives used by the simulation engines.
///
/// All bounded integer sampling goes through Lemire's multiply-shift
/// method with rejection, which is exact (no modulo bias) and branch-light.
/// Counts and indices are signed 64-bit throughout the library (per the
/// C++ Core Guidelines' advice to avoid unsigned arithmetic), so these
/// helpers take and return std::int64_t.  The draws on engine hot paths
/// (uniform_below's accepting case, uniform01, exponential's fast path)
/// are inline; their rare branches live in distributions.cpp.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "rng/xoshiro.h"

namespace divpp::rng {

namespace detail {

/// Out-of-line tail of uniform_below: throws on bound < 1 (before any
/// draw), and finishes Lemire's rejection when the first product's low
/// word fell below the bound.
[[nodiscard]] std::int64_t uniform_below_slow(Xoshiro256& gen,
                                              std::int64_t bound,
                                              __uint128_t product);

/// The 256-layer exponential ziggurat (Marsaglia & Tsang): x[0] is the
/// base layer's width v·e^r (the tail folded in), x[1] = r, x[256] = 0,
/// and every layer i >= 1 spans [0, x[i]] × [f[i], f[i+1]] with
/// f = exp(−x) and area v.  Built by distributions.cpp's dynamic
/// initialisation, so no other static initialiser may draw from it.
struct ExpZiggurat {
  std::array<double, 257> x;
  std::array<double, 257> f;
};
extern const ExpZiggurat kExpZiggurat;

/// Out-of-line tail of exponential, for a draw that landed outside
/// layer `layer`'s inner rectangle at abscissa `x`: the tail beyond r,
/// or the wedge test and, on rejection, a fresh draw.
[[nodiscard]] double exponential_slow(Xoshiro256& gen, std::size_t layer,
                                      double x);

}  // namespace detail

/// Uniform draw from {0, 1, ..., bound-1}.  \pre bound >= 1
/// (\throws std::invalid_argument otherwise).
[[nodiscard]] inline std::int64_t uniform_below(Xoshiro256& gen,
                                                std::int64_t bound) {
  if (bound < 1) return detail::uniform_below_slow(gen, bound, 0);
  // Lemire's multiply-shift with rejection: exact uniformity.  The first
  // product is accepted unless its low word is below the bound.
  const auto range = static_cast<std::uint64_t>(bound);
  const __uint128_t product = static_cast<__uint128_t>(gen()) * range;
  if (static_cast<std::uint64_t>(product) < range)
    return detail::uniform_below_slow(gen, bound, product);
  return static_cast<std::int64_t>(product >> 64);
}

/// Uniform draw from {lo, ..., hi} inclusive.  \pre lo <= hi.
[[nodiscard]] std::int64_t uniform_int(Xoshiro256& gen, std::int64_t lo,
                                       std::int64_t hi);

/// Uniform double in [0, 1) with 53 random mantissa bits.
[[nodiscard]] inline double uniform01(Xoshiro256& gen) {
  return static_cast<double>(gen() >> 11) * 0x1.0p-53;
}

/// Bernoulli trial; returns true with probability p (clamped to [0,1]).
[[nodiscard]] bool bernoulli(Xoshiro256& gen, double p);

/// Ceiling returned by geometric_failures() when inversion overflows.
/// For p ≈ 0 the inversion value floor(log U / log(1-p)) can exceed the
/// int64 range (p = 1e-300 yields ~3.7e301); any value this large is far
/// beyond every horizon the engines use (jump chains cap skips at the
/// window edge), so clamping is observationally exact.  The constant is
/// below INT64_MAX by a comfortable margin so callers may add small
/// offsets (e.g. `time + skip`) without overflow.
inline constexpr std::int64_t kGeometricFailuresCeiling =
    std::int64_t{9'000'000'000'000'000'000};  // 9.0e18 < 2^63 - 1

/// Number of failures before the first success in iid Bernoulli(p) trials
/// (i.e. a geometric variable supported on {0, 1, 2, ...}).
/// Sampled by inversion so a single uniform suffices.  \pre p in (0, 1].
/// Edge behaviour: p == 1 returns 0 *without consuming a uniform* (the
/// outcome is deterministic, and skipping the draw keeps jump-chain RNG
/// sequences aligned across engines that special-case certain steps);
/// when p is so small that inversion exceeds the int64 range the result
/// is clamped to kGeometricFailuresCeiling (see its comment).
/// CountSimulation::advance_to draws the same law as ⌊exponential() / λ⌋
/// with λ = −log1p(−p) cached across draws: one transcendental call per
/// change of p instead of two per draw.  The other callers keep this
/// inversion, and e15's BM_GeometricFailures times it as the reference.
[[nodiscard]] std::int64_t geometric_failures(Xoshiro256& gen, double p);

/// Exp(1) draw from the 256-layer ziggurat (detail::ExpZiggurat).  Exact:
/// the layer index and the 53-bit abscissa come from disjoint bits of
/// one 64-bit word, the wedges are tested against exp(−x) itself, and
/// the tail beyond r ≈ 7.697 is r plus a fresh draw (memorylessness).
/// 97.8% of draws take the one-word fast path; the rest pay a wedge
/// test, a tail draw or a redraw (~1.035 words per draw on average).
[[nodiscard]] inline double exponential(Xoshiro256& gen) {
  const std::uint64_t bits = gen();
  const std::size_t layer = bits & 0xff;
  const double x = static_cast<double>(bits >> 11) * 0x1.0p-53 *
                   detail::kExpZiggurat.x[layer];
  if (x < detail::kExpZiggurat.x[layer + 1]) return x;
  return detail::exponential_slow(gen, layer, x);
}

/// Uniformly random pair of *distinct* indices from {0, ..., n-1}.
/// \pre n >= 2.
[[nodiscard]] std::pair<std::int64_t, std::int64_t> two_distinct(
    Xoshiro256& gen, std::int64_t n);

/// Samples an index i with probability weights[i] / sum(weights) by linear
/// scan.  Retained as the O(k) *reference* sampler: the engines' hot paths
/// use the Fenwick trees in sampling/fenwick.h, and the distributional
/// tests pin those trees against this scan.
/// \pre weights non-empty, all >= 0, sum > 0.
[[nodiscard]] std::int64_t sample_discrete(Xoshiro256& gen,
                                           std::span<const double> weights);

/// Same as sample_discrete but over integer counts — the O(k) reference
/// for sampling::FenwickCounts.  \pre total == sum(counts) > 0.
[[nodiscard]] std::int64_t sample_counts(Xoshiro256& gen,
                                         std::span<const std::int64_t> counts,
                                         std::int64_t total);

/// Fisher–Yates shuffle (deterministic given the generator state).
void shuffle(Xoshiro256& gen, std::span<std::int64_t> values);

/// A uniformly random permutation of {0, ..., n-1}.
[[nodiscard]] std::vector<std::int64_t> random_permutation(Xoshiro256& gen,
                                                           std::int64_t n);

// The Walker/Vose alias table moved to sampling/alias.h
// (divpp::sampling::AliasTable) as part of the sampling subsystem.

}  // namespace divpp::rng

#endif  // DIVPP_RNG_DISTRIBUTIONS_H
