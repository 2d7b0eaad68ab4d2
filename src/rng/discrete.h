#ifndef DIVPP_RNG_DISCRETE_H
#define DIVPP_RNG_DISCRETE_H

/// \file discrete.h
/// Exact samplers for the classical counting distributions.
///
/// These are the primitives the collision-batch engine
/// (batch/collision_batch.h) is built on: a batch of interactions is
/// applied to the lumped count state not one draw at a time but through
/// binomial / hypergeometric / multinomial splits, so the per-sample cost
/// of these functions bounds the per-batch cost of the engine.
///
///  * binomial()        — a Bernoulli loop for n <= 16, BINV inversion
///    when n·min(p,1-p) < 10, BTRD transformed rejection otherwise
///    (Hörmann 1993), so the cost is O(1) for any (n, p) instead of
///    O(n·p);
///  * hypergeometric()  — HRUA-style ratio-of-uniforms rejection
///    (Stadlober 1990) in O(1) expected time when the distribution is
///    wide (variance >= kRejectionVarianceCutoff), falling back to the
///    PR-3 mode-centred chop-down kernel below the cutoff, where the
///    O(1 + sd) walk is cheaper than the rejection setup and the
///    historical chi-square pins keep exercising the inversion path;
///  * full_pairs()      — the same two-regime dispatch over the
///    slot-occupancy law of a uniform perfect matching;
///  * multinomial()     — conditional binomial chain;
///  * multivariate_hypergeometric() — sampling without replacement from
///    per-class counts: an urn walk for small samples, the binomial
///    chain's multinomial with an exact acceptance correction when the
///    sample is small against the pool, and the conditional
///    hypergeometric chain otherwise;
///  * multivariate_hypergeometric_pairs() — disjoint pairs without
///    replacement, tallied as members and monochromatic pairs per class:
///    where the multinomial path above would apply, one walk of three
///    binomials per class under the same acceptance correction;
///    otherwise the member split followed by a slot-occupancy chain of
///    hypergeometric() and full_pairs() draws.
///
/// The rejection kernels are what make the collision-batch engine's
/// per-batch constant independent of n: every draw the batcher issues
/// used to cost O(n^{1/4}) pmf evaluations, now O(1) — see bench
/// e20_batch and BENCH_pr4.json for the measured effect on the
/// batch-vs-jump crossover.
///
/// All samplers are *exact*: they realise the textbook pmf up to the
/// accuracy of double-precision pmf evaluation, not an asymptotic
/// approximation.  tests/test_discrete.cpp pins each of them against the
/// naive loop (n Bernoulli trials, urn draws one ball at a time) and
/// against the lgamma-evaluated pmf with chi-square tests under fixed
/// seeds, in both the inversion and the rejection regime, and pins the
/// dispatchers bit-identically to the chop-down kernels below the
/// cutoff.

#include <cstdint>
#include <span>
#include <vector>

#include "rng/xoshiro.h"

namespace divpp::rng {

/// Number of successes in n independent Bernoulli(p) trials.
/// \pre n >= 0 and p in [0, 1].  O(1) expected time for all (n, p).
[[nodiscard]] std::int64_t binomial(Xoshiro256& gen, std::int64_t n,
                                    double p);

/// Dispatch thresholds between the chop-down inversion kernels and the
/// HRUA ratio-of-uniforms rejection kernels.  A draw uses rejection
/// (O(1) expected time) when its variance is at least
/// kRejectionVarianceCutoff AND its pmf arguments are beyond the
/// log-factorial table (where the chop-down setup pays ~6 Stirling
/// evaluations); with all arguments inside the table the setup is a
/// handful of lookups and the O(1 + sd) walk stays cheaper up to
/// kRejectionInTableVarianceCutoff (~25 standard deviations of walk).
/// Every path is exact, so the cutoffs are distributionally invisible;
/// they are pinned by bit-identity tests (tests/test_discrete.cpp) so
/// moving them is a deliberate act.
inline constexpr double kRejectionVarianceCutoff = 9.0;
inline constexpr double kRejectionInTableVarianceCutoff = 625.0;

/// Largest argument the log-factorial lookup table covers (the
/// in-table/Stirling boundary the dispatch above refers to).
inline constexpr std::int64_t kLogFactTableSize = 65536;

/// Forces the shared log-factorial table to exist now.  The table is a
/// lazily built function-local static (thread-safe, built once per
/// process), so the first sampler to touch it pays the 64 Ki lgamma
/// build; shared contexts (context/sampler_context.h) warm it eagerly so
/// no scenario pays that cost mid-run.
void warm_log_fact_table();

/// Number of marked items in a uniform sample of `draws` items, taken
/// without replacement from a population of `total` items of which
/// `marked` are marked.  \pre 0 <= marked <= total, 0 <= draws <= total.
/// O(1) expected time: HRUA rejection for wide distributions
/// (variance >= kRejectionVarianceCutoff), chop-down inversion
/// (hypergeometric_chopdown) below.
[[nodiscard]] std::int64_t hypergeometric(Xoshiro256& gen, std::int64_t total,
                                          std::int64_t marked,
                                          std::int64_t draws);

/// The PR-3 mode-centred chop-down kernel, exact for every parameter set
/// in O(1 + sd) expected pmf evaluations.  hypergeometric() delegates to
/// this below kRejectionVarianceCutoff; exposed so tests can pin the
/// dispatcher bit-identically to the fallback and chi-square both paths
/// independently.
[[nodiscard]] std::int64_t hypergeometric_chopdown(Xoshiro256& gen,
                                                   std::int64_t total,
                                                   std::int64_t marked,
                                                   std::int64_t draws);

/// True when hypergeometric() takes the HRUA rejection path for these
/// parameters (exposed for the fallback-threshold tests).
[[nodiscard]] bool hypergeometric_uses_rejection(std::int64_t total,
                                                 std::int64_t marked,
                                                 std::int64_t draws);

/// Splits `trials` draws-with-replacement over categories with the given
/// probability weights (need not be normalised).  Conditional-binomial
/// chain: O(k) binomial() calls.  \pre weights non-empty, all >= 0,
/// sum > 0, trials >= 0.
[[nodiscard]] std::vector<std::int64_t> multinomial(
    Xoshiro256& gen, std::int64_t trials, std::span<const double> weights);

/// Splits a without-replacement sample of size `draws` over categories
/// holding `counts` items each (a random `draws`-subset of the pooled
/// population, tallied by category).  Writes the per-category sample
/// sizes to `out` (same length as `counts`).  Three exact paths, chosen
/// by (draws, pool = sum(counts)) alone: an urn walk for draws <= 32;
/// the corrected multinomial (multivariate_hypergeometric_multinomial)
/// when 8·draws² <= pool, in O(k) binomial() calls; otherwise the
/// conditional hypergeometric chain, O(k) hypergeometric() calls.
/// \pre draws <= sum(counts); out.size() == counts.size().
void multivariate_hypergeometric(Xoshiro256& gen,
                                 std::span<const std::int64_t> counts,
                                 std::int64_t draws,
                                 std::span<std::int64_t> out);

/// The multinomial path of multivariate_hypergeometric(), exact for
/// every parameter set: a Multinomial(draws; counts/pool) proposal from
/// the conditional-binomial chain, accepted with probability
/// Π_i Π_{j<c_i} (1 − j/counts_i).  The mean acceptance is about
/// e^{−draws²/(2·pool)}, so the dispatcher takes it only where that is
/// at least e^{−1/16}; exposed so tests can pin its joint law at a small
/// shape where a plain multinomial would visibly differ.
void multivariate_hypergeometric_multinomial(
    Xoshiro256& gen, std::span<const std::int64_t> counts, std::int64_t draws,
    std::span<std::int64_t> out);

/// True when multivariate_hypergeometric() takes the multinomial path
/// for a sample of `draws` from a pool of `pool` items: draws > 32 and
/// 8·draws² <= pool.  \pre 0 <= draws <= pool.
[[nodiscard]] bool multivariate_hypergeometric_uses_multinomial(
    std::int64_t pool, std::int64_t draws);

/// Allocating convenience overload of the above.
[[nodiscard]] std::vector<std::int64_t> multivariate_hypergeometric(
    Xoshiro256& gen, std::span<const std::int64_t> counts,
    std::int64_t draws);

/// Draws `pairs` disjoint pairs without replacement from items held in
/// `counts` per class (a uniform 2·`pairs`-subset of the pooled items,
/// matched into pairs uniformly at random) and writes, per class, the
/// number of members drawn to `members` and the number of pairs with
/// both members in that class to `mono`.  Two exact paths, chosen by
/// multivariate_hypergeometric_uses_multinomial(pool, 2·pairs):
/// multivariate_hypergeometric_pairs_multinomial below, in O(k)
/// binomial() calls; otherwise multivariate_hypergeometric() for the
/// members, then per class one hypergeometric() for the members that
/// land in still-empty pairs and one full_pairs() for the monochromatic
/// pairs among them.
/// \pre 0 <= 2·pairs <= sum(counts); members, mono sized like counts.
void multivariate_hypergeometric_pairs(Xoshiro256& gen,
                                       std::span<const std::int64_t> counts,
                                       std::int64_t pairs,
                                       std::span<std::int64_t> members,
                                       std::span<std::int64_t> mono);

/// The paired path of multivariate_hypergeometric_pairs(), exact for
/// every parameter set: one walk over the classes draws the
/// with-replacement pairs' tallies (per class, monochromatic pairs
/// Binomial(open, q²), half-filled ones Binomial(open − mono, 2q/(1+q))
/// and completed singles Binomial(singles, q), q = counts_i over the
/// items of classes >= i), and the proposal is accepted with the
/// multinomial path's factor Π_i Π_{j<c_i} (1 − j/counts_i) on the
/// member counts c.  Exposed so tests can pin its joint law at a small
/// shape the dispatcher would not send here.
void multivariate_hypergeometric_pairs_multinomial(
    Xoshiro256& gen, std::span<const std::int64_t> counts, std::int64_t pairs,
    std::span<std::int64_t> members, std::span<std::int64_t> mono);

/// Number of *completely filled* slot-pairs when `items` items occupy a
/// uniformly random `items`-subset of the 2·`pairs` slots of `pairs`
/// disjoint two-slot bins.  pmf
///   P(t) = C(pairs, t) · C(pairs − t, items − 2t) · 2^{items−2t}
///          / C(2·pairs, items),
/// support max(0, items − pairs) <= t <= items/2.  This is the
/// monochromatic-pair count of a uniform perfect matching processed one
/// colour at a time — the O(k) replacement for the O(k²)
/// contingency-table pass in the collision-batch engine.  O(1) expected
/// time: the pmf is log-concave, so the same HRUA rejection kernel as
/// hypergeometric() applies above kRejectionVarianceCutoff; mode-centred
/// chop-down below.
/// \pre pairs >= 0 and 0 <= items <= 2·pairs.
[[nodiscard]] std::int64_t full_pairs(Xoshiro256& gen, std::int64_t pairs,
                                      std::int64_t items);

/// The chop-down kernel of full_pairs(), exact for every parameter set;
/// the dispatcher delegates to it below kRejectionVarianceCutoff
/// (exposed for the same bit-identity pins as the hypergeometric pair).
[[nodiscard]] std::int64_t full_pairs_chopdown(Xoshiro256& gen,
                                               std::int64_t pairs,
                                               std::int64_t items);

/// True when full_pairs() takes the HRUA rejection path.
[[nodiscard]] bool full_pairs_uses_rejection(std::int64_t pairs,
                                             std::int64_t items);

}  // namespace divpp::rng

#endif  // DIVPP_RNG_DISCRETE_H
