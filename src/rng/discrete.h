#ifndef DIVPP_RNG_DISCRETE_H
#define DIVPP_RNG_DISCRETE_H

/// \file discrete.h
/// Exact samplers for the classical counting distributions.
///
/// These are the primitives the collision-batch engine
/// (batch/collision_batch.h) is built on: a batch of interactions is
/// applied to the lumped count state not one draw at a time but through
/// binomial / hypergeometric / multinomial splits, so the per-sample cost
/// of these functions bounds the per-batch cost of the engine.  The
/// public part of this header is one function per distribution:
///
///  * binomial()        — a Bernoulli loop for n <= 16, BINV inversion
///    when n·min(p,1-p) < 10, BTRD transformed rejection otherwise
///    (Hörmann 1993), so the cost is O(1) for any (n, p) instead of
///    O(n·p);
///  * hypergeometric()  — HRUA-style ratio-of-uniforms rejection
///    (Stadlober 1990) in O(1) expected time when the distribution is
///    wide, the mode-centred chop-down walk otherwise, where the O(1 + sd)
///    walk is cheaper than the rejection setup;
///  * multivariate_hypergeometric() — sampling without replacement from
///    per-class counts: an urn walk for small samples, a conditional
///    binomial chain with an exact acceptance correction when the sample
///    is small against the pool, and the conditional hypergeometric
///    chain otherwise;
///  * multivariate_hypergeometric_pairs() — disjoint pairs without
///    replacement, tallied as members and monochromatic pairs per class:
///    where the corrected binomial chain above would apply, one walk of
///    three binomials per class under the same acceptance correction;
///    otherwise the member split followed by a slot-occupancy chain of
///    hypergeometric() and full_pairs() draws;
///  * full_pairs()      — the slot-occupancy law of a uniform perfect
///    matching, by the mode-centred chop-down walk.
///
/// All samplers are *exact*: they realise the textbook pmf up to the
/// accuracy of double-precision pmf evaluation, not an asymptotic
/// approximation.  tests/test_discrete.cpp pins each of them against the
/// naive loop (n Bernoulli trials, urn draws one ball at a time) and
/// against the lgamma-evaluated pmf with chi-square tests under fixed
/// seeds, and pins each dispatcher bit-identically to the kernels in
/// namespace detail at the end of this header.

#include <cstdint>
#include <span>

#include "rng/xoshiro.h"

namespace divpp::rng {

/// Number of successes in n independent Bernoulli(p) trials.
/// \pre n >= 0 and p in [0, 1].  O(1) expected time for all (n, p).
[[nodiscard]] std::int64_t binomial(Xoshiro256& gen, std::int64_t n,
                                    double p);

/// Forces the shared log-factorial table to exist now.  The table is a
/// lazily built function-local static (thread-safe, built once per
/// process), so the first sampler to touch it pays the 64 Ki lgamma
/// build; shared contexts (context/sampler_context.h) warm it eagerly so
/// no scenario pays that cost mid-run.
void warm_log_fact_table();

/// Number of marked items in a uniform sample of `draws` items, taken
/// without replacement from a population of `total` items of which
/// `marked` are marked.  \pre 0 <= marked <= total, 0 <= draws <= total.
/// O(1) expected time: HRUA rejection where
/// detail::hypergeometric_uses_rejection() holds, chop-down inversion
/// (detail::hypergeometric_chopdown) elsewhere.
[[nodiscard]] std::int64_t hypergeometric(Xoshiro256& gen, std::int64_t total,
                                          std::int64_t marked,
                                          std::int64_t draws);

/// Splits a without-replacement sample of size `draws` over categories
/// holding `counts` items each (a random `draws`-subset of the pooled
/// population, tallied by category).  Writes the per-category sample
/// sizes to `out` (same length as `counts`).  Three exact paths, chosen
/// by (draws, pool = sum(counts)) alone: an urn walk for draws <= 32;
/// the corrected multinomial (detail::multivariate_hypergeometric_
/// multinomial) when 8·draws² <= pool, in O(k) binomial() calls;
/// otherwise the conditional hypergeometric chain, O(k) hypergeometric()
/// calls.  \pre draws <= sum(counts); out.size() == counts.size().
void multivariate_hypergeometric(Xoshiro256& gen,
                                 std::span<const std::int64_t> counts,
                                 std::int64_t draws,
                                 std::span<std::int64_t> out);

/// Draws `pairs` disjoint pairs without replacement from items held in
/// `counts` per class (a uniform 2·`pairs`-subset of the pooled items,
/// matched into pairs uniformly at random) and writes, per class, the
/// number of members drawn to `members` and the number of pairs with
/// both members in that class to `mono`.  Two exact paths, chosen by
/// detail::multivariate_hypergeometric_uses_multinomial(pool, 2·pairs):
/// detail::multivariate_hypergeometric_pairs_multinomial, in O(k)
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

/// Number of *completely filled* slot-pairs when `items` items occupy a
/// uniformly random `items`-subset of the 2·`pairs` slots of `pairs`
/// disjoint two-slot bins.  pmf
///   P(t) = C(pairs, t) · C(pairs − t, items − 2t) · 2^{items−2t}
///          / C(2·pairs, items),
/// support max(0, items − pairs) <= t <= items/2.  This is the
/// monochromatic-pair count of a uniform perfect matching processed one
/// colour at a time — the O(k) replacement for the O(k²)
/// contingency-table pass in the collision-batch engine.  Mode-centred
/// chop-down inversion, exact for every argument in O(1 + sd) expected
/// pmf evaluations; the slot chain's draws stay narrow (variance at most
/// 225 in e20 at n = 10⁹).
/// \pre pairs >= 0 and 0 <= items <= 2·pairs.
[[nodiscard]] std::int64_t full_pairs(Xoshiro256& gen, std::int64_t pairs,
                                      std::int64_t items);

/// The dispatchers' kernels and predicates, exposed so tests can pin each
/// dispatcher bit-identically to the kernel it picks and chi-square the
/// kernels at shapes the dispatchers would not send them.
namespace detail {

/// The mode-centred chop-down kernel of hypergeometric(), exact for every
/// parameter set in O(1 + sd) expected pmf evaluations.
[[nodiscard]] std::int64_t hypergeometric_chopdown(Xoshiro256& gen,
                                                   std::int64_t total,
                                                   std::int64_t marked,
                                                   std::int64_t draws);

/// True when hypergeometric() takes the HRUA rejection path: variance at
/// least 9 and either pmf arguments beyond the log-factorial table or
/// variance at least 625 (~25 standard deviations of walk).
[[nodiscard]] bool hypergeometric_uses_rejection(std::int64_t total,
                                                 std::int64_t marked,
                                                 std::int64_t draws);

/// The multinomial path of multivariate_hypergeometric(), exact for
/// every parameter set: a Multinomial(draws; counts/pool) proposal from
/// the conditional-binomial chain, accepted with probability
/// Π_i Π_{j<c_i} (1 − j/counts_i).  The mean acceptance is about
/// e^{−draws²/(2·pool)}, so the dispatcher takes it only where that is
/// at least e^{−1/16}.
void multivariate_hypergeometric_multinomial(
    Xoshiro256& gen, std::span<const std::int64_t> counts, std::int64_t draws,
    std::span<std::int64_t> out);

/// True when multivariate_hypergeometric() takes the multinomial path
/// for a sample of `draws` from a pool of `pool` items: draws > 32 and
/// 8·draws² <= pool.  \pre 0 <= draws <= pool.
[[nodiscard]] bool multivariate_hypergeometric_uses_multinomial(
    std::int64_t pool, std::int64_t draws);

/// The paired path of multivariate_hypergeometric_pairs(), exact for
/// every parameter set: one walk over the classes draws the
/// with-replacement pairs' tallies (per class, monochromatic pairs
/// Binomial(open, q²), half-filled ones Binomial(open − mono, 2q/(1+q))
/// and completed singles Binomial(singles, q), q = counts_i over the
/// items of classes >= i), and the proposal is accepted with the
/// multinomial path's factor Π_i Π_{j<c_i} (1 − j/counts_i) on the
/// member counts c.
void multivariate_hypergeometric_pairs_multinomial(
    Xoshiro256& gen, std::span<const std::int64_t> counts, std::int64_t pairs,
    std::span<std::int64_t> members, std::span<std::int64_t> mono);

}  // namespace detail

}  // namespace divpp::rng

#endif  // DIVPP_RNG_DISCRETE_H
