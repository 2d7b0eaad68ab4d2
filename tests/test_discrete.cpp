// Tests for the exact counting-distribution samplers (rng/discrete.h):
// chi-square pins of binomial (the Bernoulli, inversion and BTRD regimes),
// hypergeometric, multivariate-hypergeometric, paired and slot-occupancy
// draws against the lgamma-evaluated (or enumerated) exact pmfs AND
// against the naive loop references (n Bernoulli trials; urn draws one
// ball at a time), plus edge cases and argument validation.  The seeds are fixed, so every
// test is deterministic: a failure means a real bias, not an unlucky run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "rng/discrete.h"
#include "rng/distributions.h"
#include "rng/xoshiro.h"
#include "scale.h"

namespace {

using divpp::test::scaled;
using divpp::rng::Xoshiro256;

double log_choose(std::int64_t n, std::int64_t k) {
  return std::lgamma(static_cast<double>(n) + 1.0) -
         std::lgamma(static_cast<double>(k) + 1.0) -
         std::lgamma(static_cast<double>(n - k) + 1.0);
}

/// Exact Binomial(n, p) pmf at x, via lgamma.
double binomial_pmf(std::int64_t n, double p, std::int64_t x) {
  if (p == 0.0) return x == 0 ? 1.0 : 0.0;
  if (p == 1.0) return x == n ? 1.0 : 0.0;
  return std::exp(log_choose(n, x) + static_cast<double>(x) * std::log(p) +
                  static_cast<double>(n - x) * std::log1p(-p));
}

/// Exact Hypergeometric(total, marked, draws) pmf at x.
double hypergeometric_pmf(std::int64_t total, std::int64_t marked,
                          std::int64_t draws, std::int64_t x) {
  if (x < std::max<std::int64_t>(0, draws - (total - marked)) ||
      x > std::min(draws, marked))
    return 0.0;
  return std::exp(log_choose(marked, x) +
                  log_choose(total - marked, draws - x) -
                  log_choose(total, draws));
}

/// One multivariate_hypergeometric() split, returned by value.
std::vector<std::int64_t> mvh(Xoshiro256& gen,
                              const std::vector<std::int64_t>& counts,
                              std::int64_t draws) {
  std::vector<std::int64_t> out(counts.size());
  divpp::rng::multivariate_hypergeometric(gen, counts, draws, out);
  return out;
}

/// Pearson chi-square of observed hits against an expected pmf.
double chi_square(const std::vector<std::int64_t>& hits,
                  const std::vector<double>& pmf, std::int64_t draws) {
  double chi2 = 0.0;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    const double expected = pmf[i] * static_cast<double>(draws);
    if (expected <= 0.0) {
      EXPECT_EQ(hits[i], 0) << "mass on a zero-probability category " << i;
      continue;
    }
    const double diff = static_cast<double>(hits[i]) - expected;
    chi2 += diff * diff / expected;
  }
  return chi2;
}

/// 99.9% chi-square quantile (Wilson–Hilferty), deterministic under the
/// fixed seeds.
double chi2_crit(std::size_t df) {
  const double d = static_cast<double>(df);
  const double z = 3.09;  // 99.9% normal quantile
  const double t = 1.0 - 2.0 / (9.0 * d) + z * std::sqrt(2.0 / (9.0 * d));
  return d * t * t * t;
}

/// Histogram of `draws` calls to `sampler()` over support [lo, hi], with
/// values outside lumped into the edge bins.
template <class Sampler>
std::vector<std::int64_t> histogram(std::int64_t lo, std::int64_t hi,
                                    std::int64_t draws, Sampler&& sampler) {
  std::vector<std::int64_t> hits(static_cast<std::size_t>(hi - lo + 1), 0);
  for (std::int64_t d = 0; d < draws; ++d) {
    const std::int64_t x = std::clamp(sampler(), lo, hi);
    ++hits[static_cast<std::size_t>(x - lo)];
  }
  return hits;
}

/// Binomial pmf over [lo, hi] with the tails folded into the edge bins —
/// the expected counterpart of histogram().
std::vector<double> binomial_pmf_lumped(std::int64_t n, double p,
                                        std::int64_t lo, std::int64_t hi) {
  std::vector<double> pmf(static_cast<std::size_t>(hi - lo + 1), 0.0);
  for (std::int64_t x = 0; x <= n; ++x)
    pmf[static_cast<std::size_t>(std::clamp(x, lo, hi) - lo)] +=
        binomial_pmf(n, p, x);
  return pmf;
}

/// The naive binomial loop: n Bernoulli(p) trials.
std::int64_t binomial_naive(Xoshiro256& gen, std::int64_t n, double p) {
  std::int64_t hits = 0;
  for (std::int64_t i = 0; i < n; ++i)
    if (divpp::rng::bernoulli(gen, p)) ++hits;
  return hits;
}

/// Half-width in sd of a lumped chi-square window that tracks the draw
/// budget: each 0.5 sigma shaved off multiplies the edge-bin tail mass
/// by ~8, so the expected edge count stays level as the budget shrinks
/// and the chi-square stays calibrated.
double budget_z(double z_at_full_scale) {
  return z_at_full_scale -
         0.5 * std::log10(static_cast<double>(divpp::test::test_scale()));
}

/// The window mean ± z·sd of Binomial(n, p), clipped to the support.
std::pair<std::int64_t, std::int64_t> binomial_window(std::int64_t n,
                                                      double p, double z) {
  const double mean = static_cast<double>(n) * p;
  const double sd = std::sqrt(mean * (1.0 - p));
  return {std::max<std::int64_t>(
              0, static_cast<std::int64_t>(std::floor(mean - z * sd))),
          std::min<std::int64_t>(
              n, static_cast<std::int64_t>(std::ceil(mean + z * sd)))};
}

/// Chi-square pin of scaled(120'000) binomial(n, p) draws against the
/// exact pmf on binomial_window(n, p, z), tails folded into the edge
/// bins.
void expect_binomial_pinned(std::int64_t n, double p, double z,
                            std::uint64_t seed) {
  const std::int64_t draws = scaled(120'000);
  const auto [lo, hi] = binomial_window(n, p, z);
  const std::vector<double> pmf = binomial_pmf_lumped(n, p, lo, hi);
  Xoshiro256 gen(seed);
  const auto hits = histogram(lo, hi, draws, [&] {
    return divpp::rng::binomial(gen, n, p);
  });
  EXPECT_LT(chi_square(hits, pmf, draws), chi2_crit(pmf.size() - 1))
      << "n = " << n << ", p = " << p;
}

/// The naive urn: `draws` balls one at a time without replacement.
std::int64_t hypergeometric_naive(Xoshiro256& gen, std::int64_t total,
                                  std::int64_t marked, std::int64_t draws) {
  std::int64_t hits = 0;
  for (std::int64_t i = 0; i < draws; ++i) {
    if (divpp::rng::uniform_below(gen, total) < marked) {
      ++hits;
      --marked;
    }
    --total;
  }
  return hits;
}

// ---- binomial -------------------------------------------------------------

TEST(Binomial, EdgeCasesAndValidation) {
  Xoshiro256 gen(1);
  EXPECT_EQ(divpp::rng::binomial(gen, 0, 0.5), 0);
  EXPECT_EQ(divpp::rng::binomial(gen, 100, 0.0), 0);
  EXPECT_EQ(divpp::rng::binomial(gen, 100, 1.0), 100);
  EXPECT_THROW((void)divpp::rng::binomial(gen, -1, 0.5),
               std::invalid_argument);
  EXPECT_THROW((void)divpp::rng::binomial(gen, 10, -0.1),
               std::invalid_argument);
  EXPECT_THROW((void)divpp::rng::binomial(gen, 10, 1.5),
               std::invalid_argument);
  EXPECT_THROW((void)divpp::rng::binomial(gen, 10, std::nan("")),
               std::invalid_argument);
}

TEST(Binomial, AlwaysInSupport) {
  Xoshiro256 gen(2);
  for (int i = 0; i < 20'000; ++i) {
    const std::int64_t x = divpp::rng::binomial(gen, 37, 0.83);
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 37);
  }
}

TEST(BinomialChiSquare, InversionRegimePinnedToExactPmfAndNaiveLoop) {
  // n·p = 6 < 30: the BINV inversion path.  Both the sampler and the
  // naive Bernoulli loop must match the exact pmf.
  constexpr std::int64_t kN = 20;
  constexpr double kP = 0.3;
  const std::int64_t kDraws = scaled(200'000);
  std::vector<double> pmf(kN + 1);
  for (std::int64_t x = 0; x <= kN; ++x) pmf[static_cast<std::size_t>(x)] =
      binomial_pmf(kN, kP, x);
  Xoshiro256 gen(3);
  const auto fast = histogram(0, kN, kDraws, [&] {
    return divpp::rng::binomial(gen, kN, kP);
  });
  Xoshiro256 ref_gen(4);
  const auto naive = histogram(0, kN, kDraws, [&] {
    return binomial_naive(ref_gen, kN, kP);
  });
  // Lump x >= 16 (expected counts < 5 otherwise).
  std::vector<double> pmf_l(pmf.begin(), pmf.begin() + 16);
  pmf_l.push_back(
      std::accumulate(pmf.begin() + 16, pmf.end(), 0.0));
  const auto lump = [&](const std::vector<std::int64_t>& h) {
    std::vector<std::int64_t> out(h.begin(), h.begin() + 16);
    out.push_back(std::accumulate(h.begin() + 16, h.end(), std::int64_t{0}));
    return out;
  };
  const double crit = chi2_crit(pmf_l.size() - 1);
  EXPECT_LT(chi_square(lump(fast), pmf_l, kDraws), crit);
  EXPECT_LT(chi_square(lump(naive), pmf_l, kDraws), crit);
}

TEST(BinomialChiSquare, BtrdRegimePinnedToExactPmfAndNaiveLoop) {
  // n·p = 300 >= 10: the BTRD rejection path.  The window mean ± 4.5 sd
  // keeps every in-window expected count comfortably above 5 at this
  // draw budget; the tails are folded into the edge bins.
  constexpr std::int64_t kN = 1000;
  constexpr double kP = 0.3;
  const std::int64_t kDraws = scaled(120'000);
  const auto [lo, hi] = binomial_window(kN, kP, budget_z(4.5));
  const std::vector<double> pmf = binomial_pmf_lumped(kN, kP, lo, hi);
  Xoshiro256 gen(5);
  const auto fast = histogram(lo, hi, kDraws, [&] {
    return divpp::rng::binomial(gen, kN, kP);
  });
  Xoshiro256 ref_gen(6);
  const auto naive = histogram(lo, hi, kDraws, [&] {
    return binomial_naive(ref_gen, kN, kP);
  });
  const double crit = chi2_crit(pmf.size() - 1);
  EXPECT_LT(chi_square(fast, pmf, kDraws), crit);
  EXPECT_LT(chi_square(naive, pmf, kDraws), crit);
}

TEST(BinomialChiSquare, BtrdHighPUsesComplementCorrectly) {
  // p > 0.5 exercises the n - y reflection after BTRD.
  expect_binomial_pinned(400, 0.85, budget_z(4.5), 7);
}

TEST(BinomialChiSquare, BtrdAtFormerInversionRangePinned) {
  // 10 <= n·min(p, 1−p) < 30 used to walk BINV and now takes BTRD: its
  // central box accepts half or more of the draws outright, and most of
  // the rest are decided by the |k − m| <= 15 product of adjacent pmf
  // ratios.
  for (const auto& [n, p, seed] :
       {std::tuple<std::int64_t, double, std::uint64_t>{50, 0.22, 40},
        {200, 0.12, 41},
        {60, 0.6, 42},
        {90, 0.33, 43}})
    expect_binomial_pinned(n, p, budget_z(4.5), seed);
}

TEST(BinomialChiSquare, BtrdSqueezeAndLogTestPinned) {
  // sd ≈ 22: about three quarters of the candidates outside BTRD's box
  // land more than 15 from the mode, where the squeeze decides them,
  // and about a third of those fall inside the squeeze band and reach
  // the final Stirling-corrected log test (~8,000 such tests at the
  // full budget).  The window mean ± 3.5 sd keeps the edge bins well
  // filled.
  expect_binomial_pinned(2000, 0.5, budget_z(3.5), 44);
}

TEST(Binomial, HugeNMomentsMatch) {
  // The regime the batch engine actually uses: n far beyond any feasible
  // Bernoulli loop.  First two moments must match the closed forms.
  constexpr std::int64_t kN = 1'000'000'000;
  constexpr double kP = 1.0 / 3.0;
  constexpr int kDraws = 4'000;
  Xoshiro256 gen(8);
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const auto x = static_cast<double>(divpp::rng::binomial(gen, kN, kP));
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / kDraws;
  const double var = sum2 / kDraws - mean * mean;
  const double true_mean = static_cast<double>(kN) * kP;
  const double true_var = true_mean * (1.0 - kP);
  const double mean_tol = 5.0 * std::sqrt(true_var / kDraws);
  EXPECT_NEAR(mean, true_mean, mean_tol);
  EXPECT_NEAR(var / true_var, 1.0, 0.15);
}

// ---- hypergeometric -------------------------------------------------------

TEST(Hypergeometric, EdgeCasesAndValidation) {
  Xoshiro256 gen(9);
  EXPECT_EQ(divpp::rng::hypergeometric(gen, 10, 0, 5), 0);
  EXPECT_EQ(divpp::rng::hypergeometric(gen, 10, 10, 5), 5);
  EXPECT_EQ(divpp::rng::hypergeometric(gen, 10, 4, 0), 0);
  EXPECT_EQ(divpp::rng::hypergeometric(gen, 10, 4, 10), 4);
  // lo == hi pinch: draws - (total - marked) == min(draws, marked).
  EXPECT_EQ(divpp::rng::hypergeometric(gen, 6, 5, 6), 5);
  EXPECT_THROW((void)divpp::rng::hypergeometric(gen, -1, 0, 0),
               std::invalid_argument);
  EXPECT_THROW((void)divpp::rng::hypergeometric(gen, 10, 11, 5),
               std::invalid_argument);
  EXPECT_THROW((void)divpp::rng::hypergeometric(gen, 10, 5, 11),
               std::invalid_argument);
  EXPECT_THROW((void)divpp::rng::hypergeometric(gen, 10, 5, -1),
               std::invalid_argument);
}

TEST(HypergeometricChiSquare, PinnedToExactPmfAndNaiveUrn) {
  constexpr std::int64_t kTotal = 60;
  constexpr std::int64_t kMarked = 25;
  constexpr std::int64_t kSample = 20;
  const std::int64_t kDraws = scaled(200'000);
  // Support with expected count >= 5 at this budget: lump into [3, 14].
  constexpr std::int64_t kLo = 3, kHi = 14;
  std::vector<double> pmf(static_cast<std::size_t>(kHi - kLo + 1), 0.0);
  for (std::int64_t x = 0; x <= kSample; ++x)
    pmf[static_cast<std::size_t>(std::clamp(x, kLo, kHi) - kLo)] +=
        hypergeometric_pmf(kTotal, kMarked, kSample, x);
  Xoshiro256 gen(10);
  const auto fast = histogram(kLo, kHi, kDraws, [&] {
    return divpp::rng::hypergeometric(gen, kTotal, kMarked, kSample);
  });
  Xoshiro256 ref_gen(11);
  const auto naive = histogram(kLo, kHi, kDraws, [&] {
    return hypergeometric_naive(ref_gen, kTotal, kMarked, kSample);
  });
  const double crit = chi2_crit(pmf.size() - 1);
  EXPECT_LT(chi_square(fast, pmf, kDraws), crit);
  EXPECT_LT(chi_square(naive, pmf, kDraws), crit);
}

TEST(Hypergeometric, LargeParameterMomentsMatch) {
  // Mode-centred chop-down at batch-engine scale; O(1 + sd) evaluations.
  constexpr std::int64_t kTotal = 1'000'000'000;
  constexpr std::int64_t kMarked = 400'000'000;
  constexpr std::int64_t kSample = 1'000'000;
  constexpr int kDraws = 3'000;
  Xoshiro256 gen(12);
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const auto x = static_cast<double>(
        divpp::rng::hypergeometric(gen, kTotal, kMarked, kSample));
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / kDraws;
  const double var = sum2 / kDraws - mean * mean;
  const double frac = static_cast<double>(kMarked) / kTotal;
  const double true_mean = static_cast<double>(kSample) * frac;
  const double fpc =
      static_cast<double>(kTotal - kSample) / (kTotal - 1);
  const double true_var =
      static_cast<double>(kSample) * frac * (1.0 - frac) * fpc;
  EXPECT_NEAR(mean, true_mean, 5.0 * std::sqrt(true_var / kDraws));
  EXPECT_NEAR(var / true_var, 1.0, 0.2);
}

// ---- multivariate hypergeometric ------------------------------------------

TEST(MultivariateHypergeometric, ConservesAndValidates) {
  Xoshiro256 gen(18);
  const std::vector<std::int64_t> counts = {5, 0, 7, 3};
  for (int i = 0; i < 2'000; ++i) {
    const auto out = mvh(gen, counts, 9);
    ASSERT_EQ(out.size(), counts.size());
    std::int64_t total = 0;
    for (std::size_t j = 0; j < out.size(); ++j) {
      EXPECT_GE(out[j], 0);
      EXPECT_LE(out[j], counts[j]);
      total += out[j];
    }
    EXPECT_EQ(total, 9);
  }
  // draws == pool takes everything; draws == 0 takes nothing.
  EXPECT_EQ(mvh(gen, counts, 15), counts);
  EXPECT_EQ(mvh(gen, counts, 0), (std::vector<std::int64_t>{0, 0, 0, 0}));
  EXPECT_THROW((void)mvh(gen, counts, 16), std::invalid_argument);
  EXPECT_THROW((void)mvh(gen, counts, -1), std::invalid_argument);
  EXPECT_THROW((void)mvh(gen, std::vector<std::int64_t>{3, -1}, 1),
               std::invalid_argument);
}

/// The joint-pin shape: counts {4, 3, 5} with 6 draws has 26 reachable
/// outcomes, each with exact pmf Π C(c_i, x_i) / C(12, 6), keyed by
/// x0·100 + x1·10 + x2.
const std::vector<std::int64_t> kJointCounts = {4, 3, 5};
constexpr std::int64_t kJointSample = 6;

std::int64_t joint_key(std::span<const std::int64_t> x) {
  return x[0] * 100 + x[1] * 10 + x[2];
}

std::map<std::int64_t, double> joint_pmf() {
  std::map<std::int64_t, double> pmf;
  const double log_denom = log_choose(12, kJointSample);
  for (std::int64_t a = 0; a <= kJointCounts[0]; ++a)
    for (std::int64_t b = 0; b <= kJointCounts[1]; ++b) {
      const std::int64_t c = kJointSample - a - b;
      if (c < 0 || c > kJointCounts[2]) continue;
      pmf[a * 100 + b * 10 + c] = std::exp(
          log_choose(kJointCounts[0], a) + log_choose(kJointCounts[1], b) +
          log_choose(kJointCounts[2], c) - log_denom);
    }
  return pmf;
}

/// Chi-square of joint-outcome hits against joint_pmf(); an outcome
/// outside the support fails the test outright.
double joint_chi_square(const std::map<std::int64_t, std::int64_t>& hits,
                        std::int64_t draws) {
  const std::map<std::int64_t, double> pmf = joint_pmf();
  for (const auto& [k, h] : hits)
    EXPECT_TRUE(pmf.contains(k)) << "outcome " << k << " drawn " << h
                                 << " times outside the support";
  std::vector<double> pmf_vec;
  std::vector<std::int64_t> hit_vec;
  for (const auto& [k, p] : pmf) {
    pmf_vec.push_back(p);
    const auto it = hits.find(k);
    hit_vec.push_back(it == hits.end() ? 0 : it->second);
  }
  return chi_square(hit_vec, pmf_vec, draws);
}

TEST(MultivariateHypergeometricChiSquare, JointPinnedToExactPmfAndNaiveUrn) {
  // Full-joint chi-square at the joint-pin shape, through the public
  // dispatcher (the urn path at 6 draws) and a naive urn.
  const std::int64_t kDraws = scaled(120'000);
  Xoshiro256 gen(19);
  Xoshiro256 ref_gen(20);
  std::map<std::int64_t, std::int64_t> fast_hits, naive_hits;
  for (std::int64_t d = 0; d < kDraws; ++d) {
    ++fast_hits[joint_key(mvh(gen, kJointCounts, kJointSample))];
    // Naive urn: a flat pool of 12 labelled balls, 6 drawn one at a time.
    std::vector<std::int64_t> pool;
    for (std::size_t i = 0; i < kJointCounts.size(); ++i)
      pool.insert(pool.end(), static_cast<std::size_t>(kJointCounts[i]),
                  static_cast<std::int64_t>(i));
    std::vector<std::int64_t> out(kJointCounts.size(), 0);
    for (std::int64_t t = 0; t < kJointSample; ++t) {
      const auto pick = static_cast<std::size_t>(divpp::rng::uniform_below(
          ref_gen, static_cast<std::int64_t>(pool.size())));
      ++out[static_cast<std::size_t>(pool[pick])];
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    ++naive_hits[joint_key(out)];
  }
  const double crit = chi2_crit(joint_pmf().size() - 1);
  EXPECT_LT(joint_chi_square(fast_hits, kDraws), crit);
  EXPECT_LT(joint_chi_square(naive_hits, kDraws), crit);
}

TEST(MultivariateHypergeometricChiSquare, MultinomialPathJointPinned) {
  // The corrected-multinomial kernel driven directly at the joint-pin
  // shape, far outside its dispatch range (8·6² > 12).  A plain
  // Multinomial(6; 4/12, 3/12, 5/12) puts ~6% of its mass beyond some
  // count and misweights the rest, so only the exact acceptance step
  // passes this pin.
  const std::int64_t kDraws = scaled(120'000);
  Xoshiro256 gen(45);
  std::vector<std::int64_t> out(kJointCounts.size());
  std::map<std::int64_t, std::int64_t> hits;
  for (std::int64_t d = 0; d < kDraws; ++d) {
    divpp::rng::detail::multivariate_hypergeometric_multinomial(
        gen, kJointCounts, kJointSample, out);
    ++hits[joint_key(out)];
  }
  EXPECT_LT(joint_chi_square(hits, kDraws), chi2_crit(joint_pmf().size() - 1));
}

// ---- full_pairs (uniform-matching slot occupancy) --------------------------

TEST(FullPairs, EdgesAndValidation) {
  Xoshiro256 gen(22);
  EXPECT_EQ(divpp::rng::full_pairs(gen, 0, 0), 0);
  EXPECT_EQ(divpp::rng::full_pairs(gen, 5, 0), 0);
  EXPECT_EQ(divpp::rng::full_pairs(gen, 5, 1), 0);
  EXPECT_EQ(divpp::rng::full_pairs(gen, 5, 10), 5);  // all slots filled
  EXPECT_EQ(divpp::rng::full_pairs(gen, 1, 2), 1);
  EXPECT_THROW((void)divpp::rng::full_pairs(gen, -1, 0),
               std::invalid_argument);
  EXPECT_THROW((void)divpp::rng::full_pairs(gen, 3, -1),
               std::invalid_argument);
  EXPECT_THROW((void)divpp::rng::full_pairs(gen, 3, 7),
               std::invalid_argument);
  for (int i = 0; i < 5'000; ++i) {
    const std::int64_t t = divpp::rng::full_pairs(gen, 9, 11);
    EXPECT_GE(t, 2);  // lo = items - pairs
    EXPECT_LE(t, 5);  // hi = items / 2
  }
}

TEST(FullPairsChiSquare, PinnedToExactPmfAndNaivePlacement) {
  // pairs = 7, items = 8: support {1..4}; exact pmf
  //   P(t) = C(7,t) C(7-t, 8-2t) 2^{8-2t} / C(14, 8).
  constexpr std::int64_t kPairs = 7;
  constexpr std::int64_t kItems = 8;
  const std::int64_t kDraws = scaled(150'000);
  std::vector<double> pmf(5, 0.0);
  {
    const double denom = log_choose(2 * kPairs, kItems);
    for (std::int64_t t = 1; t <= 4; ++t)
      pmf[static_cast<std::size_t>(t)] =
          std::exp(log_choose(kPairs, t) +
                   log_choose(kPairs - t, kItems - 2 * t) +
                   static_cast<double>(kItems - 2 * t) * std::log(2.0) -
                   denom);
  }
  Xoshiro256 gen(23);
  std::vector<std::int64_t> fast(5, 0);
  for (std::int64_t d = 0; d < kDraws; ++d)
    ++fast[static_cast<std::size_t>(
        divpp::rng::full_pairs(gen, kPairs, kItems))];
  // Naive reference: drop `items` marks on a uniform subset of the 2·7
  // slots and count doubly-marked pairs.
  Xoshiro256 ref_gen(24);
  std::vector<std::int64_t> naive(5, 0);
  std::vector<std::int64_t> slots(2 * kPairs);
  for (std::int64_t d = 0; d < kDraws; ++d) {
    std::iota(slots.begin(), slots.end(), 0);
    divpp::rng::shuffle(ref_gen, slots);
    std::vector<int> marked(2 * kPairs, 0);
    for (std::int64_t j = 0; j < kItems; ++j)
      marked[static_cast<std::size_t>(slots[static_cast<std::size_t>(j)])] =
          1;
    std::int64_t t = 0;
    for (std::int64_t p = 0; p < kPairs; ++p)
      if (marked[static_cast<std::size_t>(2 * p)] != 0 &&
          marked[static_cast<std::size_t>(2 * p + 1)] != 0)
        ++t;
    ++naive[static_cast<std::size_t>(t)];
  }
  const double crit = chi2_crit(3);  // 4 reachable outcomes
  EXPECT_LT(chi_square(fast, pmf, kDraws), crit);
  EXPECT_LT(chi_square(naive, pmf, kDraws), crit);
}

TEST(FullPairs, MomentsMatchAtBatchScale) {
  // The regime the batch engine uses: thousands of pairs.  E[t] =
  // pairs · items(items-1) / (2p(2p-1)) with 2p = 2·pairs slots.
  constexpr std::int64_t kPairs = 2'000;
  constexpr std::int64_t kItems = 500;
  constexpr int kDraws = 20'000;
  Xoshiro256 gen(25);
  double sum = 0.0;
  for (int i = 0; i < kDraws; ++i)
    sum += static_cast<double>(divpp::rng::full_pairs(gen, kPairs, kItems));
  const double mean = sum / kDraws;
  const double expect =
      static_cast<double>(kPairs) * static_cast<double>(kItems) *
      static_cast<double>(kItems - 1) /
      (static_cast<double>(2 * kPairs) *
       static_cast<double>(2 * kPairs - 1));
  EXPECT_NEAR(mean, expect, 0.05 * expect);
}

TEST(MultivariateHypergeometricChiSquare, ChainPathMarginalPinned) {
  // Draws above the urn cutoff exercise the conditional hypergeometric
  // chain; the first marginal is exactly Hypergeometric(120, 40, 60).
  const std::vector<std::int64_t> counts = {40, 30, 50};
  constexpr std::int64_t kSample = 60;  // > urn cutoff of 32
  const std::int64_t kDraws = scaled(120'000);
  constexpr std::int64_t kLo = 12, kHi = 28;
  std::vector<double> pmf(static_cast<std::size_t>(kHi - kLo + 1), 0.0);
  for (std::int64_t x = 0; x <= 40; ++x)
    pmf[static_cast<std::size_t>(std::clamp(x, kLo, kHi) - kLo)] +=
        hypergeometric_pmf(120, 40, kSample, x);
  Xoshiro256 gen(26);
  const auto hits = histogram(kLo, kHi, kDraws, [&] {
    return mvh(gen, counts, kSample)[0];
  });
  EXPECT_LT(chi_square(hits, pmf, kDraws), chi2_crit(pmf.size() - 1));
}

TEST(MultivariateHypergeometricChiSquare, MultinomialPathMarginalPinned) {
  // 38 draws from a pool of 12000 take the multinomial path (8·38² =
  // 11552 <= 12000); the first marginal is exactly
  // Hypergeometric(12000, 4000, 38).
  const std::vector<std::int64_t> counts = {4000, 3000, 5000};
  constexpr std::int64_t kSample = 38;
  ASSERT_TRUE(divpp::rng::detail::multivariate_hypergeometric_uses_multinomial(
      12'000, kSample));
  const std::int64_t kDraws = scaled(120'000);
  constexpr std::int64_t kLo = 4, kHi = 22;
  std::vector<double> pmf(static_cast<std::size_t>(kHi - kLo + 1), 0.0);
  for (std::int64_t x = 0; x <= kSample; ++x)
    pmf[static_cast<std::size_t>(std::clamp(x, kLo, kHi) - kLo)] +=
        hypergeometric_pmf(12'000, 4000, kSample, x);
  Xoshiro256 gen(46);
  const auto hits = histogram(kLo, kHi, kDraws, [&] {
    return mvh(gen, counts, kSample)[0];
  });
  EXPECT_LT(chi_square(hits, pmf, kDraws), chi2_crit(pmf.size() - 1));
}

TEST(MultivariateHypergeometricMultinomial, DispatchPredicateMatchesCutoffs) {
  using divpp::rng::detail::multivariate_hypergeometric_uses_multinomial;
  // Samples of at most 32 draws stay on the urn at any pool.
  EXPECT_FALSE(multivariate_hypergeometric_uses_multinomial(100'000'000, 32));
  // Above it 8·draws² <= pool decides: 8·33² = 8712.
  EXPECT_TRUE(multivariate_hypergeometric_uses_multinomial(8712, 33));
  EXPECT_FALSE(multivariate_hypergeometric_uses_multinomial(8711, 33));
  // The collision chain's colour splits at n = 10⁸.
  EXPECT_TRUE(multivariate_hypergeometric_uses_multinomial(100'000'000, 182));
  EXPECT_TRUE(
      multivariate_hypergeometric_uses_multinomial(100'000'000, 2940));
  // A pool of 16384: 45 draws take it, 46 stay on the chain.
  EXPECT_TRUE(multivariate_hypergeometric_uses_multinomial(16'384, 45));
  EXPECT_FALSE(multivariate_hypergeometric_uses_multinomial(16'384, 46));
  // No overflow where draws² leaves the int64 range.
  EXPECT_TRUE(multivariate_hypergeometric_uses_multinomial(
      4'000'000'000'000'000'000, 700'000'000));
  EXPECT_FALSE(multivariate_hypergeometric_uses_multinomial(
      4'000'000'000'000'000'000, 1'000'000'000));
  EXPECT_THROW(
      (void)multivariate_hypergeometric_uses_multinomial(10, 11),
      std::invalid_argument);
}

TEST(MultivariateHypergeometricMultinomial, DispatcherBitIdenticalToKernel) {
  // Where the predicate holds, the dispatcher is the multinomial kernel
  // draw for draw, consuming the identical RNG stream; empty categories
  // take nothing and every split conserves the sample.
  Xoshiro256 gen_a(47);
  Xoshiro256 gen_b(47);
  const std::vector<std::int64_t> k8(8, 12'500'000);
  const std::vector<std::int64_t> uneven = {0, 40'000'000, 0, 60'000'000};
  for (const auto& [counts, draws] :
       {std::pair<std::vector<std::int64_t>, std::int64_t>{k8, 182},
        {k8, 2940},
        {uneven, 500},
        {{4000, 3000, 5000}, 38}}) {
    const std::int64_t pool =
        std::accumulate(counts.begin(), counts.end(), std::int64_t{0});
    ASSERT_TRUE(
        divpp::rng::detail::multivariate_hypergeometric_uses_multinomial(
            pool, draws));
    std::vector<std::int64_t> out(counts.size());
    for (int i = 0; i < 300; ++i) {
      divpp::rng::detail::multivariate_hypergeometric_multinomial(
          gen_b, counts, draws, out);
      ASSERT_EQ(mvh(gen_a, counts, draws), out);
      ASSERT_EQ(gen_a, gen_b);
      ASSERT_EQ(std::accumulate(out.begin(), out.end(), std::int64_t{0}),
                draws);
      for (std::size_t j = 0; j < counts.size(); ++j)
        ASSERT_TRUE(counts[j] > 0 || out[j] == 0) << "category " << j;
    }
  }
  // The kernel alone at a small pool with empty categories, one of them
  // after the last non-empty one: the conditional-binomial chain gives
  // them nothing and ends once the pool is spent.
  const std::vector<std::int64_t> sparse = {0, 300, 0, 100, 0};
  std::vector<std::int64_t> out(sparse.size());
  for (int i = 0; i < 2'000; ++i) {
    divpp::rng::detail::multivariate_hypergeometric_multinomial(gen_b, sparse,
                                                                20, out);
    ASSERT_EQ(out[0], 0);
    ASSERT_EQ(out[2], 0);
    ASSERT_EQ(out[4], 0);
    ASSERT_EQ(out[1] + out[3], 20);
  }
}

// ---- multivariate_hypergeometric_pairs (members + monochromatic pairs) ----

/// The paired-draw pin shape: 3 pairs from counts {3, 2, 4}.  Outcomes
/// are keyed by the member and monochromatic-pair counts per class.
const std::vector<std::int64_t> kPairCounts = {3, 2, 4};
constexpr std::int64_t kPairPairs = 3;

std::int64_t pair_key(std::span<const std::int64_t> members,
                      std::span<const std::int64_t> mono) {
  std::int64_t key = 0;
  for (std::size_t i = 0; i < members.size(); ++i)
    key = key * 100 + members[i] * 10 + mono[i];
  return key;
}

/// Tallies an ordered slot sequence (slot 2j and 2j + 1 form pair j).
std::int64_t sequence_key(std::span<const std::int64_t> slots,
                          std::size_t classes) {
  std::vector<std::int64_t> members(classes, 0);
  std::vector<std::int64_t> mono(classes, 0);
  for (std::size_t j = 0; j < slots.size(); ++j)
    ++members[static_cast<std::size_t>(slots[j])];
  for (std::size_t j = 0; j + 1 < slots.size(); j += 2)
    if (slots[j] == slots[j + 1]) ++mono[static_cast<std::size_t>(slots[j])];
  return pair_key(members, mono);
}

/// The exact joint law of (members, mono), enumerated: every ordered
/// sequence of 2·pairs classes has probability Π_i counts_i^(c_i) over
/// pool^(2·pairs) (falling factorials) when drawn without replacement.
std::map<std::int64_t, double> pair_pmf() {
  const std::size_t k = kPairCounts.size();
  const std::int64_t pool =
      std::accumulate(kPairCounts.begin(), kPairCounts.end(), std::int64_t{0});
  const std::size_t slots = 2 * static_cast<std::size_t>(kPairPairs);
  std::map<std::int64_t, double> pmf;
  std::vector<std::int64_t> seq(slots, 0);
  std::size_t sequences = 1;
  for (std::size_t j = 0; j < slots; ++j) sequences *= k;
  for (std::size_t code = 0; code < sequences; ++code) {
    std::size_t rest = code;
    std::vector<std::int64_t> left = kPairCounts;
    double p = 1.0;
    for (std::size_t j = 0; j < slots; ++j) {
      seq[j] = static_cast<std::int64_t>(rest % k);
      rest /= k;
      const auto c = static_cast<std::size_t>(seq[j]);
      p *= static_cast<double>(std::max<std::int64_t>(left[c], 0)) /
           static_cast<double>(pool - static_cast<std::int64_t>(j));
      --left[c];
    }
    if (p > 0.0) pmf[sequence_key(seq, k)] += p;
  }
  return pmf;
}

double pair_chi_square(const std::map<std::int64_t, std::int64_t>& hits,
                       std::int64_t draws) {
  const std::map<std::int64_t, double> pmf = pair_pmf();
  for (const auto& [key, h] : hits)
    EXPECT_TRUE(pmf.contains(key)) << "outcome " << key << " drawn " << h
                                   << " times outside the support";
  std::vector<double> pmf_vec;
  std::vector<std::int64_t> hit_vec;
  for (const auto& [key, p] : pmf) {
    pmf_vec.push_back(p);
    const auto it = hits.find(key);
    hit_vec.push_back(it == hits.end() ? 0 : it->second);
  }
  return chi_square(hit_vec, pmf_vec, draws);
}

TEST(MultivariateHypergeometricPairsChiSquare, PairedPathJointPinnedToExactLaw) {
  // The paired kernel driven directly at a shape far outside its
  // dispatch range (8·6² > 9): with replacement, 3 pairs from
  // {3, 2, 4} put ~20% of their mass on member counts beyond some class
  // and misweight the rest, so only the acceptance step passes.  A naive
  // reference (6 of 9 labelled balls drawn one at a time, paired in draw
  // order) is pinned to the same enumerated law.
  const std::int64_t kDraws = scaled(120'000);
  Xoshiro256 gen(48);
  Xoshiro256 ref_gen(49);
  std::vector<std::int64_t> members(kPairCounts.size());
  std::vector<std::int64_t> mono(kPairCounts.size());
  std::map<std::int64_t, std::int64_t> hits, naive_hits;
  for (std::int64_t d = 0; d < kDraws; ++d) {
    divpp::rng::detail::multivariate_hypergeometric_pairs_multinomial(
        gen, kPairCounts, kPairPairs, members, mono);
    ++hits[pair_key(members, mono)];
    std::vector<std::int64_t> pool;
    for (std::size_t i = 0; i < kPairCounts.size(); ++i)
      pool.insert(pool.end(), static_cast<std::size_t>(kPairCounts[i]),
                  static_cast<std::int64_t>(i));
    std::vector<std::int64_t> seq;
    for (std::int64_t t = 0; t < 2 * kPairPairs; ++t) {
      const auto pick = static_cast<std::size_t>(divpp::rng::uniform_below(
          ref_gen, static_cast<std::int64_t>(pool.size())));
      seq.push_back(pool[pick]);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    ++naive_hits[sequence_key(seq, kPairCounts.size())];
  }
  const double crit = chi2_crit(pair_pmf().size() - 1);
  EXPECT_LT(pair_chi_square(hits, kDraws), crit);
  EXPECT_LT(pair_chi_square(naive_hits, kDraws), crit);
}

/// The fallback of multivariate_hypergeometric_pairs, spelled out with
/// the public samplers: the member split, then per class one
/// hypergeometric for the members landing in still-empty pairs and one
/// full_pairs for the monochromatic pairs among them.
void pairs_by_slot_chain(Xoshiro256& gen, std::span<const std::int64_t> counts,
                         std::int64_t pairs, std::span<std::int64_t> members,
                         std::span<std::int64_t> mono) {
  divpp::rng::multivariate_hypergeometric(gen, counts, 2 * pairs, members);
  std::int64_t open = pairs;
  std::int64_t singles = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::int64_t in_pairs = divpp::rng::hypergeometric(
        gen, 2 * open + singles, 2 * open, members[i]);
    mono[i] = divpp::rng::full_pairs(gen, open, in_pairs);
    const std::int64_t half = in_pairs - 2 * mono[i];
    open -= mono[i] + half;
    singles += half - (members[i] - in_pairs);
  }
}

TEST(MultivariateHypergeometricPairs, DispatchFollowsTheMultinomialPredicate) {
  // multivariate_hypergeometric_uses_multinomial(pool, 2·pairs) decides:
  // where it holds the dispatcher is the paired kernel draw for draw,
  // elsewhere it is the member split plus the slot chain.  The shapes
  // straddle the predicate's edge (8·34² = 9248) and include converge's
  // equilibrium (k = 8, pool ≈ 9.7·10⁷, ~1,500 pairs).
  using divpp::rng::detail::multivariate_hypergeometric_uses_multinomial;
  const std::vector<std::int64_t> converge(8, 12'100'000);
  const std::vector<std::int64_t> edge = {3000, 2000, 4248};
  const std::vector<std::int64_t> below = {3000, 2000, 4247};
  const std::vector<std::int64_t> uneven = {0, 40'000'000, 0, 60'000'000};
  const std::vector<std::int64_t> small = {40, 30, 50};
  struct Shape {
    std::vector<std::int64_t> counts;
    std::int64_t pairs;
    bool paired;
  };
  for (const Shape& shape : {Shape{converge, 1'475, true},
                             Shape{uneven, 250, true},
                             Shape{edge, 17, true},
                             Shape{below, 17, false},
                             Shape{small, 10, false},
                             Shape{small, 30, false}}) {
    const std::int64_t pool = std::accumulate(
        shape.counts.begin(), shape.counts.end(), std::int64_t{0});
    ASSERT_EQ(multivariate_hypergeometric_uses_multinomial(pool,
                                                           2 * shape.pairs),
              shape.paired)
        << "pool " << pool << ", pairs " << shape.pairs;
    Xoshiro256 gen_a(50);
    Xoshiro256 gen_b(50);
    const std::size_t k = shape.counts.size();
    std::vector<std::int64_t> members_a(k), mono_a(k), members_b(k),
        mono_b(k);
    for (int i = 0; i < 200; ++i) {
      divpp::rng::multivariate_hypergeometric_pairs(
          gen_a, shape.counts, shape.pairs, members_a, mono_a);
      if (shape.paired) {
        divpp::rng::detail::multivariate_hypergeometric_pairs_multinomial(
            gen_b, shape.counts, shape.pairs, members_b, mono_b);
      } else {
        pairs_by_slot_chain(gen_b, shape.counts, shape.pairs, members_b,
                            mono_b);
      }
      ASSERT_EQ(members_a, members_b) << "pool " << pool;
      ASSERT_EQ(mono_a, mono_b) << "pool " << pool;
      ASSERT_EQ(gen_a, gen_b) << "pool " << pool;
      ASSERT_EQ(std::accumulate(members_a.begin(), members_a.end(),
                                std::int64_t{0}),
                2 * shape.pairs);
      for (std::size_t j = 0; j < k; ++j) {
        ASSERT_LE(members_a[j], shape.counts[j]);
        ASSERT_LE(2 * mono_a[j], members_a[j]);
      }
    }
  }
}

TEST(MultivariateHypergeometricPairs, Validates) {
  Xoshiro256 gen(51);
  const std::vector<std::int64_t> counts = {3, 4};
  std::vector<std::int64_t> members(2), mono(2), short_out(1);
  EXPECT_THROW(divpp::rng::multivariate_hypergeometric_pairs(
                   gen, counts, 4, members, mono),
               std::invalid_argument);  // 8 members from 7 items
  EXPECT_THROW(divpp::rng::multivariate_hypergeometric_pairs(
                   gen, counts, -1, members, mono),
               std::invalid_argument);
  EXPECT_THROW(divpp::rng::multivariate_hypergeometric_pairs(
                   gen, counts, 1, members, short_out),
               std::invalid_argument);
  EXPECT_THROW(
      divpp::rng::detail::multivariate_hypergeometric_pairs_multinomial(
          gen, counts, 1, short_out, mono),
               std::invalid_argument);
  divpp::rng::detail::multivariate_hypergeometric_pairs_multinomial(
      gen, counts, 0, members, mono);
  EXPECT_EQ(members, (std::vector<std::int64_t>{0, 0}));
  EXPECT_EQ(mono, (std::vector<std::int64_t>{0, 0}));
  // Three pairs from {3, 4}: every member is drawn but one.
  divpp::rng::multivariate_hypergeometric_pairs(gen, counts, 3, members,
                                                mono);
  EXPECT_EQ(members[0] + members[1], 6);
}

// ---- the HRUA rejection regime (PR 4) --------------------------------------

TEST(HypergeometricRejection, DispatchPredicateMatchesCutoffs) {
  // Stirling-scale arguments (total >= the log-factorial table): the
  // variance cutoff of 9 decides.  Variance = draws·p·(1−p)·(N−draws)/
  // (N−1) with p = marked/N; at N = 100000, marked = 50000 the cutoff
  // falls between draws = 36 (var ≈ 8.997) and draws = 37 (var ≈ 9.25).
  EXPECT_FALSE(
      divpp::rng::detail::hypergeometric_uses_rejection(100'000, 50'000, 36));
  EXPECT_TRUE(
      divpp::rng::detail::hypergeometric_uses_rejection(100'000, 50'000, 37));
  // Table-scale arguments keep the chop-down walk until the in-table
  // variance cutoff of 625: var ≈ 9.13 at (1000, 500, 38) stays
  // chop-down, var ≈ 705 at (50000, 25000, 3000) flips to rejection.
  EXPECT_FALSE(
      divpp::rng::detail::hypergeometric_uses_rejection(1000, 500, 38));
  EXPECT_TRUE(
      divpp::rng::detail::hypergeometric_uses_rejection(50'000, 25'000, 3'000));
  // Degenerate supports never use rejection.
  EXPECT_FALSE(divpp::rng::detail::hypergeometric_uses_rejection(10, 0, 5));
  EXPECT_FALSE(divpp::rng::detail::hypergeometric_uses_rejection(10, 10, 5));
  // The historical chi-square pin parameters stay on the chop-down path.
  EXPECT_FALSE(divpp::rng::detail::hypergeometric_uses_rejection(60, 25, 20));
}

TEST(HypergeometricRejection, BelowCutoffBitIdenticalToChopdown) {
  // The fallback-threshold pin: just below the rejection cutoff the
  // dispatcher must be the chop-down kernel draw for draw, consuming
  // the identical RNG stream (generator-state equality after each draw).
  Xoshiro256 gen_a(27);
  Xoshiro256 gen_b(27);
  ASSERT_FALSE(
      divpp::rng::detail::hypergeometric_uses_rejection(100'000, 50'000, 36));
  for (int i = 0; i < 5'000; ++i) {
    ASSERT_EQ(divpp::rng::hypergeometric(gen_a, 100'000, 50'000, 36),
              divpp::rng::detail::hypergeometric_chopdown(gen_b, 100'000,
                                                          50'000, 36));
    ASSERT_EQ(gen_a, gen_b);
  }
  // And across a mixed bag of chop-down parameter sets, including
  // table-scale draws below the in-table variance cutoff.
  for (const auto& [total, marked, draws] :
       {std::tuple<std::int64_t, std::int64_t, std::int64_t>{60, 25, 20},
        {100, 95, 90},
        {1'000'000, 20, 400'000},
        {5000, 4, 2500},
        {1000, 500, 38},
        {4000, 1200, 400}}) {
    ASSERT_FALSE(divpp::rng::detail::hypergeometric_uses_rejection(
        total, marked, draws));
    for (int i = 0; i < 500; ++i) {
      ASSERT_EQ(divpp::rng::hypergeometric(gen_a, total, marked, draws),
                divpp::rng::detail::hypergeometric_chopdown(gen_b, total,
                                                            marked, draws));
      ASSERT_EQ(gen_a, gen_b);
    }
  }
}

TEST(HypergeometricRejectionChiSquare, PinnedToExactPmf) {
  // Rejection-regime pin against the lgamma-evaluated pmf: sd ≈ 28.8
  // with Stirling-scale arguments, so the HRUA path is exercised
  // (predicate asserted), window mean ± 4.5 sd, tails folded into the
  // edge bins.
  constexpr std::int64_t kTotal = 400'000;
  constexpr std::int64_t kMarked = 120'000;
  constexpr std::int64_t kSample = 4'000;
  const std::int64_t kDraws = scaled(150'000);
  ASSERT_TRUE(divpp::rng::detail::hypergeometric_uses_rejection(
      kTotal, kMarked, kSample));
  const double mean = 4000.0 * 0.3;
  const double sd = std::sqrt(4000.0 * 0.3 * 0.7 * 396000.0 / 399999.0);
  const auto lo = static_cast<std::int64_t>(std::floor(mean - 4.5 * sd));
  const auto hi = static_cast<std::int64_t>(std::ceil(mean + 4.5 * sd));
  std::vector<double> pmf(static_cast<std::size_t>(hi - lo + 1), 0.0);
  for (std::int64_t x = 0; x <= kSample; ++x)
    pmf[static_cast<std::size_t>(std::clamp(x, lo, hi) - lo)] +=
        hypergeometric_pmf(kTotal, kMarked, kSample, x);
  Xoshiro256 gen(28);
  const auto fast = histogram(lo, hi, kDraws, [&] {
    return divpp::rng::hypergeometric(gen, kTotal, kMarked, kSample);
  });
  EXPECT_LT(chi_square(fast, pmf, kDraws), chi2_crit(pmf.size() - 1));
}

TEST(HypergeometricRejectionChiSquare, AgreesWithChopdownLawAcrossCutoff) {
  // Same parameters, both kernels: the rejection sampler and the
  // chop-down reference must realise the same law (two independent
  // chi-squares against the shared exact pmf).
  constexpr std::int64_t kTotal = 200'000;
  constexpr std::int64_t kMarked = 50'000;
  constexpr std::int64_t kSample = 160;
  const std::int64_t kDraws = scaled(120'000);
  ASSERT_TRUE(divpp::rng::detail::hypergeometric_uses_rejection(
      kTotal, kMarked, kSample));
  const double mean = 160.0 * 0.25;
  const double sd =
      std::sqrt(160.0 * 0.25 * 0.75 * 199840.0 / 199999.0);
  const auto lo = static_cast<std::int64_t>(std::floor(mean - 4.5 * sd));
  const auto hi = static_cast<std::int64_t>(std::ceil(mean + 4.5 * sd));
  std::vector<double> pmf(static_cast<std::size_t>(hi - lo + 1), 0.0);
  for (std::int64_t x = 0; x <= kSample; ++x)
    pmf[static_cast<std::size_t>(std::clamp(x, lo, hi) - lo)] +=
        hypergeometric_pmf(kTotal, kMarked, kSample, x);
  Xoshiro256 gen(29);
  const auto rejection = histogram(lo, hi, kDraws, [&] {
    return divpp::rng::hypergeometric(gen, kTotal, kMarked, kSample);
  });
  Xoshiro256 ref_gen(30);
  const auto chopdown = histogram(lo, hi, kDraws, [&] {
    return divpp::rng::detail::hypergeometric_chopdown(ref_gen, kTotal,
                                                       kMarked, kSample);
  });
  const double crit = chi2_crit(pmf.size() - 1);
  EXPECT_LT(chi_square(rejection, pmf, kDraws), crit);
  EXPECT_LT(chi_square(chopdown, pmf, kDraws), crit);
}

TEST(HypergeometricRejection, SymmetricIdentitiesHold) {
  // H(N, K, d) and H(N, d, K) are the same distribution (the count of
  // marked×sampled incidences); so is d − H(N, N−K, d) by complement.
  // Pin all three forms against the one exact pmf in the rejection
  // regime.
  constexpr std::int64_t kTotal = 200'000;
  constexpr std::int64_t kMarked = 70'000;
  constexpr std::int64_t kSample = 30'000;
  const std::int64_t kDraws = scaled(100'000);
  ASSERT_TRUE(divpp::rng::detail::hypergeometric_uses_rejection(
      kTotal, kMarked, kSample));
  const double mean = 30'000.0 * 0.35;
  const double sd =
      std::sqrt(30'000.0 * 0.35 * 0.65 * 170'000.0 / 199'999.0);
  const auto lo = static_cast<std::int64_t>(std::floor(mean - 4.5 * sd));
  const auto hi = static_cast<std::int64_t>(std::ceil(mean + 4.5 * sd));
  std::vector<double> pmf(static_cast<std::size_t>(hi - lo + 1), 0.0);
  for (std::int64_t x = 0; x <= kSample; ++x)
    pmf[static_cast<std::size_t>(std::clamp(x, lo, hi) - lo)] +=
        hypergeometric_pmf(kTotal, kMarked, kSample, x);
  const double crit = chi2_crit(pmf.size() - 1);
  Xoshiro256 gen(31);
  const auto direct = histogram(lo, hi, kDraws, [&] {
    return divpp::rng::hypergeometric(gen, kTotal, kMarked, kSample);
  });
  EXPECT_LT(chi_square(direct, pmf, kDraws), crit);
  const auto swapped = histogram(lo, hi, kDraws, [&] {
    return divpp::rng::hypergeometric(gen, kTotal, kSample, kMarked);
  });
  EXPECT_LT(chi_square(swapped, pmf, kDraws), crit);
  const auto complemented = histogram(lo, hi, kDraws, [&] {
    return kSample - divpp::rng::hypergeometric(gen, kTotal,
                                                kTotal - kMarked, kSample);
  });
  EXPECT_LT(chi_square(complemented, pmf, kDraws), crit);
}

TEST(HypergeometricRejection, ExtremeParametersStayInSupport) {
  Xoshiro256 gen(32);
  // Degenerate draws resolve without touching either kernel.
  EXPECT_EQ(divpp::rng::hypergeometric(gen, 1'000'000'000, 400'000'000, 0),
            0);
  EXPECT_EQ(divpp::rng::hypergeometric(gen, 1'000'000'000, 400'000'000,
                                       1'000'000'000),
            400'000'000);
  // Mode at the support boundary: lo = 85 > 0 (pinched support), narrow
  // variance — every draw must stay inside [85, 90].
  for (int i = 0; i < 20'000; ++i) {
    const std::int64_t x = divpp::rng::hypergeometric(gen, 100, 95, 90);
    EXPECT_GE(x, 85);
    EXPECT_LE(x, 90);
  }
  // A pinched support in the rejection regime (lo > 0): N = 300000,
  // K = 260000, d = 90000 has lo = 50000, variance ≈ 7280.
  ASSERT_TRUE(divpp::rng::detail::hypergeometric_uses_rejection(
      300'000, 260'000, 90'000));
  for (int i = 0; i < 20'000; ++i) {
    const std::int64_t x =
        divpp::rng::hypergeometric(gen, 300'000, 260'000, 90'000);
    EXPECT_GE(x, 50'000);
    EXPECT_LE(x, 90'000);
  }
}

TEST(FullPairsChiSquare, StirlingScalePinnedToExactPmf) {
  // The chop-down walk beyond the log-factorial table: pairs = 100000,
  // items = 5000 has mean ≈ 62.5 and variance ≈ 58.5 with Stirling-scale
  // pmf arguments; window mean ± 4.5 sd against the lgamma pmf.
  constexpr std::int64_t kPairs = 100'000;
  constexpr std::int64_t kItems = 5'000;
  const std::int64_t kDraws = scaled(150'000);
  const double mean =
      5000.0 * 4999.0 / (2.0 * 199'999.0);  // ≈ 62.49
  const double sd = std::sqrt(58.5);
  const auto lo = static_cast<std::int64_t>(std::floor(mean - 4.5 * sd));
  const auto hi = static_cast<std::int64_t>(std::ceil(mean + 4.5 * sd));
  const double denom = log_choose(2 * kPairs, kItems);
  std::vector<double> pmf(static_cast<std::size_t>(hi - lo + 1), 0.0);
  for (std::int64_t t = std::max<std::int64_t>(0, kItems - kPairs);
       t <= kItems / 2; ++t) {
    const double mass =
        std::exp(log_choose(kPairs, t) +
                 log_choose(kPairs - t, kItems - 2 * t) +
                 static_cast<double>(kItems - 2 * t) * std::log(2.0) -
                 denom);
    pmf[static_cast<std::size_t>(std::clamp(t, lo, hi) - lo)] += mass;
  }
  Xoshiro256 gen(34);
  const auto fast = histogram(lo, hi, kDraws, [&] {
    return divpp::rng::full_pairs(gen, kPairs, kItems);
  });
  EXPECT_LT(chi_square(fast, pmf, kDraws), chi2_crit(pmf.size() - 1));
}

TEST(BinomialChiSquare, SmallNBernoulliPathPinned) {
  // n <= 16 takes the Bernoulli-loop fast path (PR 4); pin it to the
  // exact pmf like the other binomial regimes.
  constexpr std::int64_t kN = 12;
  constexpr double kP = 0.3;
  const std::int64_t kDraws = scaled(200'000);
  std::vector<double> pmf(kN + 1);
  for (std::int64_t x = 0; x <= kN; ++x)
    pmf[static_cast<std::size_t>(x)] = binomial_pmf(kN, kP, x);
  Xoshiro256 gen(35);
  const auto fast = histogram(0, kN, kDraws, [&] {
    return divpp::rng::binomial(gen, kN, kP);
  });
  // Lump x >= 9 (expected counts below 5 otherwise).
  std::vector<double> pmf_l(pmf.begin(), pmf.begin() + 9);
  pmf_l.push_back(std::accumulate(pmf.begin() + 9, pmf.end(), 0.0));
  std::vector<std::int64_t> lumped(fast.begin(), fast.begin() + 9);
  lumped.push_back(
      std::accumulate(fast.begin() + 9, fast.end(), std::int64_t{0}));
  EXPECT_LT(chi_square(lumped, pmf_l, kDraws), chi2_crit(pmf_l.size() - 1));
}

}  // namespace
