// Tests for the collision-batch engine (batch/): the birthday run-length
// sampler pinned against the exact survival law and a naive
// pair-drawing simulation, CollisionBatcher conservation and outcome
// invariants, the CountSimulation::run_batched entry (absorption
// short-circuit, conservation), and — the headline distributional
// contract — fixed-seed two-sample chi-squares showing run_batched and
// the collision chain each produce step's per-window count distributions
// at n = 2000.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "batch/collision_batch.h"
#include "core/count_simulation.h"
#include "core/weights.h"
#include "rng/distributions.h"
#include "rng/xoshiro.h"
#include "runtime/batch_runner.h"
#include "scale.h"

namespace {

using divpp::test::scaled;

using divpp::batch::CollisionBatcher;
using divpp::batch::collision_free_run_length;
using divpp::core::CountSimulation;
using divpp::core::Engine;
using divpp::core::WeightMap;
using divpp::rng::Xoshiro256;

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

/// Two-sample chi-square for equal sample sizes: Σ (a−b)²/(a+b),
/// asymptotically chi-square with (#non-empty bins − 1) dof under H0.
double chi_square_two_sample(const std::vector<std::int64_t>& a,
                             const std::vector<std::int64_t>& b) {
  double chi2 = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double total = static_cast<double>(a[i] + b[i]);
    if (total == 0.0) continue;
    const double diff = static_cast<double>(a[i] - b[i]);
    chi2 += diff * diff / total;
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

/// Exact run-length survival S(j) = P(no collision in j interactions)
/// by the defining product — the reference the sampler is pinned to.
std::vector<double> run_length_survival(std::int64_t n) {
  std::vector<double> s(static_cast<std::size_t>(n / 2) + 2, 0.0);
  s[0] = 1.0;
  s[1] = 1.0;
  const double dn = static_cast<double>(n);
  for (std::int64_t j = 1; j < n / 2; ++j) {
    const double t = 2.0 * static_cast<double>(j);
    s[static_cast<std::size_t>(j) + 1] =
        s[static_cast<std::size_t>(j)] * (1.0 - t / dn) *
        (1.0 - t / (dn - 1.0));
  }
  return s;  // s[n/2 + 1] stays 0
}

/// Bins each sample of `values` by the thresholds and returns hits; the
/// thresholds are right-open bin edges (value < edge → earlier bin).
std::vector<std::int64_t> bin_by_edges(const std::vector<std::int64_t>& values,
                                       const std::vector<std::int64_t>& edges) {
  std::vector<std::int64_t> hits(edges.size() + 1, 0);
  for (const std::int64_t v : values) {
    const auto it = std::upper_bound(edges.begin(), edges.end(), v);
    ++hits[static_cast<std::size_t>(it - edges.begin())];
  }
  return hits;
}

/// Pooled-quantile bin edges so both samples spread over ~`bins` bins.
std::vector<std::int64_t> quantile_edges(std::vector<std::int64_t> pooled,
                                         int bins) {
  std::sort(pooled.begin(), pooled.end());
  std::vector<std::int64_t> edges;
  for (int q = 1; q < bins; ++q) {
    const std::int64_t edge =
        pooled[pooled.size() * static_cast<std::size_t>(q) /
               static_cast<std::size_t>(bins)];
    if (edges.empty() || edge > edges.back()) edges.push_back(edge);
  }
  return edges;
}

// ---- engine enum ----------------------------------------------------------

TEST(EngineEnum, ParseAndNameRoundTrip) {
  for (const Engine e :
       {Engine::kStep, Engine::kJump, Engine::kBatch, Engine::kAuto})
    EXPECT_EQ(divpp::core::parse_engine(divpp::core::engine_name(e)), e);
  EXPECT_THROW((void)divpp::core::parse_engine("turbo"),
               std::invalid_argument);
  EXPECT_THROW((void)divpp::core::parse_engine(""), std::invalid_argument);
}

// ---- collision-free run length --------------------------------------------

TEST(CollisionFreeRunLength, ValidatesAndBounds) {
  Xoshiro256 gen(1);
  EXPECT_THROW((void)collision_free_run_length(gen, 1),
               std::invalid_argument);
  for (const std::int64_t n : {2, 3}) {
    // With at most 3 agents the second interaction always repeats one.
    for (int i = 0; i < 100; ++i)
      EXPECT_EQ(collision_free_run_length(gen, n), 1);
  }
  for (int i = 0; i < 10'000; ++i) {
    const std::int64_t len = collision_free_run_length(gen, 100);
    EXPECT_GE(len, 1);
    EXPECT_LE(len, 50);
  }
}

TEST(CollisionFreeRunLengthChiSquare, PinnedToExactLawAndNaivePairDraws) {
  constexpr std::int64_t kN = 12;
  // Scalable (DIVPP_TEST_SCALE): at /10 the rarest run length (6, with
  // p ~ 1e-3) still expects ~20 hits per ensemble.
  const std::int64_t kDraws = scaled(200'000);
  const std::vector<double> survival = run_length_survival(kN);
  std::vector<double> pmf(static_cast<std::size_t>(kN / 2) + 1, 0.0);
  for (std::int64_t j = 1; j <= kN / 2; ++j)
    pmf[static_cast<std::size_t>(j)] =
        survival[static_cast<std::size_t>(j)] -
        survival[static_cast<std::size_t>(j) + 1];

  Xoshiro256 gen(2);
  std::vector<std::int64_t> fast(pmf.size(), 0);
  for (std::int64_t d = 0; d < kDraws; ++d)
    ++fast[static_cast<std::size_t>(collision_free_run_length(gen, kN))];

  // Naive reference: draw uniform ordered distinct pairs until an agent
  // repeats; the count of completed collision-free interactions is ℓ.
  Xoshiro256 ref_gen(3);
  std::vector<std::int64_t> naive(pmf.size(), 0);
  std::vector<bool> used(kN);
  for (std::int64_t d = 0; d < kDraws; ++d) {
    std::fill(used.begin(), used.end(), false);
    std::int64_t len = 0;
    while (true) {
      const auto [a, b] = divpp::rng::two_distinct(ref_gen, kN);
      if (used[static_cast<std::size_t>(a)] ||
          used[static_cast<std::size_t>(b)])
        break;
      used[static_cast<std::size_t>(a)] = true;
      used[static_cast<std::size_t>(b)] = true;
      ++len;
    }
    ++naive[static_cast<std::size_t>(len)];
  }

  const double crit = chi2_crit(pmf.size() - 2);  // pmf[0] == 0
  EXPECT_LT(chi_square(fast, pmf, kDraws), crit);
  EXPECT_LT(chi_square(naive, pmf, kDraws), crit);
}

TEST(CollisionFreeRunLength, LargeNMeanMatchesExactLaw) {
  // n = 2^17 takes the closed-form binary-search path; its mean must
  // match E[ℓ] = Σ_j S(j) computed from the exact product.
  constexpr std::int64_t kN = 1 << 17;
  // Scalable: the 5-sigma tolerance below widens with sqrt(kDraws).
  const int kDraws = static_cast<int>(scaled(20'000));
  const std::vector<double> survival = run_length_survival(kN);
  double expect = 0.0, expect2 = 0.0;
  for (std::int64_t j = 1; j <= kN / 2; ++j) {
    const double s = survival[static_cast<std::size_t>(j)];
    expect += s;                                          // Σ P(ℓ >= j)
    expect2 += (2.0 * static_cast<double>(j) - 1.0) * s;  // Σ (2j-1) P(>=j)
  }
  const double sd = std::sqrt(expect2 - expect * expect);
  Xoshiro256 gen(4);
  double sum = 0.0;
  for (int i = 0; i < kDraws; ++i)
    sum += static_cast<double>(collision_free_run_length(gen, kN));
  const double mean = sum / kDraws;
  EXPECT_NEAR(mean, expect, 5.0 * sd / std::sqrt(static_cast<double>(kDraws)));
  // Sanity: the batch covers Θ(√n) interactions (≈ √(πn)/4 ≈ 160 here).
  EXPECT_GT(mean, 100.0);
  EXPECT_LT(mean, 300.0);
}

TEST(CollisionFreeRunLength, WalkPathMeanMatchesExactLaw) {
  // n just below the walk/binary-search cutoff exercises the other path.
  constexpr std::int64_t kN = 60'000;
  // Scalable: the 5-sigma tolerance below widens with sqrt(kDraws).
  const int kDraws = static_cast<int>(scaled(20'000));
  const std::vector<double> survival = run_length_survival(kN);
  double expect = 0.0, expect2 = 0.0;
  for (std::int64_t j = 1; j <= kN / 2; ++j) {
    const double s = survival[static_cast<std::size_t>(j)];
    expect += s;
    expect2 += (2.0 * static_cast<double>(j) - 1.0) * s;
  }
  const double sd = std::sqrt(expect2 - expect * expect);
  Xoshiro256 gen(5);
  double sum = 0.0;
  for (int i = 0; i < kDraws; ++i)
    sum += static_cast<double>(collision_free_run_length(gen, kN));
  EXPECT_NEAR(sum / kDraws, expect, 5.0 * sd / std::sqrt(static_cast<double>(kDraws)));
}

TEST(RunLengthTable, ValidatesAndMatchesExactLaw) {
  EXPECT_THROW(divpp::batch::RunLengthTable(1), std::invalid_argument);
  // Chi-square of the cached-table inversion against the exact pmf at
  // n = 12 — the table path must realise the same law as the reference
  // sampler pinned above.
  constexpr std::int64_t kN = 12;
  // Scalable: same margin argument as the reference-sampler pin above.
  const std::int64_t kDraws = scaled(200'000);
  const divpp::batch::RunLengthTable table(kN);
  EXPECT_EQ(table.population(), kN);
  const std::vector<double> survival = run_length_survival(kN);
  std::vector<double> pmf(static_cast<std::size_t>(kN / 2) + 1, 0.0);
  for (std::int64_t j = 1; j <= kN / 2; ++j)
    pmf[static_cast<std::size_t>(j)] =
        survival[static_cast<std::size_t>(j)] -
        survival[static_cast<std::size_t>(j) + 1];
  Xoshiro256 gen(20);
  std::vector<std::int64_t> hits(pmf.size(), 0);
  for (std::int64_t d = 0; d < kDraws; ++d) {
    const std::int64_t len = table.sample(gen);
    ASSERT_GE(len, 1);
    ASSERT_LE(len, kN / 2);
    ++hits[static_cast<std::size_t>(len)];
  }
  EXPECT_LT(chi_square(hits, pmf, kDraws), chi2_crit(pmf.size() - 2));
}

TEST(RunLengthTable, LargeNMeanMatchesExactLaw) {
  constexpr std::int64_t kN = 1 << 20;
  // Scalable: the 5-sigma tolerance below widens with sqrt(kDraws).
  const int kDraws = static_cast<int>(scaled(40'000));
  const divpp::batch::RunLengthTable table(kN);
  const std::vector<double> survival = run_length_survival(kN);
  double expect = 0.0, expect2 = 0.0;
  for (std::int64_t j = 1; j <= kN / 2; ++j) {
    const double s = survival[static_cast<std::size_t>(j)];
    expect += s;
    expect2 += (2.0 * static_cast<double>(j) - 1.0) * s;
  }
  const double sd = std::sqrt(expect2 - expect * expect);
  Xoshiro256 gen(21);
  double sum = 0.0;
  for (int i = 0; i < kDraws; ++i)
    sum += static_cast<double>(table.sample(gen));
  EXPECT_NEAR(sum / kDraws, expect,
              5.0 * sd / std::sqrt(static_cast<double>(kDraws)));
}

// ---- CollisionBatcher -----------------------------------------------------

TEST(CollisionBatcher, ValidatesArguments) {
  const WeightMap weights({1.0, 2.0});
  CollisionBatcher batcher(weights);
  std::vector<std::int64_t> dark = {50, 50};
  std::vector<std::int64_t> light = {0, 0};
  Xoshiro256 gen(6);
  std::vector<std::int64_t> short_span = {50};
  EXPECT_THROW((void)batcher.advance(short_span, light, 10, gen),
               std::invalid_argument);
  EXPECT_THROW((void)batcher.advance(dark, light, 0, gen),
               std::invalid_argument);
  std::vector<std::int64_t> one_dark = {1, 0};
  std::vector<std::int64_t> no_light = {0, 0};
  EXPECT_THROW((void)batcher.advance(one_dark, no_light, 10, gen),
               std::invalid_argument);
}

TEST(CollisionBatcher, ConservesPopulationAndShadeTotalsMatchOutcome) {
  const WeightMap weights({1.0, 2.0, 4.0});
  CollisionBatcher batcher(weights);
  Xoshiro256 gen(7);
  std::vector<std::int64_t> dark = {400, 300, 300};
  std::vector<std::int64_t> light = {0, 0, 0};
  constexpr std::int64_t kN = 1000;
  const auto sum = [](const std::vector<std::int64_t>& v) {
    return std::accumulate(v.begin(), v.end(), std::int64_t{0});
  };
  for (int round = 0; round < 300; ++round) {
    const std::int64_t dark_before = sum(dark);
    const std::int64_t light_before = sum(light);
    const std::int64_t consumed = batcher.advance(dark, light, 1'000, gen);
    EXPECT_GE(consumed, 1);
    EXPECT_LE(consumed, 1'000);
    const auto& out = batcher.last_outcome();
    EXPECT_EQ(out.interactions, consumed);
    for (std::size_t i = 0; i < dark.size(); ++i) {
      EXPECT_GE(dark[i], 0);
      EXPECT_GE(light[i], 0);
    }
    EXPECT_EQ(sum(dark) + sum(light), kN);
    // Adopts turn light agents dark and fades turn dark agents light, so
    // the outcome's scalars are exactly the applied shade-total deltas.
    EXPECT_EQ(sum(dark) - dark_before, out.adopts - out.fades);
    EXPECT_EQ(sum(light) - light_before, out.fades - out.adopts);
    // State changes cannot outnumber interactions.
    EXPECT_LE(out.adopts + out.fades, consumed);
  }
}

TEST(CollisionBatcher, BudgetTruncationConsumesExactly) {
  const WeightMap weights({1.0, 1.0});
  CollisionBatcher batcher(weights);
  Xoshiro256 gen(8);
  std::vector<std::int64_t> dark = {500'000, 500'000};
  std::vector<std::int64_t> light = {0, 0};
  // With n = 10⁶ the mean run length is ~√(πn)/4 ≈ 440; budget 5 almost
  // surely truncates, and the contract is exact consumption == budget.
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(batcher.advance(dark, light, 5, gen), 5);
}

// ---- CountSimulation::run_batched -----------------------------------------

TEST(RunBatched, RejectsPastTarget) {
  auto sim = CountSimulation::equal_start(WeightMap({1.0, 2.0}), 1'000);
  Xoshiro256 gen(10);
  sim.run_batched(100, gen);
  EXPECT_THROW(sim.run_batched(50, gen), std::invalid_argument);
}

TEST(RunBatched, AbsorbedConfigurationBurnsWindow) {
  // All-dark with one agent per colour: no adopt (no light), no fade
  // (no colour with two darks) — the window must pass without changes.
  const std::int64_t k = 100;
  const WeightMap weights(
      std::vector<double>(static_cast<std::size_t>(k), 1.0));
  CountSimulation sim(
      weights, std::vector<std::int64_t>(static_cast<std::size_t>(k), 1),
      std::vector<std::int64_t>(static_cast<std::size_t>(k), 0));
  Xoshiro256 gen(11);
  const Xoshiro256 before = gen;
  sim.run_batched(1'000'000, gen);
  EXPECT_EQ(sim.time(), 1'000'000);
  EXPECT_EQ(sim.min_dark(), 1);
  EXPECT_EQ(sim.total_light(), 0);
  EXPECT_EQ(gen, before);  // absorption is detected without any draw

  // All-light is equally absorbed (no dark responder to adopt from).
  CountSimulation light_sim(
      weights, std::vector<std::int64_t>(static_cast<std::size_t>(k), 0),
      std::vector<std::int64_t>(static_cast<std::size_t>(k), 1));
  light_sim.run_batched(1'000'000, gen);
  EXPECT_EQ(light_sim.time(), 1'000'000);
  EXPECT_EQ(light_sim.total_dark(), 0);
}

TEST(RunBatched, ConservesPopulationAndDerivedState) {
  const WeightMap weights({1.0, 2.0, 3.0, 4.0});
  auto sim = CountSimulation::adversarial_start(weights, 100'000);
  Xoshiro256 gen(12);
  sim.run_batched(300'000, gen);
  EXPECT_EQ(sim.time(), 300'000);
  std::int64_t total = 0, dark_total = 0, min_dark = sim.n();
  for (divpp::core::ColorId i = 0; i < 4; ++i) {
    EXPECT_GE(sim.dark(i), 0);
    EXPECT_GE(sim.light(i), 0);
    total += sim.support(i);
    dark_total += sim.dark(i);
    min_dark = std::min(min_dark, sim.dark(i));
  }
  EXPECT_EQ(total, 100'000);
  // rebuild_derived() must have resynced the counters and trees.
  EXPECT_EQ(sim.total_dark(), dark_total);
  EXPECT_EQ(sim.min_dark(), min_dark);
  // The engine can keep running on the resynced state with any engine.
  sim.advance_to(301'000, gen);
  sim.run_to(301'100, gen);
  EXPECT_EQ(sim.time(), 301'100);
}

TEST(AdvanceWith, DispatchesToAllFourEngines) {
  const WeightMap weights({1.0, 2.0});
  Xoshiro256 gen(13);
  for (const Engine e :
       {Engine::kStep, Engine::kJump, Engine::kBatch, Engine::kAuto}) {
    auto sim = CountSimulation::equal_start(weights, 2'000);
    sim.advance_with(e, 4'000, gen);
    EXPECT_EQ(sim.time(), 4'000) << divpp::core::engine_name(e);
  }
}

// ---- the distributional contract: batch law == step law -------------------

/// The per-window law contract at n = 2000: two independent replica
/// ensembles (fixed seeds), one stepped with run_to and one advanced by
/// `advance(sim, target, gen)`, compared by two-sample chi-square on
/// pooled-quantile bins of two observables: the light total and the
/// heaviest colour's dark count after a window of 2n interactions from
/// the adversarial start.
template <typename Advance>
void expect_window_law_matches_step(const Advance& advance) {
  constexpr std::int64_t kNAgents = 2'000;
  constexpr std::int64_t kWindow = 2 * kNAgents;
  // Scalable: two-sample construction — both ensembles shrink together
  // and the quantile bins re-derive from the pooled sample, so the test
  // stays calibrated (~25 pooled counts per bin at /10).
  const int kReplicas = static_cast<int>(scaled(3'000));
  const WeightMap weights({1.0, 2.0, 4.0});
  std::vector<std::int64_t> light_step, light_batch;
  std::vector<std::int64_t> dark0_step, dark0_batch;
  for (int r = 0; r < kReplicas; ++r) {
    auto step_sim = CountSimulation::adversarial_start(weights, kNAgents);
    Xoshiro256 step_gen(static_cast<std::uint64_t>(1'000 + r));
    step_sim.run_to(kWindow, step_gen);
    light_step.push_back(step_sim.total_light());
    dark0_step.push_back(step_sim.dark(0));

    auto batch_sim = CountSimulation::adversarial_start(weights, kNAgents);
    Xoshiro256 batch_gen(static_cast<std::uint64_t>(900'000 + r));
    advance(batch_sim, kWindow, batch_gen);
    light_batch.push_back(batch_sim.total_light());
    dark0_batch.push_back(batch_sim.dark(0));
  }
  const auto compare = [&](const std::vector<std::int64_t>& a,
                           const std::vector<std::int64_t>& b,
                           const char* label) {
    std::vector<std::int64_t> pooled = a;
    pooled.insert(pooled.end(), b.begin(), b.end());
    const std::vector<std::int64_t> edges = quantile_edges(pooled, 12);
    ASSERT_GE(edges.size(), 3u) << label;
    const auto hits_a = bin_by_edges(a, edges);
    const auto hits_b = bin_by_edges(b, edges);
    EXPECT_LT(chi_square_two_sample(hits_a, hits_b),
              chi2_crit(edges.size()))
        << label;
  };
  compare(light_step, light_batch, "total_light");
  compare(dark0_step, dark0_batch, "dark(0)");
}

TEST(BatchVsStepLaw, PerWindowCountDistributionsMatchAtN2000) {
  // Through run_batched: at n = 2000, k = 3 its cost rule walks agent
  // labels, so this pins the label walk.
  expect_window_law_matches_step(
      [](CountSimulation& sim, std::int64_t target, Xoshiro256& gen) {
        sim.run_batched(target, gen);
      });
}

TEST(BatchVsStepLaw, CollisionChainMatchesStepAtN2000) {
  // The same contract for the collision chain itself, driven through
  // CollisionBatcher::advance with no engine choice in between.
  expect_window_law_matches_step(
      [](CountSimulation& sim, std::int64_t target, Xoshiro256& gen) {
        std::vector<std::int64_t> dark(sim.dark_counts().begin(),
                                       sim.dark_counts().end());
        std::vector<std::int64_t> light(sim.light_counts().begin(),
                                        sim.light_counts().end());
        CollisionBatcher batcher(sim.weights());
        for (std::int64_t t = sim.time(); t < target;)
          t += batcher.advance(dark, light, target - t, gen);
        sim = CountSimulation(sim.weights(), dark, light);
      });
}

TEST(BatchEngineRuntime, BitIdenticalStatsAtAnyThreadCount) {
  // The --engine=batch path under BatchRunner keeps the PR 1 contract:
  // replica streams depend only on (seed, replica), so statistics are
  // bit-identical at any thread count.
  const WeightMap weights({1.0, 2.0, 4.0});
  const auto replica = [&](std::int64_t, Xoshiro256& gen) {
    auto sim = CountSimulation::adversarial_start(weights, 10'000);
    sim.advance_with(Engine::kBatch, 30'000, gen);
    return static_cast<double>(sim.total_light());
  };
  divpp::runtime::BatchRunner serial(1);
  divpp::runtime::BatchRunner parallel_runner(4);
  const auto a = serial.run_stats(8, 1234, replica);
  const auto b = parallel_runner.run_stats(8, 1234, replica);
  EXPECT_EQ(a.stats.mean(), b.stats.mean());
  EXPECT_EQ(a.stats.variance(), b.stats.variance());
  EXPECT_EQ(a.stats.count(), b.stats.count());
}

}  // namespace
