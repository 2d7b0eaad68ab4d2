// Property-based sweeps (TEST_P) over the protocol's parameter space.
// Each suite checks a distinct structural property of the dynamics:
// colour exchangeability, equilibrium monotonicity in the weights, the
// Eq. (7) dark/light split, robustness to non-canonical (mixed-shade)
// starts, and agreement between the fluid limit and the chain across a
// parameter grid.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/count_simulation.h"
#include "core/equilibrium.h"
#include "core/mean_field.h"
#include "core/weights.h"
#include "rng/xoshiro.h"
#include "scale.h"
#include "stats/online_stats.h"
#include "stats/potentials.h"

namespace {

using divpp::core::CountSimulation;
using divpp::core::Engine;
using divpp::test::scaled;
using divpp::core::WeightMap;
using divpp::rng::Xoshiro256;

// ---- exchangeability: equal weights ⇒ symmetric marginals -----------------

class ExchangeabilitySweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(ExchangeabilitySweep, EqualWeightColoursAreStatisticallyIdentical) {
  const std::int64_t k = GetParam();
  const WeightMap weights(std::vector<double>(static_cast<std::size_t>(k),
                                              2.0));
  constexpr std::int64_t kN = 240;
  // Scalable (DIVPP_TEST_SCALE): the tolerance below is 4 sigma of the
  // replica mean and widens itself via sqrt(kReplicas).  The other
  // sweeps in this suite time-average a single trajectory against fixed
  // pins, so they keep their full budgets.
  const int kReplicas = static_cast<int>(scaled(150, 15));
  // Mean support of each colour at a fixed time from a symmetric start
  // must be n/k for every colour (within Monte Carlo error).
  std::vector<divpp::stats::OnlineStats> acc(static_cast<std::size_t>(k));
  for (int r = 0; r < kReplicas; ++r) {
    auto sim = CountSimulation::equal_start(weights, kN);
    Xoshiro256 gen(2000 + static_cast<std::uint64_t>(r) * 7 +
                   static_cast<std::uint64_t>(k));
    sim.advance_with(Engine::kJump, 20'000, gen);
    for (divpp::core::ColorId i = 0; i < k; ++i)
      acc[static_cast<std::size_t>(i)].add(
          static_cast<double>(sim.support(i)));
  }
  const double expected = static_cast<double>(kN) / static_cast<double>(k);
  for (divpp::core::ColorId i = 0; i < k; ++i) {
    const auto& a = acc[static_cast<std::size_t>(i)];
    EXPECT_NEAR(a.mean(), expected,
                4.0 * a.stddev() / std::sqrt(static_cast<double>(kReplicas)) +
                    1.0)
        << "colour " << i << " of " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(KGrid, ExchangeabilitySweep,
                         ::testing::Values<std::int64_t>(2, 3, 4, 6, 8));

// ---- monotonicity: heavier weight ⇒ larger equilibrium support -----------

class MonotonicitySweep : public ::testing::TestWithParam<double> {};

TEST_P(MonotonicitySweep, SupportRatioTracksWeightRatio) {
  const double heavy = GetParam();
  const WeightMap weights({1.0, heavy});
  constexpr std::int64_t kN = 2000;
  auto sim = CountSimulation::equal_start(weights, kN);
  Xoshiro256 gen(static_cast<std::uint64_t>(heavy * 1000.0) + 17);
  const auto settle = static_cast<std::int64_t>(
      4.0 * divpp::core::convergence_time_scale(kN, weights.total()));
  sim.advance_with(Engine::kJump, settle, gen);
  // Time-average the ratio to suppress fluctuations.
  divpp::stats::OnlineStats ratio;
  for (int probe = 0; probe < 60; ++probe) {
    sim.advance_with(Engine::kJump, sim.time() + 2 * kN, gen);
    ratio.add(static_cast<double>(sim.support(1)) /
              static_cast<double>(std::max<std::int64_t>(sim.support(0), 1)));
  }
  EXPECT_NEAR(ratio.mean(), heavy, 0.25 * heavy)
      << "support ratio should track the weight ratio " << heavy;
}

INSTANTIATE_TEST_SUITE_P(WeightGrid, MonotonicitySweep,
                         ::testing::Values(1.0, 1.5, 2.0, 3.0, 5.0, 8.0));

// ---- Eq. (7): dark/light split across a parameter grid --------------------

struct SplitParams {
  std::vector<double> weights;
  std::int64_t n;
};

class DarkLightSplitSweep : public ::testing::TestWithParam<SplitParams> {};

TEST_P(DarkLightSplitSweep, TotalsMatchEquationSeven) {
  const SplitParams param = GetParam();
  const WeightMap weights(param.weights);
  auto sim = CountSimulation::proportional_start(weights, param.n);
  Xoshiro256 gen(71);
  const auto settle = static_cast<std::int64_t>(
      4.0 * divpp::core::convergence_time_scale(param.n, weights.total()));
  sim.advance_with(Engine::kJump, settle, gen);
  divpp::stats::OnlineStats dark_share;
  for (int probe = 0; probe < 50; ++probe) {
    sim.advance_with(Engine::kJump, sim.time() + 2 * param.n, gen);
    dark_share.add(static_cast<double>(sim.total_dark()) /
                   static_cast<double>(param.n));
  }
  const double expected = weights.total() / (1.0 + weights.total());
  EXPECT_NEAR(dark_share.mean(), expected, 0.04)
      << "A*/n should be W/(1+W) for weights " << weights.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DarkLightSplitSweep,
    ::testing::Values(SplitParams{{1.0, 1.0}, 1000},
                      SplitParams{{1.0, 3.0}, 1000},
                      SplitParams{{2.0, 2.0, 2.0}, 1500},
                      SplitParams{{1.0, 2.0, 4.0, 8.0}, 2000},
                      SplitParams{{5.0, 5.0}, 1000}),
    [](const ::testing::TestParamInfo<SplitParams>& info) {
      std::string name = "k";
      name += std::to_string(info.param.weights.size());
      name += "_n";
      name += std::to_string(info.param.n);
      name += "_i";
      name += std::to_string(info.index);
      return name;
    });

// ---- beyond the paper's start: mixed shades still converge ----------------

struct MixedStart {
  std::vector<std::int64_t> dark;
  std::vector<std::int64_t> light;
};

class MixedStartSweep : public ::testing::TestWithParam<MixedStart> {};

TEST_P(MixedStartSweep, NonCanonicalStartsStillReachFairShares) {
  // The paper assumes b_u(0) = 1 for all agents; the protocol converges
  // from *any* configuration with at least one dark agent per colour.
  const MixedStart param = GetParam();
  const WeightMap weights({1.0, 3.0});
  CountSimulation sim(weights, param.dark, param.light);
  const std::int64_t n = sim.n();
  Xoshiro256 gen(123);
  sim.advance_with(
      Engine::kJump,
      static_cast<std::int64_t>(
          6.0 * divpp::core::convergence_time_scale(n, weights.total())),
      gen);
  divpp::stats::OnlineStats share1;
  for (int probe = 0; probe < 40; ++probe) {
    sim.advance_with(Engine::kJump, sim.time() + 2 * n, gen);
    share1.add(static_cast<double>(sim.support(1)) /
               static_cast<double>(n));
  }
  EXPECT_NEAR(share1.mean(), 0.75, 0.08);
  EXPECT_GE(sim.min_dark(), 1);
}

INSTANTIATE_TEST_SUITE_P(
    StartGrid, MixedStartSweep,
    ::testing::Values(
        MixedStart{{500, 500}, {0, 0}},      // canonical all-dark
        MixedStart{{1, 1}, {998, 0}},        // nearly all light on colour 0
        MixedStart{{1, 1}, {0, 998}},        // nearly all light on colour 1
        MixedStart{{250, 250}, {250, 250}},  // half light
        MixedStart{{999, 1}, {0, 0}},        // extreme skew, all dark
        MixedStart{{1, 1}, {499, 499}}),     // minorities dark, rest light
    [](const ::testing::TestParamInfo<MixedStart>& info) {
      return "start" + std::to_string(info.index);
    });

// ---- fluid limit vs chain across the parameter grid -----------------------

struct FluidParams {
  std::vector<double> weights;
  double tau;  // rescaled time to compare at
};

class FluidSweep : public ::testing::TestWithParam<FluidParams> {};

TEST_P(FluidSweep, MeanFieldTracksLumpedChainAtLargeN) {
  const FluidParams param = GetParam();
  const WeightMap weights(param.weights);
  constexpr std::int64_t kN = 20'000;
  auto sim = CountSimulation::equal_start(weights, kN);
  Xoshiro256 gen(99);
  const auto steps = static_cast<std::int64_t>(
      param.tau * static_cast<double>(kN));
  sim.advance_with(Engine::kStep, steps, gen);

  divpp::core::MeanFieldOde ode(weights);
  const std::int64_t k = weights.num_colors();
  std::vector<std::int64_t> dark0(static_cast<std::size_t>(k), kN / k);
  dark0[0] += kN - k * (kN / k);
  auto fluid = divpp::core::MeanFieldOde::from_counts(
      dark0, std::vector<std::int64_t>(static_cast<std::size_t>(k), 0));
  ode.integrate(fluid, param.tau, 1e-3);

  for (divpp::core::ColorId i = 0; i < k; ++i) {
    const double stochastic =
        static_cast<double>(sim.dark(i)) / static_cast<double>(kN);
    EXPECT_NEAR(stochastic, fluid.dark[static_cast<std::size_t>(i)], 0.025)
        << "colour " << i << " at tau = " << param.tau;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FluidSweep,
    ::testing::Values(FluidParams{{1.0, 1.0}, 1.0},
                      FluidParams{{1.0, 1.0}, 5.0},
                      FluidParams{{1.0, 4.0}, 2.0},
                      FluidParams{{2.0, 3.0, 4.0}, 3.0},
                      FluidParams{{1.0, 1.0, 1.0, 1.0}, 4.0}),
    [](const ::testing::TestParamInfo<FluidParams>& info) {
      return "case" + std::to_string(info.index);
    });

// ---- seed-stability of the headline measurement ---------------------------

class SeedStability : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedStability, DiversityErrorScaleIsSeedIndependent) {
  // The E3 headline (scaled diversity error O(1)) must not be an
  // artefact of one lucky seed.
  const WeightMap weights({1.0, 2.0, 5.0});
  constexpr std::int64_t kN = 4096;
  auto sim = CountSimulation::adversarial_start(weights, kN);
  Xoshiro256 gen(GetParam());
  sim.advance_with(
      Engine::kJump,
      static_cast<std::int64_t>(
          3.0 * divpp::core::convergence_time_scale(kN, weights.total())),
      gen);
  divpp::stats::OnlineStats err;
  for (int probe = 0; probe < 30; ++probe) {
    sim.advance_with(Engine::kJump, sim.time() + 2 * kN, gen);
    const auto supports = sim.supports();
    err.add(divpp::stats::diversity_error(supports, weights.weights()));
  }
  EXPECT_LT(err.mean() / divpp::core::diversity_error_scale(kN), 1.5)
      << "scaled diversity error blew up for seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedStability,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u,
                                           31337u));

}  // namespace
