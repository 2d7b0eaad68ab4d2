// Tests for the lumped count-chain simulator: exact transition semantics,
// conservation laws, the sustainability invariant, jump-chain/plain-chain
// distributional agreement, the engines' and the collision chain's time-t
// laws against the exact pmf of the dense lumped chain at n = 6,
// structural-change mutators, and the tagged-agent extension.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "batch/collision_batch.h"
#include "check/counting_generator.h"
#include "core/count_simulation.h"
#include "core/equilibrium.h"
#include "core/weights.h"
#include "markov/markov_chain.h"
#include "rng/xoshiro.h"
#include "stat_util.h"
#include "stats/online_stats.h"

namespace {

using divpp::check::CountingBitGenerator;
using divpp::core::ColorId;
using divpp::core::CountSimulation;
using divpp::core::Engine;
using divpp::core::TaggedCountSimulation;
using divpp::core::Transition;
using divpp::core::WeightMap;
using divpp::rng::Xoshiro256;

TEST(CountSimulation, ConstructionValidation) {
  const WeightMap weights({1.0, 2.0});
  EXPECT_NO_THROW(CountSimulation(weights, {1, 1}, {0, 0}));
  EXPECT_THROW(CountSimulation(weights, {1}, {0, 0}), std::invalid_argument);
  EXPECT_THROW(CountSimulation(weights, {-1, 2}, {0, 0}),
               std::invalid_argument);
  EXPECT_THROW(CountSimulation(weights, {1, 0}, {0, 0}),
               std::invalid_argument);  // n < 2
}

TEST(CountSimulation, FactoriesProduceAllDarkPopulations) {
  const WeightMap weights({1.0, 2.0, 5.0});
  for (const auto& sim :
       {CountSimulation::proportional_start(weights, 100),
        CountSimulation::adversarial_start(weights, 100),
        CountSimulation::equal_start(weights, 100)}) {
    EXPECT_EQ(sim.n(), 100);
    EXPECT_EQ(sim.total_dark(), 100);
    EXPECT_EQ(sim.total_light(), 0);
    EXPECT_GE(sim.min_dark(), 1);  // every colour starts represented
  }
}

TEST(CountSimulation, ProportionalStartMatchesFairShares) {
  const WeightMap weights({1.0, 3.0});
  const auto sim = CountSimulation::proportional_start(weights, 100);
  EXPECT_EQ(sim.dark(0), 25);
  EXPECT_EQ(sim.dark(1), 75);
}

TEST(CountSimulation, ProportionalStartTinyPopulation) {
  const WeightMap weights({1.0, 1000.0});
  const auto sim = CountSimulation::proportional_start(weights, 5);
  EXPECT_EQ(sim.n(), 5);
  EXPECT_GE(sim.dark(0), 1);
  EXPECT_GE(sim.dark(1), 1);
}

TEST(CountSimulation, AdversarialStartShape) {
  const WeightMap weights({1.0, 1.0, 1.0, 1.0});
  const auto sim = CountSimulation::adversarial_start(weights, 64);
  EXPECT_EQ(sim.dark(0), 61);
  EXPECT_EQ(sim.dark(1), 1);
  EXPECT_EQ(sim.dark(3), 1);
  EXPECT_THROW((void)CountSimulation::adversarial_start(weights, 4),
               std::invalid_argument);
}

TEST(CountSimulation, StepConservesPopulation) {
  const WeightMap weights({1.0, 2.0});
  auto sim = CountSimulation::equal_start(weights, 40);
  Xoshiro256 gen(1);
  for (int i = 0; i < 5000; ++i) {
    (void)sim.step(gen);
    std::int64_t total = 0;
    for (divpp::core::ColorId c = 0; c < sim.num_colors(); ++c)
      total += sim.support(c);
    ASSERT_EQ(total, 40);
    ASSERT_EQ(sim.total_dark() + sim.total_light(), 40);
  }
  EXPECT_EQ(sim.time(), 5000);
}

TEST(CountSimulation, SustainabilityInvariantHolds) {
  // Definition 1.1(3): dark support never reaches zero under the protocol.
  for (const std::uint64_t seed : {7u, 8u, 9u, 10u}) {
    const WeightMap weights({1.0, 2.0, 4.0});
    auto sim = CountSimulation::adversarial_start(weights, 30);
    Xoshiro256 gen(seed);
    for (int i = 0; i < 20'000; ++i) {
      (void)sim.step(gen);
      ASSERT_GE(sim.min_dark(), 1) << "seed " << seed << " step " << i;
    }
  }
}

TEST(CountSimulation, StepOutcomesMatchStateDeltas) {
  const WeightMap weights({1.0, 1.0});
  auto sim = CountSimulation::equal_start(weights, 20);
  Xoshiro256 gen(2);
  for (int i = 0; i < 4000; ++i) {
    const std::vector<std::int64_t> dark_before(
        sim.dark_counts().begin(), sim.dark_counts().end());
    const std::vector<std::int64_t> light_before(
        sim.light_counts().begin(), sim.light_counts().end());
    const auto outcome = sim.step(gen);
    switch (outcome.transition) {
      case Transition::kNoOp:
        EXPECT_EQ(std::vector<std::int64_t>(sim.dark_counts().begin(),
                                            sim.dark_counts().end()),
                  dark_before);
        break;
      case Transition::kAdopt: {
        const auto from = static_cast<std::size_t>(outcome.from);
        const auto to = static_cast<std::size_t>(outcome.to);
        EXPECT_EQ(sim.light_counts()[from], light_before[from] - 1);
        EXPECT_EQ(sim.dark_counts()[to], dark_before[to] + 1);
        break;
      }
      case Transition::kFade: {
        const auto c = static_cast<std::size_t>(outcome.from);
        EXPECT_EQ(outcome.from, outcome.to);
        EXPECT_EQ(sim.dark_counts()[c], dark_before[c] - 1);
        EXPECT_EQ(sim.light_counts()[c], light_before[c] + 1);
        break;
      }
    }
  }
}

TEST(CountSimulation, ActiveProbabilityMatchesEmpiricalRate) {
  const WeightMap weights({2.0, 2.0});
  auto sim = CountSimulation::equal_start(weights, 64);
  Xoshiro256 gen(3);
  // Warm up to a generic configuration.
  sim.run_to(2000, gen);
  const double p = sim.active_probability();
  // Estimate the one-step active probability by repeated trial from the
  // same state (copy the simulation each time).
  int active = 0;
  constexpr int kTrials = 40'000;
  for (int i = 0; i < kTrials; ++i) {
    CountSimulation copy = sim;
    if (copy.step(gen).transition != Transition::kNoOp) ++active;
  }
  EXPECT_NEAR(static_cast<double>(active) / kTrials, p, 0.01);
}

TEST(CountSimulation, RunToAndAdvanceToRespectTargets) {
  const WeightMap weights({1.0, 1.0});
  auto a = CountSimulation::equal_start(weights, 32);
  auto b = CountSimulation::equal_start(weights, 32);
  Xoshiro256 gen(4);
  a.run_to(123, gen);
  EXPECT_EQ(a.time(), 123);
  b.advance_to(123, gen);
  EXPECT_EQ(b.time(), 123);
  EXPECT_THROW(a.run_to(50, gen), std::invalid_argument);
  EXPECT_THROW(b.advance_to(50, gen), std::invalid_argument);
}

TEST(CountSimulation, JumpChainMatchesPlainChainDistribution) {
  // Strong distributional check: mean and variance of the support of
  // colour 0 after T steps agree between the two stepping modes across
  // many replicas.
  const WeightMap weights({1.0, 3.0});
  constexpr std::int64_t kN = 48;
  constexpr std::int64_t kT = 3000;
  constexpr int kReplicas = 300;
  divpp::stats::OnlineStats plain;
  divpp::stats::OnlineStats jump;
  for (int r = 0; r < kReplicas; ++r) {
    Xoshiro256 gen_plain(1000 + static_cast<std::uint64_t>(r));
    Xoshiro256 gen_jump(9000 + static_cast<std::uint64_t>(r));
    auto a = CountSimulation::equal_start(weights, kN);
    a.run_to(kT, gen_plain);
    plain.add(static_cast<double>(a.support(0)));
    auto b = CountSimulation::equal_start(weights, kN);
    b.advance_to(kT, gen_jump);
    jump.add(static_cast<double>(b.support(0)));
  }
  // Means within 3 combined standard errors.
  const double se = std::sqrt(plain.variance() / kReplicas +
                              jump.variance() / kReplicas);
  EXPECT_NEAR(plain.mean(), jump.mean(), 3.0 * se + 1e-9);
  // Spreads of similar magnitude.
  EXPECT_LT(jump.stddev(), plain.stddev() * 1.6 + 1.0);
  EXPECT_LT(plain.stddev(), jump.stddev() * 1.6 + 1.0);
}

// ---- exact-law oracle ----------------------------------------------------

/// The lumped chain's exact law on a tiny population: every (dark, light)
/// count vector with Σ = n is one state of a markov::DenseChain whose
/// one-step matrix is the protocol's (an adopt per ordered light–dark
/// pair, a fade per ordered same-colour dark pair at 1/w).  Evolving a
/// point mass t steps gives the pmf an engine's time-t state must follow.
class ExactLumpedLaw {
 public:
  ExactLumpedLaw(const WeightMap& weights, std::int64_t n) {
    const auto cells = static_cast<std::size_t>(2 * weights.num_colors());
    std::vector<std::int64_t> state(cells, 0);
    enumerate(state, 0, n);
    const auto size = states_.size();
    std::vector<double> matrix(size * size, 0.0);
    const double pairs = static_cast<double>(n) * static_cast<double>(n - 1);
    const std::size_t k = cells / 2;
    for (std::size_t s = 0; s < size; ++s) {
      const std::vector<std::int64_t>& from = states_[s];
      double moved = 0.0;
      const auto add = [&](std::vector<std::int64_t> to, double p) {
        matrix[s * size + index_.at(to)] += p;
        moved += p;
      };
      for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = 0; j < k; ++j) {
          // A light initiator of colour i meets a dark responder of j.
          const double adopt = static_cast<double>(from[k + i]) *
                               static_cast<double>(from[j]) / pairs;
          if (adopt == 0.0) continue;
          std::vector<std::int64_t> to = from;
          --to[k + i];
          ++to[j];
          add(std::move(to), adopt);
        }
        const double fade = static_cast<double>(from[i]) *
                            static_cast<double>(from[i] - 1) / pairs /
                            weights.weight(static_cast<ColorId>(i));
        if (fade == 0.0) continue;
        std::vector<std::int64_t> to = from;
        --to[i];
        ++to[k + i];
        add(std::move(to), fade);
      }
      matrix[s * size + s] += 1.0 - moved;
    }
    chain_.emplace(static_cast<std::int64_t>(size), std::move(matrix));
  }

  [[nodiscard]] std::size_t size() const { return states_.size(); }

  [[nodiscard]] std::size_t index_of(const CountSimulation& sim) const {
    std::vector<std::int64_t> state(sim.dark_counts().begin(),
                                    sim.dark_counts().end());
    state.insert(state.end(), sim.light_counts().begin(),
                 sim.light_counts().end());
    return index_.at(state);
  }

  /// The pmf over states after `steps` steps from `start`.
  [[nodiscard]] std::vector<double> pmf(const CountSimulation& start,
                                        std::int64_t steps) const {
    std::vector<double> dist(size(), 0.0);
    dist[index_of(start)] = 1.0;
    for (std::int64_t t = 0; t < steps; ++t) dist = chain_->evolve(dist);
    return dist;
  }

 private:
  void enumerate(std::vector<std::int64_t>& state, std::size_t cell,
                 std::int64_t left) {
    if (cell + 1 == state.size()) {
      state[cell] = left;
      index_.emplace(state, states_.size());
      states_.push_back(state);
      return;
    }
    for (std::int64_t c = 0; c <= left; ++c) {
      state[cell] = c;
      enumerate(state, cell + 1, left - c);
    }
  }

  std::vector<std::vector<std::int64_t>> states_;
  std::map<std::vector<std::int64_t>, std::size_t> index_;
  std::optional<divpp::markov::DenseChain> chain_;
};

/// Pearson chi-square of `hits` against `pmf`, cells with an expected
/// count below 5 pooled into one; no hit may land on a null cell.
void expect_matches_pmf(const std::vector<std::int64_t>& hits,
                        const std::vector<double>& pmf, std::int64_t draws,
                        const std::string& label) {
  double chi2 = 0.0;
  std::size_t bins = 0;
  double pooled_expected = 0.0;
  std::int64_t pooled_hits = 0;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    const double expected = pmf[i] * static_cast<double>(draws);
    if (pmf[i] < 1e-15) {
      EXPECT_EQ(hits[i], 0) << label << ": mass on an unreachable state";
      continue;
    }
    if (expected < 5.0) {
      pooled_expected += expected;
      pooled_hits += hits[i];
      continue;
    }
    const double diff = static_cast<double>(hits[i]) - expected;
    chi2 += diff * diff / expected;
    ++bins;
  }
  if (pooled_expected > 0.0) {
    const double diff = static_cast<double>(pooled_hits) - pooled_expected;
    chi2 += diff * diff / pooled_expected;
    ++bins;
  }
  const std::size_t df = bins > 1 ? bins - 1 : 1;
  EXPECT_LT(chi2, divpp::test::chi2_crit(df))
      << label << ": chi2 " << chi2 << " on " << df << " df";
}

TEST(ExactLaw, EnginesMatchTheDenseChainOnKTwoNSix) {
  // k = 2, n = 6: C(9, 3) = 84 lumped states.  Each engine runs in two
  // windows, so the jump chain also re-derives its candidate rate at a
  // window boundary.  At this size kBatch walks agent labels.
  const WeightMap weights({1.0, 3.0});
  const ExactLumpedLaw law(weights, 6);
  ASSERT_EQ(law.size(), 84u);
  const CountSimulation start(weights, {3, 1}, {1, 1});
  constexpr std::int64_t kReplicas = 20'000;
  for (const std::int64_t horizon : {4, 25}) {
    const std::vector<double> pmf = law.pmf(start, horizon);
    for (const Engine engine :
         {Engine::kStep, Engine::kJump, Engine::kBatch, Engine::kAuto}) {
      std::vector<std::int64_t> hits(law.size(), 0);
      Xoshiro256 gen(0x1a3 + static_cast<std::uint64_t>(horizon));
      for (std::int64_t r = 0; r < kReplicas; ++r) {
        CountSimulation sim = start;
        sim.advance_with(engine, horizon / 2, gen);
        sim.advance_with(engine, horizon, gen);
        ++hits[law.index_of(sim)];
      }
      expect_matches_pmf(hits, pmf, kReplicas,
                         std::string(engine_name(engine)) + " t=" +
                             std::to_string(horizon));
    }
  }
}

TEST(ExactLaw, CollisionChainMatchesTheDenseChainOnKTwoNSix) {
  // The collision chain itself at n = 6, where run_batched never runs
  // it: CollisionBatcher::advance looped to the horizon, in the same two
  // windows.  Each batch covers at most three interactions here, so the
  // collision step and the budget truncation carry most of the law.
  const WeightMap weights({1.0, 3.0});
  const ExactLumpedLaw law(weights, 6);
  const CountSimulation start(weights, {3, 1}, {1, 1});
  constexpr std::int64_t kReplicas = 20'000;
  for (const std::int64_t horizon : {4, 25}) {
    const std::vector<double> pmf = law.pmf(start, horizon);
    std::vector<std::int64_t> hits(law.size(), 0);
    divpp::batch::CollisionBatcher batcher(weights);
    Xoshiro256 gen(0x1c4 + static_cast<std::uint64_t>(horizon));
    for (std::int64_t r = 0; r < kReplicas; ++r) {
      std::vector<std::int64_t> dark(start.dark_counts().begin(),
                                     start.dark_counts().end());
      std::vector<std::int64_t> light(start.light_counts().begin(),
                                      start.light_counts().end());
      std::int64_t t = 0;
      for (const std::int64_t edge : {horizon / 2, horizon})
        while (t < edge) t += batcher.advance(dark, light, edge - t, gen);
      ++hits[law.index_of(CountSimulation(weights, dark, light))];
    }
    expect_matches_pmf(hits, pmf, kReplicas,
                       "chain t=" + std::to_string(horizon));
  }
}

TEST(ExactLaw, SaturatedStartCapsTheCandidateRate) {
  // k = 1, w = 1, all dark: every ordered pair is a fade, so p = 1 and
  // the jump chain's candidate rate is capped at 1 — the first step is
  // a certain fade that draws no gap, only the one uniform that picks it.
  const WeightMap weights({1.0});
  const CountSimulation start(weights, {6}, {0});
  ASSERT_EQ(start.active_probability(), 1.0);
  for (const Engine engine : {Engine::kJump, Engine::kAuto}) {
    CountSimulation sim = start;
    CountingBitGenerator gen(0x5a7);
    sim.advance_with(engine, 1, gen.generator());
    EXPECT_EQ(gen.consumed(), 1) << engine_name(engine);
    EXPECT_EQ(sim.dark(0), 5);
    EXPECT_EQ(sim.light(0), 1);
  }
  const ExactLumpedLaw law(weights, 6);
  ASSERT_EQ(law.size(), 7u);
  constexpr std::int64_t kReplicas = 20'000;
  for (const std::int64_t horizon : {2, 9}) {
    const std::vector<double> pmf = law.pmf(start, horizon);
    for (const Engine engine : {Engine::kJump, Engine::kAuto}) {
      std::vector<std::int64_t> hits(law.size(), 0);
      Xoshiro256 gen(0x5a8 + static_cast<std::uint64_t>(horizon));
      for (std::int64_t r = 0; r < kReplicas; ++r) {
        CountSimulation sim = start;
        sim.advance_with(engine, horizon, gen);
        ++hits[law.index_of(sim)];
      }
      expect_matches_pmf(hits, pmf, kReplicas,
                         std::string(engine_name(engine)) + " t=" +
                             std::to_string(horizon));
    }
  }
}

TEST(CountSimulation, ConvergesToFairSharesFromAdversarialStart) {
  const WeightMap weights({1.0, 2.0, 5.0});
  auto sim = CountSimulation::adversarial_start(weights, 1000);
  Xoshiro256 gen(5);
  // W = 8; run well past W² n log n.
  sim.advance_to(900'000, gen);
  for (divpp::core::ColorId i = 0; i < 3; ++i) {
    const double share = static_cast<double>(sim.support(i)) / 1000.0;
    EXPECT_NEAR(share, weights.fair_share(i), 0.08) << "colour " << i;
  }
  // Dark/light split per Eq. (7): A ≈ W/(1+W)·n.
  EXPECT_NEAR(static_cast<double>(sim.total_dark()) / 1000.0, 8.0 / 9.0,
              0.06);
}

TEST(CountSimulation, AbsorbedConfigurationJumpsToTarget) {
  // One dark agent per colour and no light agents: no transition can ever
  // fire (fade needs two same-colour dark agents); the jump chain must
  // fast-forward to the horizon.
  const WeightMap weights({2.0, 2.0});
  CountSimulation sim(weights, {1, 1}, {0, 0});
  Xoshiro256 gen(6);
  EXPECT_EQ(sim.active_probability(), 0.0);
  sim.advance_to(1'000'000'000, gen);
  EXPECT_EQ(sim.time(), 1'000'000'000);
  EXPECT_EQ(sim.dark(0), 1);
  EXPECT_EQ(sim.dark(1), 1);
}

// ---- structural changes --------------------------------------------------

TEST(CountSimulation, AddAgents) {
  const WeightMap weights({1.0, 1.0});
  auto sim = CountSimulation::equal_start(weights, 10);
  sim.add_agents(0, 5, /*dark_shade=*/true);
  sim.add_agents(1, 3, /*dark_shade=*/false);
  EXPECT_EQ(sim.n(), 18);
  EXPECT_EQ(sim.dark(0), 10);
  EXPECT_EQ(sim.light(1), 3);
  EXPECT_EQ(sim.total_dark(), 15);
  EXPECT_THROW(sim.add_agents(7, 1, true), std::out_of_range);
  EXPECT_THROW(sim.add_agents(0, -1, true), std::invalid_argument);
}

TEST(CountSimulation, AddColor) {
  const WeightMap weights({1.0, 1.0});
  auto sim = CountSimulation::equal_start(weights, 10);
  sim.add_color(4.0, 2);
  EXPECT_EQ(sim.num_colors(), 3);
  EXPECT_EQ(sim.n(), 12);
  EXPECT_EQ(sim.dark(2), 2);
  EXPECT_EQ(sim.weights().weight(2), 4.0);
  EXPECT_THROW(sim.add_color(2.0, 0), std::invalid_argument);
}

TEST(CountSimulation, RecolorAll) {
  const WeightMap weights({1.0, 1.0, 1.0});
  CountSimulation sim(weights, {3, 4, 5}, {1, 2, 0});
  sim.recolor_all(0, 2);
  EXPECT_EQ(sim.dark(0), 0);
  EXPECT_EQ(sim.light(0), 0);
  EXPECT_EQ(sim.dark(2), 8);
  EXPECT_EQ(sim.light(2), 1);
  EXPECT_EQ(sim.n(), 15);
  EXPECT_THROW(sim.recolor_all(1, 1), std::invalid_argument);
  EXPECT_THROW(sim.recolor_all(5, 0), std::out_of_range);
}

TEST(CountSimulation, Transfer) {
  const WeightMap weights({1.0, 1.0});
  CountSimulation sim(weights, {6, 2}, {4, 0});
  sim.transfer(0, 1, 3, 2);
  EXPECT_EQ(sim.dark(0), 3);
  EXPECT_EQ(sim.light(0), 2);
  EXPECT_EQ(sim.dark(1), 5);
  EXPECT_EQ(sim.light(1), 2);
  EXPECT_EQ(sim.n(), 12);
  EXPECT_THROW(sim.transfer(0, 1, 100, 0), std::invalid_argument);
  EXPECT_THROW(sim.transfer(0, 0, 1, 0), std::invalid_argument);
}

TEST(CountSimulation, NewColorSpreadsAfterInjection) {
  const WeightMap weights({1.0, 1.0});
  auto sim = CountSimulation::equal_start(weights, 300);
  Xoshiro256 gen(7);
  sim.advance_to(50'000, gen);
  sim.add_color(2.0, 1);  // one dark agent of a brand-new heavy colour
  sim.advance_to(600'000, gen);
  // New fair share = 2/4 = 1/2 of (n = 301).
  const double share = static_cast<double>(sim.support(2)) /
                       static_cast<double>(sim.n());
  EXPECT_NEAR(share, 0.5, 0.12);
  EXPECT_GE(sim.min_dark(), 1);
}

// ---- tagged-agent simulation ----------------------------------------------

TEST(TaggedCountSimulation, ConstructionRequiresMatchingAgent) {
  const WeightMap weights({1.0, 1.0});
  auto sim = CountSimulation::equal_start(weights, 10);
  EXPECT_NO_THROW(TaggedCountSimulation(sim, 0, /*tagged_dark=*/true));
  // No light agents at an all-dark start:
  EXPECT_THROW(TaggedCountSimulation(sim, 0, /*tagged_dark=*/false),
               std::invalid_argument);
}

TEST(TaggedCountSimulation, CountsStayConsistentWithTaggedState) {
  const WeightMap weights({1.0, 2.0});
  auto base = CountSimulation::equal_start(weights, 24);
  TaggedCountSimulation sim(base, 0, true);
  Xoshiro256 gen(8);
  for (int i = 0; i < 20'000; ++i) {
    sim.step(gen);
    const auto tagged = sim.tagged_state();
    // The tagged agent's class must be non-empty in the counts.
    const std::int64_t pool = tagged.is_dark()
                                  ? sim.counts().dark(tagged.color)
                                  : sim.counts().light(tagged.color);
    ASSERT_GE(pool, 1) << "step " << i;
    ASSERT_EQ(sim.counts().total_dark() + sim.counts().total_light(), 24);
  }
  EXPECT_EQ(sim.time(), 20'000);
}

TEST(TaggedCountSimulation, TaggedOccupancyApproachesStationary) {
  // Section 2.4: over long horizons the tagged agent's colour occupancy
  // approaches π: colour i (dark or light) ≈ w_i/W.
  const WeightMap weights({1.0, 3.0});
  auto base = CountSimulation::proportional_start(weights, 64);
  TaggedCountSimulation sim(base, 0, true);
  Xoshiro256 gen(9);
  std::int64_t time_on_color1 = 0;
  constexpr std::int64_t kHorizon = 400'000;
  sim.run_observed(kHorizon, gen,
                   [&](std::int64_t, divpp::core::AgentState s) {
                     if (s.color == 1) ++time_on_color1;
                   });
  const double fraction =
      static_cast<double>(time_on_color1) / static_cast<double>(kHorizon);
  EXPECT_NEAR(fraction, 0.75, 0.08);
}

// ---- parse_engine ----------------------------------------------------------

TEST(ParseEngine, AcceptsEveryValidToken) {
  EXPECT_EQ(divpp::core::parse_engine("step"), Engine::kStep);
  EXPECT_EQ(divpp::core::parse_engine("jump"), Engine::kJump);
  EXPECT_EQ(divpp::core::parse_engine("batch"), Engine::kBatch);
  EXPECT_EQ(divpp::core::parse_engine("auto"), Engine::kAuto);
}

TEST(ParseEngine, RejectsUnknownTokensNamingTheValidSet) {
  for (const char* bad : {"", "turbo", "Auto", "jump ", "batch,auto"}) {
    try {
      (void)divpp::core::parse_engine(bad);
      FAIL() << "parse_engine accepted '" << bad << "'";
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("step|jump|batch|auto"), std::string::npos)
          << "error message must name the valid set, got: " << message;
      EXPECT_NE(message.find(bad), std::string::npos)
          << "error message must quote the offending token";
    }
  }
}

// ---- auto engine -----------------------------------------------------------

TEST(AutoEngine, TinyPopulationDelegatesToJumpBitIdentically) {
  // Below the batch fallback size run_auto always picks the jump chain,
  // so with equal seeds the trajectories and generator states must match
  // draw for draw.
  const WeightMap weights({1.0, 2.0, 4.0});
  auto jump_sim = CountSimulation::adversarial_start(weights, 50);
  auto auto_sim = jump_sim;
  Xoshiro256 jump_gen(31);
  Xoshiro256 auto_gen(31);
  for (int window = 0; window < 5; ++window) {
    const std::int64_t target = (window + 1) * 3'000;
    jump_sim.advance_to(target, jump_gen);
    auto_sim.run_auto(target, auto_gen);
    ASSERT_EQ(jump_gen, auto_gen) << "window " << window;
    for (divpp::core::ColorId c = 0; c < 3; ++c) {
      ASSERT_EQ(jump_sim.dark(c), auto_sim.dark(c));
      ASSERT_EQ(jump_sim.light(c), auto_sim.light(c));
    }
  }
}

TEST(AutoEngine, EwmaTracksMeasuredActiveFraction) {
  const WeightMap weights({1.0, 1.0, 1.0, 1.0});
  auto sim = CountSimulation::equal_start(weights, 4'000);
  Xoshiro256 gen(32);
  // Before any window the estimate is the exact one-step probability.
  EXPECT_DOUBLE_EQ(sim.active_fraction_estimate(),
                   sim.active_probability());
  const std::int64_t t0 = sim.active_transitions();
  sim.run_auto(100'000, gen);
  const double measured =
      static_cast<double>(sim.active_transitions() - t0) / 100'000.0;
  // One window: EWMA == measured fraction exactly (cold start).
  EXPECT_DOUBLE_EQ(sim.active_fraction_estimate(), measured);
  EXPECT_GT(measured, 0.0);
  EXPECT_LT(measured, 1.0);
  // A second window folds in with decay 1/2, so the estimate stays
  // between the old estimate and the new window's fraction.
  const std::int64_t t1 = sim.active_transitions();
  sim.run_auto(200'000, gen);
  const double second =
      static_cast<double>(sim.active_transitions() - t1) / 100'000.0;
  const double blended = 0.5 * measured + 0.5 * second;
  EXPECT_NEAR(sim.active_fraction_estimate(), blended, 1e-12);
}

TEST(AutoEngine, ActiveTransitionCountsAgreeAcrossEngines) {
  // Every engine must account its adopt/fade transitions.  The engines
  // consume different draw sequences, so the counts agree only in law:
  // over 50k interactions the active counts concentrate within a few
  // standard deviations (~sqrt(count)) of each other.
  const WeightMap weights({2.0, 3.0});
  auto step_sim = CountSimulation::equal_start(weights, 600);
  auto jump_sim = step_sim;
  auto batch_sim = step_sim;
  Xoshiro256 step_gen(33);
  Xoshiro256 jump_gen(33);
  Xoshiro256 batch_gen(33);
  step_sim.run_to(50'000, step_gen);
  jump_sim.advance_to(50'000, jump_gen);
  batch_sim.run_batched(50'000, batch_gen);
  const auto step_count = static_cast<double>(step_sim.active_transitions());
  EXPECT_GT(step_count, 0);
  EXPECT_NEAR(static_cast<double>(jump_sim.active_transitions()),
              step_count, 8.0 * std::sqrt(step_count));
  EXPECT_NEAR(static_cast<double>(batch_sim.active_transitions()),
              step_count, 8.0 * std::sqrt(step_count));
}

// ---- scheduled events ------------------------------------------------------

TEST(ScheduledEvents, FireAtExactInteractionIndexUnderEveryEngine) {
  // The event-queue regression for batched windows: a mid-window event
  // must land at exactly its interaction index, for every engine,
  // without the caller splitting the window by hand.
  for (const Engine engine :
       {Engine::kStep, Engine::kJump, Engine::kBatch, Engine::kAuto}) {
    const WeightMap weights({1.0, 2.0});
    auto sim = CountSimulation::equal_start(weights, 500);
    Xoshiro256 gen(34);
    constexpr std::int64_t kEventTime = 12'345;  // mid-window, odd offset
    std::int64_t fired_at = -1;
    std::int64_t fired_n = -1;
    sim.schedule_event(kEventTime, [&](CountSimulation& s) {
      fired_at = s.time();
      s.add_agents(0, 7, true);
      fired_n = s.n();
    });
    EXPECT_EQ(sim.pending_event_count(), 1);
    sim.advance_with(engine, 40'000, gen);
    EXPECT_EQ(fired_at, kEventTime)
        << divpp::core::engine_name(engine);
    EXPECT_EQ(fired_n, 507);
    EXPECT_EQ(sim.n(), 507);
    EXPECT_EQ(sim.time(), 40'000);
    EXPECT_EQ(sim.pending_event_count(), 0);
  }
}

TEST(ScheduledEvents, MidWindowEventInLargeBatchedWindow) {
  // Large enough that the collision-batch engine genuinely batches, and
  // the event falls strictly inside a batch-sized window.
  const WeightMap weights({1.0, 1.0, 1.0, 1.0});
  auto sim = CountSimulation::equal_start(weights, 100'000);
  Xoshiro256 gen(35);
  constexpr std::int64_t kEventTime = 70'001;
  std::int64_t fired_at = -1;
  sim.schedule_event(kEventTime, [&](CountSimulation& s) {
    fired_at = s.time();
    s.add_color(2.0, 5);
  });
  sim.run_batched(150'000, gen);
  EXPECT_EQ(fired_at, kEventTime);
  EXPECT_EQ(sim.num_colors(), 5);
  EXPECT_EQ(sim.time(), 150'000);
}

TEST(ScheduledEvents, OrderAndPendingSemantics) {
  const WeightMap weights({1.0, 2.0});
  auto sim = CountSimulation::equal_start(weights, 300);
  Xoshiro256 gen(36);
  std::vector<int> order;
  sim.schedule_event(2'000, [&](CountSimulation&) { order.push_back(2); });
  sim.schedule_event(1'000, [&](CountSimulation&) { order.push_back(1); });
  sim.schedule_event(2'000, [&](CountSimulation&) { order.push_back(3); });
  sim.schedule_event(90'000, [&](CountSimulation&) { order.push_back(9); });
  EXPECT_EQ(sim.pending_event_count(), 4);
  sim.advance_to(5'000, gen);
  // Time order, ties in registration order; the far event stays queued.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.pending_event_count(), 1);
  // Scheduling in the past throws; so does an empty action.
  EXPECT_THROW((void)sim.schedule_event(4'000, [](CountSimulation&) {}),
               std::invalid_argument);
  EXPECT_THROW((void)sim.schedule_event(10'000,
                                        divpp::core::CountSimulation::
                                            EventAction{}),
               std::invalid_argument);
  // Cancellation by handle removes exactly the targeted event, once.
  const std::int64_t handle =
      sim.schedule_event(50'000, [&](CountSimulation&) { order.push_back(5); });
  EXPECT_EQ(sim.pending_event_count(), 2);
  EXPECT_TRUE(sim.cancel_scheduled_event(handle));
  EXPECT_FALSE(sim.cancel_scheduled_event(handle));
  EXPECT_EQ(sim.pending_event_count(), 1);
  sim.advance_to(95'000, gen);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 9}));
}

TEST(ScheduledEvents, EventAtCurrentTimeFiresBeforeStepping) {
  const WeightMap weights({1.0, 2.0});
  auto sim = CountSimulation::equal_start(weights, 300);
  Xoshiro256 gen(37);
  sim.run_to(500, gen);
  std::int64_t fired_at = -1;
  sim.schedule_event(500, [&](CountSimulation& s) { fired_at = s.time(); });
  sim.run_to(600, gen);
  EXPECT_EQ(fired_at, 500);
}

}  // namespace
