// Edge-case and failure-injection tests: minimal populations, single
// colours, extreme weights, boundary times, and degenerate-but-legal
// configurations that the main suites do not exercise.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "adversary/events.h"
#include "analysis/convergence.h"
#include "analysis/fairness.h"
#include "core/count_simulation.h"
#include "core/diversification.h"
#include "core/population.h"
#include "core/weights.h"
#include "graph/topologies.h"
#include "rng/distributions.h"
#include "rng/xoshiro.h"
#include "stats/online_stats.h"
#include "stats/potentials.h"

namespace {

using divpp::core::AgentState;
using divpp::core::CountSimulation;
using divpp::core::Engine;
using divpp::core::kDark;
using divpp::core::kLight;
using divpp::core::WeightMap;
using divpp::rng::Xoshiro256;

TEST(EdgeCases, TwoAgentSingleColourCyclesForever) {
  // n = 2, k = 1, w = 1: dark+dark fades deterministically, then the
  // light agent re-darkens on sight.  The support is constant, the
  // population oscillates between (A=2) and (A=1, a=1), and the single
  // colour trivially never dies.
  const WeightMap weights({1.0});
  CountSimulation sim(weights, {2}, {0});
  Xoshiro256 gen(1);
  for (int i = 0; i < 2000; ++i) {
    (void)sim.step(gen);
    ASSERT_EQ(sim.support(0), 2);
    ASSERT_GE(sim.dark(0), 1);
  }
}

TEST(EdgeCases, SingleColourDiversityIsTrivial) {
  const WeightMap weights({3.0});
  CountSimulation sim(weights, {5}, {3});
  const auto supports = sim.supports();
  EXPECT_EQ(divpp::stats::diversity_error(supports, weights.weights()), 0.0);
  EXPECT_EQ(divpp::stats::pairwise_potential(supports, weights.weights()),
            0.0);
}

TEST(EdgeCases, ExtremeWeightRatioStillSustains) {
  // w = {1, 1000}: colour 0's fair share is ~0.1%; its dark support must
  // still never die.
  const WeightMap weights({1.0, 1000.0});
  auto sim = CountSimulation::proportional_start(weights, 500);
  Xoshiro256 gen(2);
  for (int burst = 0; burst < 100; ++burst) {
    sim.advance_with(Engine::kJump, sim.time() + 5000, gen);
    ASSERT_GE(sim.dark(0), 1);
    ASSERT_GE(sim.dark(1), 1);
  }
  // The heavy colour dominates and the light pool is tiny:
  // a*/n = 1/(1+W) ≈ 0.1%.
  EXPECT_GT(sim.support(1), sim.support(0));
  EXPECT_LT(sim.total_light(), 500 / 20);
}

TEST(EdgeCases, ManyColoursSmokeTest) {
  const std::int64_t k = 256;
  const WeightMap weights(std::vector<double>(static_cast<std::size_t>(k),
                                              1.0));
  auto sim = CountSimulation::equal_start(weights, 2048);
  Xoshiro256 gen(3);
  sim.advance_with(Engine::kJump, 200'000, gen);
  EXPECT_GE(sim.min_dark(), 1);
  std::int64_t total = 0;
  for (divpp::core::ColorId i = 0; i < k; ++i) total += sim.support(i);
  EXPECT_EQ(total, 2048);
}

TEST(EdgeCases, AdvanceToCurrentTimeIsNoOp) {
  const WeightMap weights({1.0, 1.0});
  auto sim = CountSimulation::equal_start(weights, 10);
  Xoshiro256 gen(4);
  const auto dark_before =
      std::vector<std::int64_t>(sim.dark_counts().begin(),
                                sim.dark_counts().end());
  sim.advance_with(Engine::kJump, sim.time(), gen);
  sim.advance_with(Engine::kStep, sim.time(), gen);
  EXPECT_EQ(sim.time(), 0);
  EXPECT_EQ(std::vector<std::int64_t>(sim.dark_counts().begin(),
                                      sim.dark_counts().end()),
            dark_before);
}

TEST(EdgeCases, ScheduleEventExactlyAtHorizonFires) {
  const WeightMap weights({1.0, 1.0});
  auto sim = CountSimulation::equal_start(weights, 20);
  divpp::adversary::Schedule schedule;
  schedule.at(100, divpp::adversary::AddAgents{0, 5, true});
  Xoshiro256 gen(5);
  schedule.run(sim, 100, gen);
  EXPECT_EQ(sim.time(), 100);
  EXPECT_EQ(sim.n(), 25);  // horizon-edge event applied
}

TEST(EdgeCases, AllLightPopulationIsAbsorbing) {
  // Legal-but-degenerate start: no dark agents at all.  Nothing can ever
  // happen (adoption needs a dark responder; fading needs dark agents).
  const WeightMap weights({1.0, 1.0});
  CountSimulation sim(weights, {0, 0}, {5, 5});
  Xoshiro256 gen(7);
  EXPECT_EQ(sim.active_probability(), 0.0);
  for (int i = 0; i < 100; ++i) {
    (void)sim.step(gen);
    ASSERT_EQ(sim.total_light(), 10);
  }
  sim.advance_with(Engine::kJump, 1'000'000, gen);
  EXPECT_EQ(sim.time(), 1'000'000);
}

TEST(EdgeCases, FairnessTrackerZeroLengthHorizon) {
  const std::vector<AgentState> init = {{0, kDark}};
  divpp::analysis::FairnessTracker tracker(init, 1, 5);
  tracker.finalize(5);
  EXPECT_EQ(tracker.horizon(), 0);
  EXPECT_EQ(tracker.occupancy_fraction(0, 0), 0.0);
  // The worst-error helpers share the guard (PR 5): no horizon, no error.
  const WeightMap weights({1.0});
  EXPECT_EQ(tracker.worst_absolute_error(weights), 0.0);
  EXPECT_EQ(tracker.worst_relative_error(weights), 0.0);
  EXPECT_EQ(tracker.mean_occupancy(0), 0.0);
}

TEST(EdgeCases, EventAtTrackedStartTimeAccruesNothing) {
  const std::vector<AgentState> init = {{0, kDark}};
  divpp::analysis::FairnessTracker tracker(init, 2, 0);
  divpp::core::StepEvent<AgentState> event;
  event.time = 0;
  event.initiator = 0;
  event.before = {0, kDark};
  event.after = {1, kDark};
  event.transition = divpp::core::Transition::kAdopt;
  tracker.observe(event);
  tracker.finalize(10);
  EXPECT_EQ(tracker.color_time(0, 0), 0);
  EXPECT_EQ(tracker.color_time(0, 1), 10);
}

TEST(EdgeCases, UniformBelowHugeBound) {
  Xoshiro256 gen(8);
  const std::int64_t bound = std::int64_t{1} << 62;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t x = divpp::rng::uniform_below(gen, bound);
    ASSERT_GE(x, 0);
    ASSERT_LT(x, bound);
  }
}

TEST(EdgeCases, GeometricWithTinyPIsFiniteAndHuge) {
  Xoshiro256 gen(9);
  const std::int64_t x = divpp::rng::geometric_failures(gen, 1e-18);
  EXPECT_GE(x, 0);  // no overflow, no infinite loop
}

TEST(EdgeCases, RecolorVictimThenProtocolCannotResurrect) {
  // After the adversary destroys the *last* dark agent of a colour, the
  // protocol can never bring it back (adoption copies existing dark
  // colours only) — exactly the boundary of the paper's sustainability
  // guarantee.
  const WeightMap weights({1.0, 1.0});
  auto sim = CountSimulation::equal_start(weights, 100);
  Xoshiro256 gen(10);
  sim.advance_with(Engine::kJump, 20'000, gen);
  sim.recolor_all(0, 1);
  ASSERT_EQ(sim.support(0), 0);
  sim.advance_with(Engine::kJump, 200'000, gen);
  EXPECT_EQ(sim.support(0), 0);
}

TEST(EdgeCases, PopulationOnMinimalCompleteGraph) {
  const divpp::graph::CompleteGraph g(2);
  auto pop = divpp::core::make_population(
      g, std::vector<std::int64_t>{1, 1},
      divpp::core::DiversificationRule(WeightMap({1.0, 1.0})));
  Xoshiro256 gen(11);
  pop.run(1000, gen);
  // Two agents, different colours, both dark initially: fades never fire
  // (no same-colour dark pair), adoptions recolour light agents.  The
  // population size is conserved and states stay in-domain.
  for (const AgentState& s : pop.states())
    EXPECT_TRUE(divpp::core::valid_randomized_state(
        s, WeightMap({1.0, 1.0})));
}

TEST(EdgeCases, EquilibriumRegionWithMaximalDelta) {
  // δ close to 1 accepts almost everything with a healthy light pool.
  const WeightMap weights({1.0, 1.0});
  CountSimulation sim(weights, {30, 40}, {15, 15});
  EXPECT_TRUE(divpp::analysis::in_equilibrium_region(sim, 0.99));
}

}  // namespace
