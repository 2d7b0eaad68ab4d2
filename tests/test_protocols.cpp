// Tests for the §1.1 baseline protocols: Voter, 2-Choices, 3-Majority,
// Anti-Voter, and the "trivial" global-sampling strawman.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/population.h"
#include "graph/topologies.h"
#include "protocols/anti_voter.h"
#include "protocols/global_sampling.h"
#include "protocols/opinion.h"
#include "protocols/three_majority.h"
#include "protocols/two_choices.h"
#include "protocols/voter.h"
#include "rng/xoshiro.h"

namespace {

using divpp::core::AgentState;
using divpp::core::kDark;
using divpp::core::Population;
using divpp::core::Transition;
using divpp::core::WeightMap;
using divpp::graph::CompleteGraph;
using divpp::rng::Xoshiro256;

// ---- rules in isolation ---------------------------------------------------

TEST(VoterRule, AdoptsResponderColour) {
  divpp::protocols::VoterRule rule;
  Xoshiro256 gen(1);
  AgentState me{0, kDark};
  EXPECT_EQ(rule.apply(me, AgentState{2, kDark}, gen), Transition::kAdopt);
  EXPECT_EQ(me.color, 2);
  EXPECT_EQ(rule.apply(me, AgentState{2, kDark}, gen), Transition::kNoOp);
}

TEST(TwoChoicesRule, AdoptsOnlyWhenSamplesAgree) {
  divpp::protocols::TwoChoicesRule rule;
  Xoshiro256 gen(2);
  AgentState me{0, kDark};
  EXPECT_EQ(rule.apply(me, AgentState{1, kDark}, AgentState{2, kDark}, gen),
            Transition::kNoOp);
  EXPECT_EQ(me.color, 0);
  EXPECT_EQ(rule.apply(me, AgentState{1, kDark}, AgentState{1, kDark}, gen),
            Transition::kAdopt);
  EXPECT_EQ(me.color, 1);
  // Agreement with own colour is a no-op.
  EXPECT_EQ(rule.apply(me, AgentState{1, kDark}, AgentState{1, kDark}, gen),
            Transition::kNoOp);
}

TEST(ThreeMajorityRule, MajorityWins) {
  divpp::protocols::ThreeMajorityRule rule;
  Xoshiro256 gen(3);
  AgentState me{0, kDark};
  // Samples agree: adopt.
  EXPECT_EQ(rule.apply(me, AgentState{5, kDark}, AgentState{5, kDark}, gen),
            Transition::kAdopt);
  EXPECT_EQ(me.color, 5);
  // Own colour in a pair: keep.
  EXPECT_EQ(rule.apply(me, AgentState{5, kDark}, AgentState{9, kDark}, gen),
            Transition::kNoOp);
  EXPECT_EQ(me.color, 5);
}

TEST(ThreeMajorityRule, ThreeWayTiePicksUniformly) {
  divpp::protocols::ThreeMajorityRule rule;
  Xoshiro256 gen(4);
  std::vector<int> hits(3, 0);
  constexpr int kTrials = 90'000;
  for (int i = 0; i < kTrials; ++i) {
    AgentState me{0, kDark};
    (void)rule.apply(me, AgentState{1, kDark}, AgentState{2, kDark}, gen);
    ASSERT_GE(me.color, 0);
    ASSERT_LE(me.color, 2);
    ++hits[static_cast<std::size_t>(me.color)];
  }
  for (const int h : hits)
    EXPECT_NEAR(static_cast<double>(h) / kTrials, 1.0 / 3.0, 0.01);
}

TEST(AntiVoterRule, AdoptsOppositeColour) {
  divpp::protocols::AntiVoterRule rule;
  Xoshiro256 gen(5);
  AgentState me{0, kDark};
  EXPECT_EQ(rule.apply(me, AgentState{0, kDark}, gen), Transition::kAdopt);
  EXPECT_EQ(me.color, 1);
  EXPECT_EQ(rule.apply(me, AgentState{0, kDark}, gen), Transition::kNoOp);
  EXPECT_EQ(rule.apply(me, AgentState{1, kDark}, gen), Transition::kAdopt);
  EXPECT_EQ(me.color, 0);
  EXPECT_THROW((void)rule.apply(me, AgentState{2, kDark}, gen),
               std::invalid_argument);
}

TEST(GlobalSamplingRule, SamplesFrozenDistribution) {
  const WeightMap weights({1.0, 3.0});
  divpp::protocols::GlobalSamplingRule rule(weights);
  EXPECT_EQ(rule.frozen_colors(), 2);
  Xoshiro256 gen(6);
  std::vector<int> hits(2, 0);
  constexpr int kTrials = 100'000;
  for (int i = 0; i < kTrials; ++i) {
    AgentState me{0, kDark};
    (void)rule.apply(me, AgentState{1, kDark}, gen);
    ++hits[static_cast<std::size_t>(me.color)];
  }
  EXPECT_NEAR(static_cast<double>(hits[1]) / kTrials, 0.75, 0.01);
}

// ---- opinion helpers ------------------------------------------------------

TEST(OpinionHelpers, SurvivingColorsAndConsensus) {
  std::vector<AgentState> states = {{0, kDark}, {2, kDark}, {0, kDark}};
  EXPECT_EQ(divpp::protocols::surviving_colors(states, 3), 2);
  EXPECT_FALSE(divpp::protocols::is_consensus(states));
  states = {{1, kDark}, {1, kDark}};
  EXPECT_TRUE(divpp::protocols::is_consensus(states));
  EXPECT_EQ(divpp::protocols::surviving_colors(states, 2), 1);
}

TEST(OpinionHelpers, PluralityColor) {
  const std::vector<AgentState> states = {
      {0, kDark}, {1, kDark}, {1, kDark}, {2, kDark}};
  EXPECT_EQ(divpp::protocols::plurality_color(states, 3), 1);
}

// ---- protocols end to end -------------------------------------------------

TEST(VoterDynamics, ReachesConsensusAndKillsDiversity) {
  const CompleteGraph g(64);
  const std::vector<std::int64_t> supports = {32, 32};
  Population<AgentState, divpp::protocols::VoterRule> pop(
      g, divpp::protocols::opinion_initial(supports),
      divpp::protocols::VoterRule{});
  Xoshiro256 gen(9);
  const std::int64_t steps =
      divpp::protocols::run_until_consensus(pop, 4'000'000, gen);
  ASSERT_GT(steps, 0) << "voter failed to reach consensus";
  EXPECT_EQ(divpp::protocols::surviving_colors(pop.states(), 2), 1);
}

TEST(TwoChoicesDynamics, BreaksTiesQuickly) {
  const CompleteGraph g(128);
  const std::vector<std::int64_t> supports = {64, 64};
  Population<AgentState, divpp::protocols::TwoChoicesRule> pop(
      g, divpp::protocols::opinion_initial(supports),
      divpp::protocols::TwoChoicesRule{});
  Xoshiro256 gen(10);
  const std::int64_t steps =
      divpp::protocols::run_until_consensus(pop, 2'000'000, gen);
  EXPECT_GT(steps, 0);
}

TEST(ThreeMajorityDynamics, ReachesConsensusFromManyColours) {
  const CompleteGraph g(128);
  const std::vector<std::int64_t> supports = {32, 32, 32, 32};
  Population<AgentState, divpp::protocols::ThreeMajorityRule> pop(
      g, divpp::protocols::opinion_initial(supports),
      divpp::protocols::ThreeMajorityRule{});
  Xoshiro256 gen(11);
  const std::int64_t steps =
      divpp::protocols::run_until_consensus(pop, 4'000'000, gen);
  EXPECT_GT(steps, 0);
}

TEST(AntiVoterDynamics, KeepsBothColoursAlive) {
  const CompleteGraph g(64);
  const std::vector<std::int64_t> supports = {32, 32};
  Population<AgentState, divpp::protocols::AntiVoterRule> pop(
      g, divpp::protocols::opinion_initial(supports),
      divpp::protocols::AntiVoterRule{});
  Xoshiro256 gen(12);
  for (int burst = 0; burst < 50; ++burst) {
    pop.run(10'000, gen);
    ASSERT_EQ(divpp::protocols::surviving_colors(pop.states(), 2), 2);
  }
}

TEST(GlobalSamplingDynamics, HitsTargetButIgnoresNewColours) {
  const CompleteGraph g(200);
  const WeightMap weights({1.0, 1.0});
  const std::vector<std::int64_t> supports = {100, 100};
  Population<AgentState, divpp::protocols::GlobalSamplingRule> pop(
      g, divpp::protocols::opinion_initial(supports),
      divpp::protocols::GlobalSamplingRule(weights));
  Xoshiro256 gen(14);
  pop.run(20'000, gen);
  // Colour 2 does not exist for the frozen rule: inject some agents of a
  // "new" colour and observe the strawman erase them.
  for (std::int64_t u = 0; u < 50; ++u)
    pop.set_state(u, AgentState{2, kDark});
  pop.run(50'000, gen);
  EXPECT_EQ(divpp::protocols::surviving_colors(pop.states(), 3), 2);
}

TEST(OpinionHelpers, RunUntilConsensusHonoursCap) {
  const CompleteGraph g(16);
  const std::vector<std::int64_t> supports = {8, 8};
  Population<AgentState, divpp::protocols::AntiVoterRule> pop(
      g, divpp::protocols::opinion_initial(supports),
      divpp::protocols::AntiVoterRule{});
  Xoshiro256 gen(15);
  // Anti-voter never reaches consensus: the cap must trigger.
  EXPECT_EQ(divpp::protocols::run_until_consensus(pop, 50'000, gen), -1);
}

}  // namespace
