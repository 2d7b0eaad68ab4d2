// Tests for the alternative schedulers: round-robin initiators and the
// synchronous random-matching model of [29].

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/agent.h"
#include "core/diversification.h"
#include "core/population.h"
#include "graph/topologies.h"
#include "rng/xoshiro.h"
#include "sched/schedulers.h"

namespace {

using divpp::core::AgentState;
using divpp::core::kDark;
using divpp::core::Population;
using divpp::core::Transition;
using divpp::core::WeightMap;
using divpp::graph::CompleteGraph;
using divpp::rng::Xoshiro256;

/// Rule that records which agents initiated (no state change).
struct RecorderRule {
  static constexpr int kResponders = 1;
  static constexpr bool kMutatesResponder = false;
  Transition apply(AgentState&, const AgentState&, Xoshiro256&) const {
    return Transition::kNoOp;
  }
};

/// Rule that counts, on both participants, how often each agent took
/// part in an interaction.
struct CountingRule {
  static constexpr int kResponders = 1;
  static constexpr bool kMutatesResponder = true;
  Transition apply(int& initiator, int& responder, Xoshiro256&) const {
    ++initiator;
    ++responder;
    return Transition::kNoOp;
  }
};

TEST(RoundRobin, InitiatorsCycleDeterministically) {
  const CompleteGraph g(5);
  std::vector<AgentState> init(5, AgentState{0, kDark});
  Population<AgentState, RecorderRule> pop(g, init, RecorderRule{});
  Xoshiro256 gen(1);
  // Capture initiators via run_round_robin's contract: time t schedules
  // agent t mod n.  Verify with observed events through a manual loop.
  for (std::int64_t t = 0; t < 12; ++t) {
    const auto event = pop.step_with_initiator(pop.time() % 5, gen);
    EXPECT_EQ(event.initiator, t % 5);
  }
  divpp::sched::run_round_robin(pop, 10, gen);
  EXPECT_EQ(pop.time(), 22);
}

TEST(RoundRobin, DiversificationStillConverges) {
  const CompleteGraph g(200);
  const WeightMap weights({1.0, 3.0});
  const std::vector<std::int64_t> supports = {100, 100};
  auto pop = divpp::core::make_population(
      g, supports, divpp::core::DiversificationRule(weights));
  Xoshiro256 gen(2);
  divpp::sched::run_round_robin(pop, 400'000, gen);
  const auto counts = divpp::core::tally(pop.states(), 2);
  const double share1 =
      static_cast<double>(counts.supports()[1]) / 200.0;
  EXPECT_NEAR(share1, 0.75, 0.1);
}

TEST(Matching, RoundExecutesFloorHalfNInteractions) {
  const CompleteGraph g(7);
  std::vector<AgentState> init(7, AgentState{0, kDark});
  Population<AgentState, RecorderRule> pop(g, init, RecorderRule{});
  Xoshiro256 gen(3);
  EXPECT_EQ(divpp::sched::run_matching_round(pop, gen), 3);
  EXPECT_EQ(pop.time(), 3);
  EXPECT_EQ(divpp::sched::run_matching(pop, 5, gen), 15);
}

TEST(Matching, PairsAreDisjointWithinARound) {
  // A perfect matching touches every agent exactly once per round (n
  // even).  CountingRule bumps both participants of each interaction, so
  // after one round every agent must read exactly 1.
  const CompleteGraph g(16);
  Population<int, CountingRule> pop(g, std::vector<int>(16, 0),
                                    CountingRule{});
  Xoshiro256 gen(5);
  EXPECT_EQ(divpp::sched::run_matching_round(pop, gen), 8);
  for (const int touched : pop.states()) EXPECT_EQ(touched, 1);
}

}  // namespace
