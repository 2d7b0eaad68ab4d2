// Tests for the adversary event machinery: individual events, the
// scheduled script runner, and the paper's robustness claims in miniature.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "adversary/events.h"
#include "core/count_simulation.h"
#include "core/weights.h"
#include "rng/xoshiro.h"
#include "stats/potentials.h"

namespace {

using divpp::adversary::AddAgents;
using divpp::adversary::AddColor;
using divpp::adversary::Event;
using divpp::adversary::PartialRecolor;
using divpp::adversary::RemoveColor;
using divpp::adversary::Schedule;
using divpp::core::CountSimulation;
using divpp::core::Engine;
using divpp::core::WeightMap;
using divpp::rng::Xoshiro256;

CountSimulation fresh_sim(std::int64_t n = 40) {
  return CountSimulation::equal_start(WeightMap({1.0, 1.0}), n);
}

TEST(ApplyEvent, AddAgents) {
  auto sim = fresh_sim();
  divpp::adversary::apply_event(sim, AddAgents{1, 10, true});
  EXPECT_EQ(sim.dark(1), 30);
  EXPECT_EQ(sim.n(), 50);
}

TEST(ApplyEvent, AddColor) {
  auto sim = fresh_sim();
  divpp::adversary::apply_event(sim, AddColor{3.0, 4});
  EXPECT_EQ(sim.num_colors(), 3);
  EXPECT_EQ(sim.dark(2), 4);
  EXPECT_EQ(sim.weights().weight(2), 3.0);
}

TEST(ApplyEvent, RemoveColor) {
  auto sim = fresh_sim();
  divpp::adversary::apply_event(sim, RemoveColor{0, 1});
  EXPECT_EQ(sim.support(0), 0);
  EXPECT_EQ(sim.support(1), 40);
}

TEST(ApplyEvent, PartialRecolor) {
  auto sim = fresh_sim();  // 20 dark agents per colour
  divpp::adversary::apply_event(sim, PartialRecolor{0, 1, 0.5});
  EXPECT_EQ(sim.dark(0), 10);
  EXPECT_EQ(sim.dark(1), 30);
  EXPECT_EQ(sim.n(), 40);
  EXPECT_THROW(divpp::adversary::apply_event(
                   sim, PartialRecolor{0, 1, 1.5}),
               std::invalid_argument);
  EXPECT_THROW(divpp::adversary::apply_event(
                   sim, PartialRecolor{0, 0, 0.5}),
               std::invalid_argument);
}

TEST(Describe, MentionsKeyParameters) {
  EXPECT_NE(divpp::adversary::describe(AddAgents{2, 7, false}).find("7"),
            std::string::npos);
  EXPECT_NE(divpp::adversary::describe(AddColor{3.5, 2}).find("3.5"),
            std::string::npos);
  EXPECT_NE(divpp::adversary::describe(RemoveColor{0, 1}).find("recolour"),
            std::string::npos);
  EXPECT_NE(divpp::adversary::describe(PartialRecolor{0, 1, 0.25}).find("25"),
            std::string::npos);
}

TEST(ScheduleTest, EventsFireInTimeOrder) {
  Schedule schedule;
  schedule.at(3000, AddColor{2.0, 1}).at(1000, AddAgents{0, 5, true});
  ASSERT_EQ(schedule.events().size(), 2u);
  EXPECT_EQ(schedule.events()[0].time, 1000);
  EXPECT_EQ(schedule.events()[1].time, 3000);
  EXPECT_THROW(schedule.at(-1, AddAgents{}), std::invalid_argument);
}

TEST(ScheduleTest, RunAppliesEventsAndReachesHorizon) {
  auto sim = fresh_sim(100);
  Schedule schedule;
  schedule.at(500, AddAgents{0, 20, true});
  schedule.at(1500, AddColor{1.0, 2});
  Xoshiro256 gen(1);
  schedule.run(sim, 5000, gen);
  EXPECT_EQ(sim.time(), 5000);
  EXPECT_EQ(sim.num_colors(), 3);
  EXPECT_EQ(sim.n(), 122);
}

TEST(ScheduleTest, EventsBeyondHorizonAreSkipped) {
  auto sim = fresh_sim(100);
  Schedule schedule;
  schedule.at(10'000, AddColor{1.0, 1});
  Xoshiro256 gen(2);
  schedule.run(sim, 5000, gen);
  EXPECT_EQ(sim.num_colors(), 2);
  EXPECT_EQ(sim.time(), 5000);
}

TEST(ScheduleTest, PlainSteppingModeWorksToo) {
  auto sim = fresh_sim(60);
  Schedule schedule;
  schedule.at(100, AddAgents{1, 6, false});
  Xoshiro256 gen(3);
  schedule.run(sim, 2000, gen, /*use_jump_chain=*/false);
  EXPECT_EQ(sim.time(), 2000);
  EXPECT_EQ(sim.n(), 66);
}

TEST(ScheduleTest, StaleEventThrows) {
  auto sim = fresh_sim(60);
  Xoshiro256 gen(4);
  sim.advance_with(Engine::kStep, 500, gen);
  Schedule schedule;
  schedule.at(100, AddAgents{0, 1, true});
  EXPECT_THROW(schedule.run(sim, 1000, gen), std::invalid_argument);
}

TEST(ScheduleTest, RunsUnderEveryEngineWithoutHandSplitting) {
  // PR 4: Schedule::run registers its events on the simulation's own
  // event queue, so the batched and auto engines split their windows at
  // the event times automatically — the ROADMAP "hand-splitting
  // footgun" is gone.
  for (const divpp::core::Engine engine :
       {divpp::core::Engine::kStep, divpp::core::Engine::kJump,
        divpp::core::Engine::kBatch, divpp::core::Engine::kAuto}) {
    auto sim = fresh_sim(500);
    Schedule schedule;
    schedule.at(777, AddAgents{0, 20, true});
    schedule.at(2'001, AddColor{1.0, 2});
    Xoshiro256 gen(5);
    schedule.run(sim, 9'000, gen, engine);
    EXPECT_EQ(sim.time(), 9'000) << divpp::core::engine_name(engine);
    EXPECT_EQ(sim.num_colors(), 3);
    EXPECT_EQ(sim.n(), 522);
    EXPECT_EQ(sim.pending_event_count(), 0);
  }
}

TEST(ScheduleTest, ThrowingEventActionLeavesNoQueuedEvents) {
  // A malformed event that throws mid-run must not leave the rest of
  // the script queued on the simulation.
  auto sim = fresh_sim(200);
  Schedule schedule;
  schedule.at(100, RemoveColor{0, 0});  // victim == heir: throws
  schedule.at(500, AddAgents{0, 5, true});
  Xoshiro256 gen(7);
  EXPECT_THROW(schedule.run(sim, 2'000, gen, divpp::core::Engine::kBatch),
               std::invalid_argument);
  EXPECT_EQ(sim.pending_event_count(), 0);
  // The simulation stays usable.
  sim.advance_with(Engine::kJump, 3'000, gen);
  EXPECT_EQ(sim.time(), 3'000);
  EXPECT_EQ(sim.n(), 200);
}

TEST(ScheduleTest, JumpEngineOverloadMatchesLegacyBoolOverload) {
  // The bool spelling must stay bit-identical to the Engine spelling it
  // forwards to.
  auto sim_a = fresh_sim(200);
  auto sim_b = fresh_sim(200);
  Schedule schedule;
  schedule.at(300, AddAgents{1, 4, false});
  Xoshiro256 gen_a(6);
  Xoshiro256 gen_b(6);
  schedule.run(sim_a, 4'000, gen_a, /*use_jump_chain=*/true);
  schedule.run(sim_b, 4'000, gen_b, divpp::core::Engine::kJump);
  EXPECT_EQ(gen_a, gen_b);
  for (divpp::core::ColorId c = 0; c < sim_a.num_colors(); ++c) {
    EXPECT_EQ(sim_a.dark(c), sim_b.dark(c));
    EXPECT_EQ(sim_a.light(c), sim_b.light(c));
  }
}

TEST(Robustness, RecoveryAfterColourInjection) {
  // Paper claim: after an adversary adds a colour, the protocol quickly
  // returns to diversity.  Miniature version: n = 400, inject a colour of
  // weight 2 and check its support approaches the new fair share.
  const WeightMap weights({1.0, 1.0});
  auto sim = CountSimulation::equal_start(weights, 400);
  Xoshiro256 gen(5);
  sim.advance_with(Engine::kJump, 200'000, gen);  // settle first
  divpp::adversary::apply_event(sim, AddColor{2.0, 1});
  sim.advance_with(Engine::kJump, 1'800'000, gen);
  const double share = static_cast<double>(sim.support(2)) /
                       static_cast<double>(sim.n());
  EXPECT_NEAR(share, 0.5, 0.12);
  // All colours still alive (sustainability through the shock).
  EXPECT_GE(sim.min_dark(), 1);
}

TEST(Robustness, RecoveryAfterMassRecolor) {
  const WeightMap weights({1.0, 1.0, 1.0});
  auto sim = CountSimulation::equal_start(weights, 300);
  Xoshiro256 gen(6);
  sim.advance_with(Engine::kJump, 150'000, gen);
  // 90% of colour 0's dark agents defect to colour 1 — but at least one
  // dark agent of colour 0 survives, so the protocol must restore it.
  divpp::adversary::apply_event(sim, PartialRecolor{0, 1, 0.9});
  sim.advance_with(Engine::kJump, 1'500'000, gen);
  const double share0 = static_cast<double>(sim.support(0)) / 300.0;
  EXPECT_NEAR(share0, 1.0 / 3.0, 0.1);
}

}  // namespace
