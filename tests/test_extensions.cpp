// Tests for the extension modules: new topologies (hypercube, grid,
// bipartite, barbell) and the shock-recovery analysis helper.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "adversary/events.h"
#include "analysis/robustness.h"
#include "core/count_simulation.h"
#include "graph/topologies.h"
#include "rng/xoshiro.h"

namespace {

using divpp::core::WeightMap;
using divpp::graph::AdjacencyGraph;
using divpp::rng::Xoshiro256;

// ---- new topologies ---------------------------------------------------

TEST(Hypercube, StructureIsCorrect) {
  const AdjacencyGraph g = divpp::graph::make_hypercube(4);
  EXPECT_EQ(g.num_nodes(), 16);
  for (std::int64_t u = 0; u < 16; ++u) EXPECT_EQ(g.degree(u), 4);
  EXPECT_TRUE(g.is_connected());
  EXPECT_TRUE(g.has_edge(0b0000, 0b0001));
  EXPECT_TRUE(g.has_edge(0b0101, 0b1101));
  EXPECT_FALSE(g.has_edge(0b0000, 0b0011));  // differs in two bits
  EXPECT_THROW((void)divpp::graph::make_hypercube(0), std::invalid_argument);
  EXPECT_THROW((void)divpp::graph::make_hypercube(31), std::invalid_argument);
}

TEST(Grid, BoundaryDegrees) {
  const AdjacencyGraph g = divpp::graph::make_grid(3, 4);
  EXPECT_EQ(g.num_nodes(), 12);
  EXPECT_EQ(g.degree(0), 2);   // corner
  EXPECT_EQ(g.degree(1), 3);   // edge
  EXPECT_EQ(g.degree(5), 4);   // interior (row 1, col 1)
  EXPECT_TRUE(g.is_connected());
  EXPECT_FALSE(g.has_edge(0, 3));  // no wrap: (0,0) — (0,3)
  EXPECT_THROW((void)divpp::graph::make_grid(1, 5), std::invalid_argument);
}

TEST(CompleteBipartite, Structure) {
  const AdjacencyGraph g = divpp::graph::make_complete_bipartite(3, 5);
  EXPECT_EQ(g.num_nodes(), 8);
  for (std::int64_t u = 0; u < 3; ++u) EXPECT_EQ(g.degree(u), 5);
  for (std::int64_t v = 3; v < 8; ++v) EXPECT_EQ(g.degree(v), 3);
  EXPECT_FALSE(g.has_edge(0, 1));  // same side
  EXPECT_TRUE(g.has_edge(0, 3));
  EXPECT_TRUE(g.is_connected());
}

TEST(Barbell, TwoCliquesOneBridge) {
  const AdjacencyGraph g = divpp::graph::make_barbell(5);
  EXPECT_EQ(g.num_nodes(), 10);
  EXPECT_TRUE(g.is_connected());
  // Bridge endpoints have degree clique (4 within + 1 bridge).
  EXPECT_EQ(g.degree(4), 5);
  EXPECT_EQ(g.degree(5), 5);
  EXPECT_EQ(g.degree(0), 4);
  EXPECT_TRUE(g.has_edge(4, 5));
  EXPECT_FALSE(g.has_edge(0, 9));
}

TEST(MakeTopology, DispatchesNewFamilies) {
  Xoshiro256 gen(1);
  EXPECT_EQ(divpp::graph::make_topology("hypercube", 32, gen)->num_nodes(),
            32);
  EXPECT_EQ(divpp::graph::make_topology("grid", 49, gen)->num_nodes(), 49);
  EXPECT_EQ(divpp::graph::make_topology("bipartite", 20, gen)->num_nodes(),
            20);
  EXPECT_EQ(divpp::graph::make_topology("barbell", 16, gen)->num_nodes(), 16);
  EXPECT_THROW((void)divpp::graph::make_topology("hypercube", 33, gen),
               std::invalid_argument);
  EXPECT_THROW((void)divpp::graph::make_topology("bipartite", 9, gen),
               std::invalid_argument);
}

TEST(RandomRegular, RepairHandlesLargerDegrees) {
  // The switch-repair generator must handle degrees where pure rejection
  // would essentially never succeed.
  Xoshiro256 gen(2);
  for (const std::int64_t d : {8, 16, 24}) {
    const AdjacencyGraph g =
        divpp::graph::make_random_regular(256, d, gen);
    for (std::int64_t u = 0; u < 256; ++u) {
      ASSERT_EQ(g.degree(u), d);
      std::set<std::int64_t> unique(g.neighbors(u).begin(),
                                    g.neighbors(u).end());
      ASSERT_EQ(static_cast<std::int64_t>(unique.size()), d);
      ASSERT_EQ(unique.count(u), 0u);
    }
  }
}

// ---- recovery analysis ----------------------------------------------------

TEST(Robustness, MeasureRecoveryAfterAddColor) {
  auto sim = divpp::core::CountSimulation::proportional_start(
      WeightMap({1.0, 1.0}), 1024);
  Xoshiro256 gen(9);
  divpp::analysis::RecoveryConfig config;
  const auto report = divpp::analysis::measure_recovery(
      std::move(sim), divpp::adversary::AddColor{2.0, 1}, config, gen);
  ASSERT_TRUE(report.recovered);
  EXPECT_GT(report.recovered_time, report.shock_time);
  EXPECT_GT(report.normalised_recovery, 0.0);
  EXPECT_LT(report.normalised_recovery, 50.0);
  EXPECT_TRUE(report.sustainability_kept);
}

TEST(Robustness, ColourRetirementNeverRecovers) {
  auto sim = divpp::core::CountSimulation::proportional_start(
      WeightMap({1.0, 1.0}), 512);
  Xoshiro256 gen(10);
  divpp::analysis::RecoveryConfig config;
  config.cap_multiplier = 5.0;  // keep the bench-style cap small
  const auto report = divpp::analysis::measure_recovery(
      std::move(sim), divpp::adversary::RemoveColor{0, 1}, config, gen);
  EXPECT_FALSE(report.recovered);
  EXPECT_FALSE(report.sustainability_kept);  // colour 0 lost its dark agents
}

TEST(Robustness, MassAgentInjectionRecovers) {
  auto sim = divpp::core::CountSimulation::proportional_start(
      WeightMap({1.0, 3.0}), 1024);
  Xoshiro256 gen(11);
  divpp::analysis::RecoveryConfig config;
  const auto report = divpp::analysis::measure_recovery(
      std::move(sim), divpp::adversary::AddAgents{0, 512, true}, config,
      gen);
  ASSERT_TRUE(report.recovered);
  EXPECT_TRUE(report.sustainability_kept);
}

}  // namespace
