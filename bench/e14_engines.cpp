// E14 — Engine equivalence and throughput (design ablation, DESIGN.md §5).
//
// (a) Statistical equivalence of the three execution engines on K_n:
//     agent-based, count-chain (plain), count-chain (jump) — the mean and
//     standard deviation of colour-0 support after T steps must agree
//     across replicas.
// (b) Scheduler ablation: uniform (paper), round-robin initiator, random
//     matching — equilibrium shares under each schedule.
// (c) Throughput: steps/second per engine at large n.  The replica batch
//     is fanned across --threads workers by BatchRunner; the statistical
//     output (per-replica final supports and their sum) is bit-identical
//     for a fixed seed at any thread count, only the wall clock changes.
//
// Flags: --replicas=300 --throughput-steps=10000000 --tp-replicas=8
//        --threads=0 (0 = all hardware threads)
//
// The final line of output is a machine-readable JSON summary with the
// wall-clock timings, for harvesting into BENCH_*.json trajectories.

#include <array>
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <vector>

#include "core/count_simulation.h"
#include "core/diversification.h"
#include "core/population.h"
#include "graph/topologies.h"
#include "io/args.h"
#include "io/json.h"
#include "io/table.h"
#include "rng/xoshiro.h"
#include "runtime/batch_runner.h"
#include "sched/schedulers.h"
#include "stats/online_stats.h"

namespace {

using divpp::core::CountSimulation;
using divpp::core::Engine;
using divpp::core::WeightMap;
using divpp::rng::Xoshiro256;
using divpp::runtime::BatchRunner;

}  // namespace

int main(int argc, char** argv) {
  const divpp::io::Args args(argc, argv);
  const std::int64_t replicas = args.get_int("replicas", 300);
  const std::int64_t throughput_steps =
      args.get_int("throughput-steps", 10'000'000);
  const std::int64_t tp_replicas = args.get_int("tp-replicas", 8);
  if (tp_replicas < 1)
    throw std::invalid_argument("e14: --tp-replicas must be >= 1");
  BatchRunner runner(static_cast<int>(args.get_int("threads", 0)));
  args.reject_unknown();
  const WeightMap weights({1.0, 3.0});

  std::cout << divpp::io::banner(
      "E14: engine equivalence + scheduler ablation + throughput");
  std::cout << "BatchRunner threads: " << runner.threads() << "\n\n";

  divpp::io::Json summary;
  summary.set("bench", "e14_engines").set("threads", runner.threads());

  // (a) Equivalence of engines.  One batch; each replica runs all three
  // engines on generators forked from its own jump()-offset stream.
  {
    constexpr std::int64_t kN = 48;
    constexpr std::int64_t kT = 3000;
    const divpp::graph::CompleteGraph graph(kN);
    const std::vector<std::int64_t> supports = {24, 24};
    const auto finals = runner.map(
        replicas, 14'001,
        [&](std::int64_t, Xoshiro256& gen) -> std::array<double, 3> {
          // Per-engine generators are re-seeded from draws of the replica
          // stream (splitmix expansion), NOT fork()ed: BatchRunner spaces
          // replicas one jump() apart, so fork()'s jump-based offsets
          // would land exactly on a neighbouring replica's stream.
          Xoshiro256 g1(gen());
          Xoshiro256 g2(gen());
          Xoshiro256 g3(gen());
          auto pop = divpp::core::make_population(
              graph, supports, divpp::core::DiversificationRule(weights));
          pop.run(kT, g1);
          const double agent_c0 = static_cast<double>(
              divpp::core::tally(pop.states(), 2).supports()[0]);
          CountSimulation a(weights, {24, 24}, {0, 0});
          a.advance_with(Engine::kStep, kT, g2);
          CountSimulation b(weights, {24, 24}, {0, 0});
          b.advance_with(Engine::kJump, kT, g3);
          return {agent_c0, static_cast<double>(a.support(0)),
                  static_cast<double>(b.support(0))};
        });
    divpp::stats::OnlineStats agent;
    divpp::stats::OnlineStats plain;
    divpp::stats::OnlineStats jump;
    for (const auto& [agent_c0, plain_c0, jump_c0] : finals) {
      agent.add(agent_c0);
      plain.add(plain_c0);
      jump.add(jump_c0);
    }
    divpp::io::Table table({"engine", "mean C0(T)", "stddev C0(T)"});
    table.begin_row().add_cell("agent-based").add_cell(agent.mean(), 4)
        .add_cell(agent.stddev(), 3);
    table.begin_row().add_cell("count (plain)").add_cell(plain.mean(), 4)
        .add_cell(plain.stddev(), 3);
    table.begin_row().add_cell("count (jump)").add_cell(jump.mean(), 4)
        .add_cell(jump.stddev(), 3);
    std::cout << "(a) Engine equivalence: n = 48, T = 3000, " << replicas
              << " replicas\n"
              << table.to_text()
              << "Expected: all three rows statistically identical.\n\n";
    summary.set("equivalence",
                divpp::io::Json()
                    .set("replicas", replicas)
                    .set("wall_seconds", runner.last_timing().wall_seconds)
                    .set("agent_mean", agent.mean())
                    .set("plain_mean", plain.mean())
                    .set("jump_mean", jump.mean()));
  }

  // (b) Scheduler ablation.
  {
    constexpr std::int64_t kN = 1024;
    const divpp::graph::CompleteGraph graph(kN);
    const std::vector<std::int64_t> supports = {512, 512};
    divpp::io::Table table({"scheduler", "share c1 (fair 0.75)",
                            "interactions executed"});
    {
      Xoshiro256 gen(41);
      auto pop = divpp::core::make_population(
          graph, supports, divpp::core::DiversificationRule(weights));
      pop.run(400 * kN, gen);
      table.begin_row()
          .add_cell("uniform random (paper)")
          .add_cell(static_cast<double>(divpp::core::tally(pop.states(), 2)
                                            .supports()[1]) /
                        kN,
                    3)
          .add_cell(pop.time());
    }
    {
      Xoshiro256 gen(42);
      auto pop = divpp::core::make_population(
          graph, supports, divpp::core::DiversificationRule(weights));
      divpp::sched::run_round_robin(pop, 400 * kN, gen);
      table.begin_row()
          .add_cell("round-robin initiator")
          .add_cell(static_cast<double>(divpp::core::tally(pop.states(), 2)
                                            .supports()[1]) /
                        kN,
                    3)
          .add_cell(pop.time());
    }
    {
      Xoshiro256 gen(43);
      auto pop = divpp::core::make_population(
          graph, supports, divpp::core::DiversificationRule(weights));
      const std::int64_t interactions =
          divpp::sched::run_matching(pop, 800, gen);
      table.begin_row()
          .add_cell("random matching rounds")
          .add_cell(static_cast<double>(divpp::core::tally(pop.states(), 2)
                                            .supports()[1]) /
                        kN,
                    3)
          .add_cell(interactions);
    }
    std::cout << "(b) Scheduler ablation: n = 1024, weights {1,3}\n"
              << table.to_text()
              << "Expected: all schedules land on the fair share 0.75 — "
                 "the protocol does not depend on the paper's scheduler "
                 "for its equilibrium (only the analysis does).\n\n";
  }

  // (c) Throughput.  Total work per engine is fixed (--tp-replicas
  // replicas of steps/replica each, regardless of --threads), so the
  // wall clock shrinks with the worker count while the support-0
  // checksum stays identical.
  {
    divpp::io::Table table({"engine", "n", "replicas", "wall s",
                            "steps/s (millions)", "C0 checksum"});
    const std::int64_t big_n = 262'144;
    const std::int64_t steps_per_replica =
        std::max<std::int64_t>(throughput_steps / tp_replicas, 1);
    divpp::io::Json throughput;

    const auto record = [&](const char* engine, std::int64_t total_steps,
                            const std::vector<std::int64_t>& supports0) {
      const double wall = runner.last_timing().wall_seconds;
      std::int64_t checksum = 0;
      for (const std::int64_t s : supports0) checksum += s;
      const double rate = static_cast<double>(total_steps) / wall;
      table.begin_row()
          .add_cell(engine)
          .add_cell(big_n)
          .add_cell(tp_replicas)
          .add_cell(wall, 4)
          .add_cell(rate / 1e6, 4)
          .add_cell(checksum);
      throughput.set(engine, divpp::io::Json()
                                 .set("n", big_n)
                                 .set("replicas", tp_replicas)
                                 .set("total_steps", total_steps)
                                 .set("wall_seconds", wall)
                                 .set("steps_per_second", rate)
                                 .set("support0_checksum", checksum));
    };

    {
      const divpp::graph::CompleteGraph graph(big_n);
      const auto supports0 = runner.map(
          tp_replicas, 14'044, [&](std::int64_t, Xoshiro256& gen) {
            std::vector<std::int64_t> supports = {big_n / 2, big_n / 2};
            auto pop = divpp::core::make_population(
                graph, supports, divpp::core::DiversificationRule(weights));
            pop.run(steps_per_replica, gen);
            return divpp::core::tally(pop.states(), 2).supports()[0];
          });
      record("agent-based", steps_per_replica * tp_replicas, supports0);
    }
    {
      const auto supports0 = runner.map(
          tp_replicas, 14'045, [&](std::int64_t, Xoshiro256& gen) {
            auto sim = CountSimulation::equal_start(weights, big_n);
            sim.advance_with(Engine::kStep, steps_per_replica, gen);
            return sim.support(0);
          });
      record("count-plain", steps_per_replica * tp_replicas, supports0);
    }
    {
      const auto supports0 = runner.map(
          tp_replicas, 14'046, [&](std::int64_t, Xoshiro256& gen) {
            auto sim = CountSimulation::equal_start(weights, big_n);
            sim.advance_with(Engine::kJump, steps_per_replica * 10, gen);
            return sim.support(0);
          });
      record("count-jump", steps_per_replica * 10 * tp_replicas, supports0);
    }
    std::cout << "(c) Throughput: " << tp_replicas << " replicas over "
              << runner.threads() << " threads\n"
              << table.to_text()
              << "Expected: the jump chain dominates (it skips the ~"
              << "(1 - 1/W) no-op fraction in O(k) per active event); the "
                 "checksum column is thread-count invariant.\n";
    summary.set("throughput", throughput);
  }

  std::cout << "\n" << summary.to_string() << "\n";
  return 0;
}
