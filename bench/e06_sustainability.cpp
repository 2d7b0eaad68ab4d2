// E6 — Sustainability (Definition 1.1(3)).
//
// Claim: under the Diversification protocol no colour ever vanishes —
// with probability 1 — because a dark agent only fades after meeting
// another dark agent of its colour.  We track the minimum per-colour
// dark support over long runs and many seeds (it must never hit 0), and
// contrast with the Voter model, where colours die quickly.
//
// Flags: --n=512 --seeds=8 --steps-mult=2000

#include <iostream>
#include <vector>

#include "analysis/sustainability.h"
#include "core/count_simulation.h"
#include "core/population.h"
#include "core/weights.h"
#include "graph/topologies.h"
#include "io/args.h"
#include "io/table.h"
#include "protocols/opinion.h"
#include "protocols/voter.h"
#include "rng/xoshiro.h"

int main(int argc, char** argv) {
  const divpp::io::Args args(argc, argv);
  const std::int64_t n = args.get_int("n", 512);
  const std::int64_t seeds = args.get_int("seeds", 8);
  const std::int64_t steps_mult = args.get_int("steps-mult", 2000);
  args.reject_unknown();
  const divpp::core::WeightMap weights({1.0, 2.0, 4.0});

  std::cout << divpp::io::banner(
      "E6: sustainability — no colour ever vanishes  [Defn 1.1(3)]");
  std::cout << "n = " << n << ", weights " << weights.to_string()
            << ", horizon " << steps_mult << "*n steps per seed\n\n";

  // (a) Diversification: min dark support per seed, from the worst start.
  divpp::io::Table table({"seed", "min dark support ever",
                          "colours died (diversification)",
                          "voter: colours left", "voter: first death at"});
  std::int64_t diversification_deaths = 0;
  std::int64_t voter_survivor_total = 0;
  for (std::int64_t s = 0; s < seeds; ++s) {
    // Diversification on the lumped chain (equal split: both protocols
    // start from the same balanced configuration).
    auto sim = divpp::core::CountSimulation::equal_start(weights, n);
    divpp::rng::Xoshiro256 gen(51 + static_cast<std::uint64_t>(s));
    divpp::analysis::SustainabilityMonitor monitor(3);
    while (sim.time() < steps_mult * n) {
      sim.advance_with(divpp::core::Engine::kJump, sim.time() + n, gen);
      monitor.observe(sim.dark_counts(), sim.time());
    }
    diversification_deaths += monitor.colors_died();

    // Voter baseline with the same initial supports (agent-based).
    const divpp::graph::CompleteGraph graph(n);
    std::vector<std::int64_t> supports(3, n / 3);
    supports[0] += n - 3 * (n / 3);
    divpp::core::Population<divpp::core::AgentState,
                            divpp::protocols::VoterRule>
        voter(graph, divpp::protocols::opinion_initial(supports),
              divpp::protocols::VoterRule{});
    divpp::analysis::SustainabilityMonitor voter_monitor(3);
    while (voter.time() < steps_mult * n) {
      voter.run(n, gen);
      voter_monitor.observe(
          divpp::core::tally(voter.states(), 3).supports(), voter.time());
      if (divpp::protocols::is_consensus(voter.states())) break;
    }
    const std::int64_t survivors =
        divpp::protocols::surviving_colors(voter.states(), 3);
    voter_survivor_total += survivors;
    std::int64_t first_death = -1;
    for (std::int64_t c = 0; c < 3; ++c) {
      const std::int64_t d = voter_monitor.death_time(c);
      if (d >= 0 && (first_death < 0 || d < first_death)) first_death = d;
    }
    table.begin_row()
        .add_cell(51 + s)
        .add_cell(monitor.min_count_ever())
        .add_cell(monitor.colors_died())
        .add_cell(survivors)
        .add_cell(first_death);
  }
  std::cout << table.to_text() << "\n"
            << "Diversification colours died (all seeds): "
            << diversification_deaths << " (expected 0 — probability-1 "
            << "invariant)\n"
            << "Voter mean surviving colours: "
            << static_cast<double>(voter_survivor_total) /
                   static_cast<double>(seeds)
            << " of 3 (expected to collapse towards 1)\n";
  return 0;
}
