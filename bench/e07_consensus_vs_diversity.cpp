// E7 — Consensus baselines vs. Diversification (§1.1 related work).
//
// Claim: the well-studied dynamics (Voter, 2-Choices, 3-Majority) solve
// the *opposite* problem — they collapse k colours to 1 — while the
// Diversification protocol holds all k at their fair shares; the
// anti-voter keeps exactly 2 colours balanced but cannot scale to k > 2.
// We run all protocols from identical initial configurations and report
// surviving-colour counts over time and consensus times.
//
// Flags: --n=1024 --k=8 --consensus-n=256 --seed=9

#include <iostream>
#include <string>
#include <vector>

#include "core/count_simulation.h"
#include "core/diversification.h"
#include "core/population.h"
#include "graph/topologies.h"
#include "io/args.h"
#include "io/table.h"
#include "protocols/anti_voter.h"
#include "protocols/opinion.h"
#include "protocols/three_majority.h"
#include "protocols/two_choices.h"
#include "protocols/voter.h"
#include "rng/xoshiro.h"
#include "stats/potentials.h"

namespace {

using divpp::core::AgentState;
using divpp::core::Population;
using divpp::core::WeightMap;
using divpp::graph::CompleteGraph;
using divpp::rng::Xoshiro256;

template <typename Rule>
std::vector<std::int64_t> survivors_over_time(
    const CompleteGraph& graph, const std::vector<std::int64_t>& supports,
    Rule rule, const std::vector<std::int64_t>& checkpoints,
    std::int64_t num_colors, Xoshiro256& gen) {
  Population<AgentState, Rule> pop(
      graph, divpp::protocols::opinion_initial(supports), std::move(rule));
  std::vector<std::int64_t> result;
  for (const std::int64_t target : checkpoints) {
    pop.run(target - pop.time(), gen);
    result.push_back(
        divpp::protocols::surviving_colors(pop.states(), num_colors));
  }
  return result;
}

template <typename Rule>
std::int64_t consensus_time(std::int64_t n, std::int64_t k, Rule rule,
                            std::int64_t cap, Xoshiro256& gen) {
  const CompleteGraph graph(n);
  std::vector<std::int64_t> supports(static_cast<std::size_t>(k), n / k);
  supports[0] += n - k * (n / k);
  Population<AgentState, Rule> pop(
      graph, divpp::protocols::opinion_initial(supports), std::move(rule));
  return divpp::protocols::run_until_consensus(pop, cap, gen);
}

}  // namespace

int main(int argc, char** argv) {
  const divpp::io::Args args(argc, argv);
  const std::int64_t n = args.get_int("n", 1024);
  const std::int64_t k = args.get_int("k", 8);
  const std::int64_t consensus_n = args.get_int("consensus-n", 256);
  Xoshiro256 gen(static_cast<std::uint64_t>(args.get_int("seed", 9)));
  args.reject_unknown();

  std::cout << divpp::io::banner(
      "E7: consensus dynamics collapse diversity; Diversification keeps it");
  std::cout << "n = " << n << ", k = " << k
            << " equal colours, identical initial configurations\n\n";

  const CompleteGraph graph(n);
  std::vector<std::int64_t> supports(static_cast<std::size_t>(k), n / k);
  supports[0] += n - k * (n / k);
  const std::vector<std::int64_t> checkpoints = {10 * n, 50 * n, 200 * n,
                                                 800 * n};

  divpp::io::Table table({"protocol", "survivors@10n", "@50n", "@200n",
                          "@800n", "consensus time (n=" +
                                       std::to_string(consensus_n) + ")"});

  const auto add_row = [&](const std::string& name,
                           const std::vector<std::int64_t>& survivors,
                           std::int64_t ctime) {
    table.begin_row().add_cell(name);
    for (const std::int64_t s : survivors) table.add_cell(s);
    table.add_cell(ctime < 0 ? "not reached" : std::to_string(ctime));
  };

  add_row("voter",
          survivors_over_time(graph, supports, divpp::protocols::VoterRule{},
                              checkpoints, k, gen),
          consensus_time(consensus_n, k, divpp::protocols::VoterRule{},
                         40'000'000, gen));
  add_row("2-choices",
          survivors_over_time(graph, supports,
                              divpp::protocols::TwoChoicesRule{},
                              checkpoints, k, gen),
          consensus_time(consensus_n, k, divpp::protocols::TwoChoicesRule{},
                         40'000'000, gen));
  add_row("3-majority",
          survivors_over_time(graph, supports,
                              divpp::protocols::ThreeMajorityRule{},
                              checkpoints, k, gen),
          consensus_time(consensus_n, k,
                         divpp::protocols::ThreeMajorityRule{}, 40'000'000,
                         gen));

  // Diversification: same configuration (uniform weights); survivors plus
  // the diversity error at the end — consensus is never reached by design.
  {
    const WeightMap weights = WeightMap::uniform(k);
    auto pop = divpp::core::make_population(
        graph, supports, divpp::core::DiversificationRule(weights));
    std::vector<std::int64_t> survivors;
    for (const std::int64_t target : checkpoints) {
      pop.run(target - pop.time(), gen);
      survivors.push_back(
          divpp::protocols::surviving_colors(pop.states(), k));
    }
    add_row("diversification (w=1)", survivors, -1);
    const auto final_supports = divpp::core::tally(pop.states(), k).supports();
    std::cout << table.to_text() << "\n"
              << "Diversification final diversity error: "
              << divpp::io::format_double(
                     divpp::stats::diversity_error(final_supports,
                                                   weights.weights()),
                     3)
              << " (fair share 1/" << k << " each)\n";
  }

  // Anti-voter: k = 2 balance, but inapplicable beyond two colours.
  {
    std::vector<std::int64_t> binary = {n / 2, n - n / 2};
    Population<AgentState, divpp::protocols::AntiVoterRule> pop(
        graph, divpp::protocols::opinion_initial(binary),
        divpp::protocols::AntiVoterRule{});
    pop.run(200 * n, gen);
    const auto counts = divpp::core::tally(pop.states(), 2).supports();
    std::cout << "Anti-voter (k=2 only): surviving colours = "
              << divpp::protocols::surviving_colors(pop.states(), 2)
              << ", share of colour 0 = "
              << divpp::io::format_double(
                     static_cast<double>(counts[0]) / static_cast<double>(n),
                     3)
              << " — balanced, but the rule cannot express k > 2 or "
                 "weights.\n\n";
  }

  std::cout << "Expected shape: the three consensus dynamics lose colours "
               "monotonically (voter slowest, 3-majority fastest) and reach "
               "consensus on the small instance; Diversification keeps all "
            << k << " colours alive at equal shares forever.\n";
  return 0;
}
