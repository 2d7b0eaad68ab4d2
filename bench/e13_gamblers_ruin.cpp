// E13 — Theorem A.1 (gambler's ruin) closed forms vs Monte Carlo.
//
// The Phase-1 analysis couples count trajectories with biased walks and
// reads absorption probabilities/times off Theorem A.1.  This bench
// sweeps (p, b, s) and prints formula vs simulation for both the
// absorption probability and the expected absorption time.
//
// Flags: --trials=50000

#include <cmath>
#include <iostream>
#include <vector>

#include "io/args.h"
#include "io/table.h"
#include "markov/gamblers_ruin.h"
#include "rng/xoshiro.h"
#include "stats/online_stats.h"

int main(int argc, char** argv) {
  const divpp::io::Args args(argc, argv);
  const std::int64_t trials = args.get_int("trials", 50'000);
  args.reject_unknown();

  std::cout << divpp::io::banner(
      "E13: gambler's-ruin closed forms vs Monte Carlo  [Theorem A.1]");
  std::cout << trials << " simulated walks per row\n\n";

  const std::vector<divpp::markov::GamblersRuin> walks = {
      {0.50, 10, 5},  {0.50, 20, 4},  {0.55, 10, 5},  {0.55, 40, 10},
      {0.45, 10, 5},  {0.60, 30, 3},  {0.40, 12, 9},  {0.52, 100, 50},
  };

  divpp::io::Table table({"p", "b", "s", "P(top) formula", "P(top) MC",
                          "E[T] formula", "E[T] MC", "|dP|", "rel dT"});
  divpp::rng::Xoshiro256 gen(13);
  for (const auto& walk : walks) {
    std::int64_t tops = 0;
    divpp::stats::OnlineStats times;
    for (std::int64_t i = 0; i < trials; ++i) {
      const auto outcome = divpp::markov::simulate_ruin(walk, gen);
      if (outcome.absorbed_top) ++tops;
      times.add(static_cast<double>(outcome.steps));
    }
    const double p_mc =
        static_cast<double>(tops) / static_cast<double>(trials);
    const double p_formula = walk.probability_top();
    const double t_formula = walk.expected_time();
    table.begin_row()
        .add_cell(walk.p, 3)
        .add_cell(walk.b)
        .add_cell(walk.s)
        .add_cell(p_formula, 4)
        .add_cell(p_mc, 4)
        .add_cell(t_formula, 5)
        .add_cell(times.mean(), 5)
        .add_cell(std::abs(p_formula - p_mc), 2)
        .add_cell(std::abs(times.mean() - t_formula) /
                      std::max(t_formula, 1.0),
                  2);
  }
  std::cout << table.to_text()
            << "Expected shape: |dP| and rel dT at Monte Carlo noise level "
               "(~1/sqrt(trials)) for every parameter combination.\n";
  return 0;
}
