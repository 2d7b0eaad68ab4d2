// E10 — Diversification on other graph topologies (paper §3 future work).
//
// Claim to explore (the paper proves the complete graph only): on
// well-connected graphs the protocol still concentrates supports near
// the fair shares; poorly-mixing topologies (cycle) and bottlenecked
// ones (star) degrade gracefully; sustainability holds on every graph
// because it is a structural property of the rule.
//
// Flags: --n=4096 --seeds=3 --steps-mult=400

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/sustainability.h"
#include "core/diversification.h"
#include "core/equilibrium.h"
#include "core/population.h"
#include "graph/topologies.h"
#include "io/args.h"
#include "io/table.h"
#include "rng/xoshiro.h"
#include "stats/online_stats.h"
#include "stats/potentials.h"

int main(int argc, char** argv) {
  const divpp::io::Args args(argc, argv);
  const std::int64_t n = args.get_int("n", 4096);  // 64² for the torus
  const std::int64_t seeds = args.get_int("seeds", 3);
  const std::int64_t steps_mult = args.get_int("steps-mult", 400);
  args.reject_unknown();
  const divpp::core::WeightMap weights({1.0, 2.0, 5.0});

  std::cout << divpp::io::banner(
      "E10: Diversification beyond the complete graph  [§3 future work]");
  std::cout << "n = " << n << ", weights " << weights.to_string()
            << ", budget " << steps_mult
            << "*n steps, diversity error scaled by sqrt(n/log n)\n\n";

  const std::vector<std::string> topologies = {
      "complete", "regular:16", "regular:4", "er:0.01", "hypercube",
      "bipartite", "torus",     "grid",      "barbell", "cycle",
      "star"};

  divpp::io::Table table({"topology", "scaled diversity error (mean)",
                          "share c2 (fair 0.625)", "min dark ever",
                          "sustained"});
  for (const std::string& spec : topologies) {
    divpp::stats::OnlineStats err_acc;
    divpp::stats::OnlineStats share_acc;
    std::int64_t min_dark = n;
    bool sustained = true;
    for (std::int64_t s = 0; s < seeds; ++s) {
      divpp::rng::Xoshiro256 gen(91 + static_cast<std::uint64_t>(s));
      const auto graph = divpp::graph::make_topology(spec, n, gen);
      std::vector<std::int64_t> supports(3, 1);
      supports[0] = n - 2;
      auto pop = divpp::core::make_population(
          *graph, supports, divpp::core::DiversificationRule(weights));
      divpp::analysis::SustainabilityMonitor monitor(3);
      for (std::int64_t burst = 0; burst < steps_mult; ++burst) {
        pop.run(n, gen);
        monitor.observe(divpp::core::tally(pop.states(), 3).dark,
                        pop.time());
      }
      const auto sup = divpp::core::tally(pop.states(), 3).supports();
      err_acc.add(divpp::stats::diversity_error(sup, weights.weights()) /
                  divpp::core::diversity_error_scale(n));
      share_acc.add(static_cast<double>(sup[2]) / static_cast<double>(n));
      min_dark = std::min(min_dark, monitor.min_count_ever());
      sustained = sustained && monitor.sustained();
    }
    table.begin_row()
        .add_cell(spec)
        .add_cell(err_acc.mean(), 3)
        .add_cell(share_acc.mean(), 3)
        .add_cell(min_dark)
        .add_cell(sustained ? "yes" : "NO");
  }
  std::cout << table.to_text()
            << "Expected shape: complete graph and expanders (regular, er) "
               "have the smallest scaled error; the cycle lags behind at "
               "this budget (slow mixing) and the star funnels through the "
               "hub; 'sustained' is yes on every topology.\n";
  return 0;
}
