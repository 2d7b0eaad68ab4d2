// topology_explorer — the paper's future-work question, §3: how does the
// Diversification protocol behave on graphs other than the complete one?
//
// Runs the same weighted-diversity instance on several interaction
// topologies and reports the diversity error and per-colour support after
// a fixed budget, plus whether sustainability held throughout.
//
// Usage: topology_explorer [--n=1024] [--steps-factor=400] [--seed=5]

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/sustainability.h"
#include "core/diversification.h"
#include "core/population.h"
#include "graph/topologies.h"
#include "io/args.h"
#include "io/table.h"
#include "rng/xoshiro.h"
#include "stats/potentials.h"

int main(int argc, char** argv) {
  const divpp::io::Args args(argc, argv);
  const std::int64_t n = args.get_int("n", 1024);  // square for the torus
  const std::int64_t steps_factor = args.get_int("steps-factor", 400);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 5));
  args.reject_unknown();

  const divpp::core::WeightMap weights({1.0, 2.0, 5.0});
  const std::vector<std::string> topologies = {
      "complete", "regular:8", "er:0.02", "torus", "cycle", "star"};

  std::cout << "Diversification on different interaction topologies "
               "(paper §3 future work)\n"
            << "n = " << n << ", weights = " << weights.to_string()
            << ", budget = " << steps_factor << "·n steps\n\n";

  divpp::io::Table table({"topology", "share c0", "share c1", "share c2",
                          "diversity error", "sustained"});
  for (const std::string& spec : topologies) {
    divpp::rng::Xoshiro256 gen(seed);
    const auto graph = divpp::graph::make_topology(spec, n, gen);
    std::vector<std::int64_t> supports(3, 1);
    supports[0] = n - 2;
    auto pop = divpp::core::make_population(
        *graph, supports, divpp::core::DiversificationRule(weights));
    divpp::analysis::SustainabilityMonitor monitor(3);
    for (std::int64_t burst = 0; burst < steps_factor; ++burst) {
      pop.run(n, gen);
      monitor.observe(divpp::core::tally(pop.states(), 3).dark, pop.time());
    }
    const auto counts = divpp::core::tally(pop.states(), 3);
    const auto final_supports = counts.supports();
    table.begin_row().add_cell(graph->name());
    for (divpp::core::ColorId i = 0; i < 3; ++i) {
      table.add_cell(static_cast<double>(
                         final_supports[static_cast<std::size_t>(i)]) /
                         static_cast<double>(n),
                     3);
    }
    table.add_cell(
        divpp::stats::diversity_error(final_supports, weights.weights()), 3);
    table.add_cell(monitor.sustained() ? "yes" : "NO");
  }
  std::cout << table.to_text() << "\n";
  std::cout << "Fair shares are {0.125, 0.25, 0.625}.  Expect the complete\n"
               "graph and good expanders (regular:8, er) to sit closest;\n"
               "the cycle mixes slowly and the star funnels everything\n"
               "through the hub — sustainability still holds everywhere.\n";
  return 0;
}
