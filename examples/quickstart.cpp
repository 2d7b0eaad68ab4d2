// quickstart — the smallest complete use of divpp.
//
// Runs the Diversification protocol (Kang, Mallmann-Trenn, Rivera;
// PODC 2021) with three weighted colours on a complete graph and prints
// how the colour distribution approaches the fair shares w_i/W.
//
// Usage: quickstart [--n=2000] [--seed=1] [--engine=jump]
//   --engine selects the stepping mode (step | jump | batch | auto);
//   all sample the same law — batch is the fast one at large n, and
//   auto picks jump or batch per window so you never have to choose.

#include <iostream>

#include "core/count_simulation.h"
#include "core/equilibrium.h"
#include "core/weights.h"
#include "io/args.h"
#include "io/table.h"
#include "rng/xoshiro.h"
#include "stats/potentials.h"

int main(int argc, char** argv) {
  const divpp::io::Args args(argc, argv);
  const std::int64_t n = args.get_int("n", 2000);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const divpp::core::Engine engine =
      divpp::core::parse_engine(args.get_string("engine", "jump"));
  args.reject_unknown();

  // Three "tasks" with importance weights 1, 2 and 5.
  const divpp::core::WeightMap weights({1.0, 2.0, 5.0});
  std::cout << "Diversification protocol quickstart\n"
            << "n = " << n << ", weights = " << weights.to_string()
            << ", fair shares = {1/8, 2/8, 5/8}\n\n";

  // Worst-case start: colour 0 holds everyone except one agent per
  // minority colour; all agents start dark (confident).
  auto sim = divpp::core::CountSimulation::adversarial_start(weights, n);
  divpp::rng::Xoshiro256 gen(seed);

  divpp::io::Table table(
      {"time-steps", "share c0", "share c1", "share c2", "diversity error"});
  const auto snapshot = [&]() {
    table.begin_row().add_cell(sim.time());
    for (divpp::core::ColorId i = 0; i < 3; ++i) {
      table.add_cell(static_cast<double>(sim.support(i)) /
                         static_cast<double>(sim.n()),
                     3);
    }
    const auto supports = sim.supports();
    table.add_cell(
        divpp::stats::diversity_error(supports, weights.weights()), 3);
  };

  snapshot();
  for (int decade = 0; decade < 6; ++decade) {
    sim.advance_with(engine, sim.time() == 0 ? n : sim.time() * 4, gen);
    snapshot();
  }

  std::cout << table.to_text() << "\n";
  std::cout << "Target: shares converge to {0.125, 0.25, 0.625} and the\n"
               "diversity error drops to the O(sqrt(log n / n)) scale ("
            << divpp::io::format_double(
                   divpp::core::diversity_error_scale(n), 3)
            << " for this n).\n";
  return 0;
}
