// E3 — Diversity (Definition 1.1(1), Eq. (4)).
//
// Claim: at equilibrium every colour's support satisfies
// |C_i(t)/n − w_i/W| = Õ(1/√n).  We measure the worst per-colour share
// deviation at many probe points after convergence and print it scaled
// by √(n / log n): the scaled column should stay O(1) as n grows 64×.
//
// Flags: --ns=<list> --seeds=<count> --probes=<count>

#include <cmath>
#include <iostream>
#include <vector>

#include "core/count_simulation.h"
#include "core/equilibrium.h"
#include "core/weights.h"
#include "io/args.h"
#include "io/table.h"
#include "rng/xoshiro.h"
#include "stats/online_stats.h"
#include "stats/potentials.h"

int main(int argc, char** argv) {
  const divpp::io::Args args(argc, argv);
  const auto ns =
      args.get_int_list("ns", {1024, 4096, 16384, 65536, 262144});
  const std::int64_t seeds = args.get_int("seeds", 3);
  const std::int64_t probes = args.get_int("probes", 40);
  args.reject_unknown();
  const divpp::core::WeightMap weights({1.0, 2.0, 5.0});  // W = 8

  std::cout << divpp::io::banner(
      "E3: diversity error is O~(1/sqrt(n))  [Defn 1.1(1), Eq. (4)]");
  std::cout << "weights " << weights.to_string()
            << "; error = max_i |C_i/n - w_i/W| sampled at " << probes
            << " probe points after convergence\n\n";

  divpp::io::Table table({"n", "mean error", "max error",
                          "mean error * sqrt(n/log n)",
                          "max error * sqrt(n/log n)"});
  for (const std::int64_t n : ns) {
    divpp::stats::OnlineStats errors;
    const auto tau = static_cast<std::int64_t>(
        3.0 * divpp::core::convergence_time_scale(n, weights.total()));
    const auto gap = static_cast<std::int64_t>(
        2.0 * static_cast<double>(n));  // decorrelate probes
    for (std::int64_t s = 0; s < seeds; ++s) {
      auto sim =
          divpp::core::CountSimulation::adversarial_start(weights, n);
      divpp::rng::Xoshiro256 gen(7 + static_cast<std::uint64_t>(s));
      sim.advance_with(divpp::core::Engine::kJump, tau, gen);
      for (std::int64_t p = 0; p < probes; ++p) {
        sim.advance_with(divpp::core::Engine::kJump, sim.time() + gap, gen);
        const auto supports = sim.supports();
        errors.add(divpp::stats::diversity_error(supports,
                                                 weights.weights()));
      }
    }
    const double scale = 1.0 / divpp::core::diversity_error_scale(n);
    table.begin_row()
        .add_cell(n)
        .add_cell(errors.mean(), 4)
        .add_cell(errors.max(), 4)
        .add_cell(errors.mean() * scale, 3)
        .add_cell(errors.max() * scale, 3);
  }
  std::cout << table.to_text()
            << "Expected shape: the scaled columns stay O(1) while n grows "
               "256x — the error obeys the O~(1/sqrt(n)) law.\n";
  return 0;
}
