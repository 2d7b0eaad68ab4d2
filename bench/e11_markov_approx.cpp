// E11 — The Markov-chain approximation of one agent (paper §2.4).
//
// Claims reproduced:
//  (a) the chain M has stationary π(D_i) = w_i/(1+W),
//      π(L_i) = (w_i/W)/(1+W) (Eqs. 18/19) — checked against the solver;
//  (b) the *actual* (non-Markovian) trajectory of a tagged agent in the
//      full protocol has empirical state occupancies within o(1) of π;
//  (c) the perturbed chains P± bracket the unperturbed stationary mass of
//      the target state: π⁻(D_l) < π(D_l) < π⁺(D_l).
//
// Flags: --n=64 --horizon=4000000 --seed=3

#include <cmath>
#include <iostream>
#include <vector>

#include "core/count_simulation.h"
#include "core/weights.h"
#include "io/args.h"
#include "io/table.h"
#include "markov/equilibrium_chain.h"
#include "markov/markov_chain.h"
#include "rng/xoshiro.h"

int main(int argc, char** argv) {
  const divpp::io::Args args(argc, argv);
  const std::int64_t n = args.get_int("n", 64);
  const std::int64_t horizon = args.get_int("horizon", 4'000'000);
  divpp::rng::Xoshiro256 gen(
      static_cast<std::uint64_t>(args.get_int("seed", 3)));
  args.reject_unknown();
  const divpp::core::WeightMap weights({1.0, 3.0});  // W = 4, k = 2
  const std::int64_t k = weights.num_colors();

  std::cout << divpp::io::banner(
      "E11: one agent's trajectory vs the equilibrium chain M  [§2.4]");

  // (a) Stationary distribution: closed form vs numerical solve.
  const auto chain = divpp::markov::build_equilibrium_chain(weights, n);
  const auto pi_closed = divpp::markov::equilibrium_stationary(weights);
  const auto pi_solved = chain.stationary_direct();
  std::cout << "TV(closed-form pi, solver pi) = "
            << divpp::io::format_double(
                   divpp::markov::total_variation(pi_closed, pi_solved), 3)
            << " (expected ~0); 1/8-mixing time of M = "
            << chain.mixing_time() << " steps\n\n";

  // (b) Tagged agent in the real protocol vs pi.
  auto base = divpp::core::CountSimulation::proportional_start(weights, n);
  divpp::core::TaggedCountSimulation tagged(base, 0, true);
  // Warm up.
  const std::int64_t warmup = 50 * n * n / 10;
  while (tagged.time() < warmup) tagged.step(gen);
  std::vector<std::int64_t> occupancy(static_cast<std::size_t>(2 * k), 0);
  const std::int64_t start = tagged.time();
  tagged.run_observed(start + horizon, gen,
                      [&](std::int64_t, divpp::core::AgentState s) {
                        const std::int64_t state =
                            s.is_dark()
                                ? divpp::markov::dark_state(s.color)
                                : divpp::markov::light_state(s.color, k);
                        ++occupancy[static_cast<std::size_t>(state)];
                      });

  std::vector<double> empirical(occupancy.size());
  for (std::size_t i = 0; i < occupancy.size(); ++i)
    empirical[i] = static_cast<double>(occupancy[i]) /
                   static_cast<double>(horizon);

  divpp::io::Table table({"state", "pi (closed form)", "tagged empirical",
                          "pi- (err)", "pi+ (err)"});
  // Perturbation radius: the paper's err is an additive error on
  // transition probabilities of size O(1/n) (Eq. 20), i.e. a vanishing
  // *relative* perturbation.  We use 20% of the smallest transition
  // probability so that every P± entry stays a probability.
  const double err =
      0.2 / ((1.0 + weights.total()) * static_cast<double>(n));
  const char* names[] = {"D0", "D1", "L0", "L1"};
  for (std::int64_t s = 0; s < 2 * k; ++s) {
    // Perturbed chains target dark states (as in the paper's proof).
    std::string lo = "—";
    std::string hi = "—";
    if (divpp::markov::is_dark_state(s, k)) {
      const auto color = divpp::markov::state_color(s, k);
      const auto minus =
          divpp::markov::build_perturbed_chain(
              weights, n, color, err, divpp::markov::Perturbation::kAway)
              .stationary_direct();
      const auto plus =
          divpp::markov::build_perturbed_chain(
              weights, n, color, err,
              divpp::markov::Perturbation::kTowards)
              .stationary_direct();
      lo = divpp::io::format_double(minus[static_cast<std::size_t>(s)], 4);
      hi = divpp::io::format_double(plus[static_cast<std::size_t>(s)], 4);
    }
    table.begin_row()
        .add_cell(names[s])
        .add_cell(pi_closed[static_cast<std::size_t>(s)], 4)
        .add_cell(empirical[static_cast<std::size_t>(s)], 4)
        .add_cell(lo)
        .add_cell(hi);
  }
  std::cout << table.to_text() << "\n"
            << "TV(empirical occupancy, pi) = "
            << divpp::io::format_double(
                   divpp::markov::total_variation(empirical, pi_closed), 3)
            << "\n\n"
            << "Expected shape: the tagged agent's occupancy matches pi to "
               "within the finite-n error (TV -> 0 as the horizon grows), "
               "and each dark state's pi lies inside its [pi-, pi+] "
               "bracket — the sandwich argument of §2.4.\n"
            << "Per-colour totals: colour occupancy D_i + L_i = fair share "
               "w_i/W (fairness, Thm 2.12): c0 = "
            << divpp::io::format_double(empirical[0] + empirical[2], 3)
            << " vs 0.25, c1 = "
            << divpp::io::format_double(empirical[1] + empirical[3], 3)
            << " vs 0.75.\n";
  return 0;
}
