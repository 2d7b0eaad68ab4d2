// E16 — The phase structure of the analysis (paper Fig. 1, §2.1–§2.3).
//
// Claim: from a worst-case start the process climbs through the region
// ladder of Phase 1 (R1 → S1 → R2 → S2 → S3 → S4), then the potentials
// collapse in order — φ first (Subphase 2.1), then ψ (Subphase 2.2),
// then σ² tightens (Phase 3) — all within O(W² n log n) steps.  We
// instrument one run per seed and print every boundary, normalised by
// n·log n, reproducing Fig. 1 as a table.
//
// Flags: --n=16384 --seeds=3 --epsilon=0.15

#include <cmath>
#include <iostream>
#include <vector>

#include "analysis/convergence.h"
#include "analysis/phase_tracker.h"
#include "core/count_simulation.h"
#include "core/equilibrium.h"
#include "core/weights.h"
#include "io/args.h"
#include "io/table.h"
#include "rng/xoshiro.h"
#include "stats/potentials.h"

int main(int argc, char** argv) {
  const divpp::io::Args args(argc, argv);
  const std::int64_t n = args.get_int("n", 16384);
  const std::int64_t seeds = args.get_int("seeds", 3);
  const double epsilon = args.get_double("epsilon", 0.15);
  args.reject_unknown();
  const divpp::core::WeightMap weights({1.0, 2.0, 4.0});  // W = 7

  std::cout << divpp::io::banner(
      "E16: the three phases of the analysis  [Fig. 1]");
  std::cout << "n = " << n << ", weights " << weights.to_string()
            << ", epsilon = " << epsilon
            << "; all boundary times divided by n*log n\n\n";

  const double nlogn =
      static_cast<double>(n) * std::log(static_cast<double>(n));
  const double phi_threshold =
      divpp::core::theorem28_envelope(n, weights.total(), 1.0);
  // σ² target from Lemma 2.14: ĉ·n^{3/2}·sqrt(log n).
  const double sigma_threshold =
      std::pow(static_cast<double>(n), 1.5) *
      std::sqrt(std::log(static_cast<double>(n)));

  divpp::io::Table table({"seed", "R1", "S1", "R2", "S2", "S3", "S4",
                          "phi<=Wnlogn", "psi<=Wnlogn",
                          "sigma2<=n^1.5 sqrt(log n)"});
  for (std::int64_t s = 0; s < seeds; ++s) {
    auto sim =
        divpp::core::CountSimulation::adversarial_start(weights, n);
    divpp::rng::Xoshiro256 gen(300 + static_cast<std::uint64_t>(s));
    divpp::analysis::PhaseTracker tracker(epsilon);
    std::int64_t phi_time = -1;
    std::int64_t psi_time = -1;
    std::int64_t sigma_time = -1;
    const auto horizon = static_cast<std::int64_t>(
        20.0 * divpp::core::convergence_time_scale(n, weights.total()));
    const std::int64_t probe = std::max<std::int64_t>(n / 8, 64);
    while (sim.time() < horizon) {
      tracker.observe(sim);
      // The paper's Phase 2 starts only once Phase 1 has delivered its
      // multiplicative approximation (the S-regions); an all-dark start
      // trivially has ψ(0) = 0, so unconditioned clocks would be
      // meaningless.  Watch the potential clocks after S4 is reached.
      const bool phase1_done =
          tracker.first_hit(divpp::analysis::Region::kS4) >= 0;
      if (phase1_done) {
        if (phi_time < 0 &&
            divpp::analysis::evaluate_potential(
                sim, divpp::analysis::PotentialKind::kPhi) <= phi_threshold)
          phi_time = sim.time();
        if (phi_time >= 0 && psi_time < 0 &&
            divpp::analysis::evaluate_potential(
                sim, divpp::analysis::PotentialKind::kPsi) <= phi_threshold)
          psi_time = sim.time();
        if (psi_time >= 0 && sigma_time < 0 &&
            divpp::stats::sigma_potential(sim.total_dark(),
                                          sim.total_light(),
                                          weights.total()) <=
                sigma_threshold)
          sigma_time = sim.time();
      }
      const bool all_found =
          phase1_done && phi_time >= 0 && psi_time >= 0 && sigma_time >= 0;
      if (all_found) break;
      sim.advance_with(divpp::core::Engine::kJump, sim.time() + probe, gen);
    }
    const auto norm = [&](std::int64_t t) {
      return t < 0 ? std::string("—")
                   : divpp::io::format_double(
                         static_cast<double>(t) / nlogn, 3);
    };
    table.begin_row().add_cell(300 + s);
    for (const auto region :
         {divpp::analysis::Region::kR1, divpp::analysis::Region::kS1,
          divpp::analysis::Region::kR2, divpp::analysis::Region::kS2,
          divpp::analysis::Region::kS3, divpp::analysis::Region::kS4})
      table.add_cell(norm(tracker.first_hit(region)));
    table.add_cell(norm(phi_time));
    table.add_cell(norm(psi_time));
    table.add_cell(norm(sigma_time));
  }
  std::cout << table.to_text()
            << "\nExpected shape (Fig. 1): the light pool rises first (R1 "
               "within O(W) columns of 0), the minorities follow (R2), "
               "and every boundary lands at an O(1)–O(W²) multiple of "
               "n·log n.  The potential clocks are conditioned on Phase 1 "
               "completing (S4), mirroring the paper's sequential phases; "
               "phi is required before psi, psi before sigma² — at "
               "simulation scale the later phases complete almost "
               "immediately after Phase 1, i.e. the Phase-1 ladder "
               "dominates the constant, exactly as the paper's "
               "tau = tau1 + tau2,1 + tau2,2 + tau3 accounting suggests.\n";
  return 0;
}
