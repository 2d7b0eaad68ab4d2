// E2 — Potential collapse and persistence (Theorem 1.3 / Theorem 2.8).
//
// Claim: after τ = O(W² n log n) steps both potentials
// φ(t) = ΣΣ (A_i/w_i − A_j/w_j)² and ψ(t) (light counts) stay below
// C·W·n·log n, for an enormous window.  We print the trajectory of both
// potentials from an adversarial start, then the supremum over a probe
// window of many multiples of n·log n, normalised by W·n·log n — the
// normalised sup should be O(1) across n.
//
// Flags: --ns=<list> --seeds=<count> --window-mult=20

#include <cmath>
#include <iostream>
#include <vector>

#include "analysis/convergence.h"
#include "core/count_simulation.h"
#include "core/equilibrium.h"
#include "core/weights.h"
#include "io/args.h"
#include "io/table.h"
#include "rng/xoshiro.h"
#include "stats/online_stats.h"

namespace {

using divpp::analysis::PotentialKind;
using divpp::core::CountSimulation;
using divpp::core::Engine;
using divpp::core::WeightMap;

}  // namespace

int main(int argc, char** argv) {
  const divpp::io::Args args(argc, argv);
  const auto ns = args.get_int_list("ns", {4096, 16384, 65536});
  const std::int64_t seeds = args.get_int("seeds", 3);
  const std::int64_t window_mult = args.get_int("window-mult", 20);
  args.reject_unknown();
  const WeightMap weights({1.0, 2.0, 4.0});  // W = 7

  std::cout << divpp::io::banner(
      "E2: potential collapse phi/psi  [Thm 1.3 / Thm 2.8]");

  // (a) One decimated trajectory for the smallest n: the collapse curve.
  {
    const std::int64_t n = ns.front();
    auto sim = CountSimulation::adversarial_start(weights, n);
    divpp::rng::Xoshiro256 gen(11);
    divpp::io::Table table({"t", "phi(t)", "psi(t)", "phi/(W n log n)"});
    const double envelope =
        divpp::core::theorem28_envelope(n, weights.total(), 1.0);
    std::int64_t t = 0;
    const auto tau_scale = static_cast<std::int64_t>(
        divpp::core::convergence_time_scale(n, weights.total()));
    while (t <= 3 * tau_scale) {
      sim.advance_with(Engine::kJump, t, gen);
      const double phi =
          divpp::analysis::evaluate_potential(sim, PotentialKind::kPhi);
      const double psi =
          divpp::analysis::evaluate_potential(sim, PotentialKind::kPsi);
      table.begin_row()
          .add_cell(t)
          .add_cell(phi, 4)
          .add_cell(psi, 4)
          .add_cell(phi / envelope, 3);
      t = t == 0 ? std::max<std::int64_t>(n / 4, 1) : t * 4;
    }
    std::cout << "Trajectory (n = " << n << ", weights "
              << weights.to_string() << "):\n"
              << table.to_text() << "\n";
  }

  // (b) Post-convergence persistence: sup over the probe window.
  divpp::io::Table table({"n", "sup phi / (W n log n)",
                          "sup psi / (W n log n)", "window (steps)"});
  for (const std::int64_t n : ns) {
    divpp::stats::OnlineStats phi_sup;
    divpp::stats::OnlineStats psi_sup;
    const auto tau = static_cast<std::int64_t>(
        3.0 * divpp::core::convergence_time_scale(n, weights.total()));
    const double nlogn =
        static_cast<double>(n) * std::log(static_cast<double>(n));
    const auto window = static_cast<std::int64_t>(
        static_cast<double>(window_mult) * nlogn);
    const double envelope =
        divpp::core::theorem28_envelope(n, weights.total(), 1.0);
    for (std::int64_t s = 0; s < seeds; ++s) {
      auto sim = CountSimulation::adversarial_start(weights, n);
      divpp::rng::Xoshiro256 gen(100 + static_cast<std::uint64_t>(s));
      sim.advance_with(Engine::kJump, tau, gen);
      double worst_phi = 0.0;
      double worst_psi = 0.0;
      const std::int64_t probe = std::max<std::int64_t>(n / 4, 64);
      while (sim.time() < tau + window) {
        sim.advance_with(Engine::kJump, sim.time() + probe, gen);
        worst_phi = std::max(worst_phi, divpp::analysis::evaluate_potential(
                                            sim, PotentialKind::kPhi));
        worst_psi = std::max(worst_psi, divpp::analysis::evaluate_potential(
                                            sim, PotentialKind::kPsi));
      }
      phi_sup.add(worst_phi / envelope);
      psi_sup.add(worst_psi / envelope);
    }
    table.begin_row()
        .add_cell(n)
        .add_cell(phi_sup.mean(), 3)
        .add_cell(psi_sup.mean(), 3)
        .add_cell(window);
  }
  std::cout << "Post-convergence persistence (window = " << window_mult
            << "·n·log n after tau = 3·W²·n·log n):\n"
            << table.to_text()
            << "Expected shape: both normalised sup columns O(1), not "
               "growing with n.\n";
  return 0;
}
