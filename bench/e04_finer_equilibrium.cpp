// E4 — The finer equilibrium of Phase 3 (Theorem 2.13).
//
// Claim: after τ = O(W² n log n) the *shade-resolved* counts satisfy
//   |A_i(t) − w_i·n/(1+W)|       <= C n^{3/4} (log n)^{1/4}
//   |a_i(t) − (w_i/W)·n/(1+W)|   <= C n^{3/4} (log n)^{1/4}
// for a long window.  We record the windowed supremum of both deviations
// normalised by n^{3/4}(log n)^{1/4}: the column should stay O(1) in n.
//
// Flags: --ns=<list> --seeds=<count> --window-mult=20

#include <algorithm>
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

namespace {

using divpp::core::CountSimulation;
using divpp::core::Equilibrium;
using divpp::core::WeightMap;

/// Windowed sup of the Theorem 2.13 deviations, normalised by the
/// n^{3/4}(log n)^{1/4} envelope.  Returns {dark_sup, light_sup}.
std::pair<double, double> windowed_sup(const WeightMap& weights,
                                       std::int64_t n, std::int64_t window,
                                       std::uint64_t seed) {
  auto sim = CountSimulation::adversarial_start(weights, n);
  divpp::rng::Xoshiro256 gen(seed);
  const auto tau = static_cast<std::int64_t>(
      3.0 * divpp::core::convergence_time_scale(n, weights.total()));
  sim.advance_to(tau, gen);
  const Equilibrium eq = divpp::core::equilibrium_shares(weights);
  const double envelope = divpp::core::theorem213_envelope(n, 1.0);
  const double dn = static_cast<double>(n);
  double dark_sup = 0.0;
  double light_sup = 0.0;
  const std::int64_t probe = std::max<std::int64_t>(n / 4, 64);
  while (sim.time() < tau + window) {
    sim.advance_to(sim.time() + probe, gen);
    for (divpp::core::ColorId i = 0; i < sim.num_colors(); ++i) {
      const auto idx = static_cast<std::size_t>(i);
      dark_sup = std::max(
          dark_sup, std::abs(static_cast<double>(sim.dark(i)) -
                             eq.dark_share[idx] * dn) /
                        envelope);
      light_sup = std::max(
          light_sup, std::abs(static_cast<double>(sim.light(i)) -
                              eq.light_share[idx] * dn) /
                         envelope);
    }
  }
  return {dark_sup, light_sup};
}

}  // namespace

int main(int argc, char** argv) {
  const divpp::io::Args args(argc, argv);
  const auto ns = args.get_int_list("ns", {4096, 16384, 65536, 262144});
  const std::int64_t seeds = args.get_int("seeds", 3);
  const std::int64_t window_mult = args.get_int("window-mult", 20);
  args.reject_unknown();
  const WeightMap weights({1.0, 3.0});  // W = 4

  std::cout << divpp::io::banner(
      "E4: finer (shade-resolved) equilibrium  [Theorem 2.13]");
  std::cout << "weights " << weights.to_string()
            << "; sup over a window of " << window_mult
            << "*n*log n steps, normalised by n^(3/4) (log n)^(1/4)\n\n";

  divpp::io::Table table(
      {"n", "sup dark dev (norm)", "sup light dev (norm)"});
  for (const std::int64_t n : ns) {
    divpp::stats::OnlineStats dark_acc;
    divpp::stats::OnlineStats light_acc;
    const auto window = static_cast<std::int64_t>(
        static_cast<double>(window_mult) * static_cast<double>(n) *
        std::log(static_cast<double>(n)));
    for (std::int64_t s = 0; s < seeds; ++s) {
      const auto [dark_sup, light_sup] =
          windowed_sup(weights, n, window, 23 + static_cast<std::uint64_t>(s));
      dark_acc.add(dark_sup);
      light_acc.add(light_sup);
    }
    table.begin_row()
        .add_cell(n)
        .add_cell(dark_acc.mean(), 3)
        .add_cell(light_acc.mean(), 3);
  }
  std::cout << table.to_text()
            << "Expected shape: both normalised sup columns O(1) across a "
               "64x growth in n — the n^(3/4)(log n)^(1/4) envelope of "
               "Theorem 2.13 holds.\n";
  return 0;
}
