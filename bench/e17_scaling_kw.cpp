// E17 — k and W growing with n (paper §3 open problem).
//
// The paper's analysis fixes k and W as constants and asks, as future
// work, what happens when they grow with n.  Empirically we measure the
// time to enter E(δ):
//  (a) k = Θ(n^γ) equal-weight colours for γ ∈ {0, 1/4, 1/2} — does the
//      n·log n scaling survive a polynomial number of colours?
//  (b) two colours with W = Θ(n^γ) — how does the W-dependence behave
//      when the weights are no longer constant?
//
// This sweep is the large-k workload the Fenwick samplers (PR 2) exist
// for: with k ~ sqrt(n) the per-transition cost is O(log k), not O(k).
//
// Flags: --ns=4096,16384,65536 --seeds=3 --delta=0.3
//        --engine=jump   (step | jump | batch | auto; all sample the
//                         same law — batch is the fast choice at large
//                         n, auto picks jump/batch per window)
//        --threads=0 (0 = all hardware threads)
//
// Seed replicas run in parallel under BatchRunner: replica s draws from
// the jump()-offset stream s of the sweep's base seed, so the printed
// statistics are identical at any thread count.  The final line is a
// machine-readable JSON timing summary.

#include <cmath>
#include <iostream>
#include <vector>

#include "analysis/convergence.h"
#include "core/count_simulation.h"
#include "core/equilibrium.h"
#include "core/weights.h"
#include "io/args.h"
#include "io/json.h"
#include "io/table.h"
#include "rng/xoshiro.h"
#include "runtime/batch_runner.h"
#include "stats/online_stats.h"

namespace {

using divpp::core::CountSimulation;
using divpp::core::WeightMap;

double measure_tau(const WeightMap& weights, std::int64_t n, double delta,
                   divpp::rng::Xoshiro256& gen, double cap_scale,
                   divpp::core::Engine engine) {
  auto sim = CountSimulation::adversarial_start(weights, n);
  const auto horizon = static_cast<std::int64_t>(cap_scale);
  const std::int64_t tau = divpp::analysis::time_to_equilibrium_region(
      sim, delta, horizon, std::max<std::int64_t>(n / 8, 64), gen, engine);
  return tau < 0 ? std::nan("") : static_cast<double>(tau);
}

}  // namespace

int main(int argc, char** argv) {
  const divpp::io::Args args(argc, argv);
  const auto ns = args.get_int_list("ns", {4096, 16384, 65536});
  const std::int64_t seeds = args.get_int("seeds", 3);
  const double delta = args.get_double("delta", 0.3);
  const divpp::core::Engine engine =
      divpp::core::parse_engine(args.get_string("engine", "jump"));
  divpp::runtime::BatchRunner runner(
      static_cast<int>(args.get_int("threads", 0)));
  args.reject_unknown();
  double wall_k_sweep = 0.0;
  double wall_w_sweep = 0.0;

  std::cout << divpp::io::banner(
      "E17: k and W growing with n  [§3 open problem, empirical]");

  // (a) k = n^gamma equal colours (W = k).
  std::cout << "(a) k = n^gamma equal-weight colours (adversarial start, "
               "delta = "
            << delta << "):\n";
  divpp::io::Table ktable({"n", "gamma", "k", "tau (mean)",
                           "tau/(n log n)", "tau/(k^2 n log n)"});
  for (const std::int64_t n : ns) {
    for (const double gamma : {0.0, 0.25, 0.5}) {
      const auto k = std::max<std::int64_t>(
          2, static_cast<std::int64_t>(
                 std::llround(std::pow(static_cast<double>(n), gamma))));
      if (n < 4 * k) continue;  // keep the adversarial start meaningful
      const WeightMap weights(
          std::vector<double>(static_cast<std::size_t>(k), 1.0));
      const double nlogn =
          static_cast<double>(n) * std::log(static_cast<double>(n));
      const double cap =
          200.0 * static_cast<double>(k) * nlogn;  // generous budget
      const auto batch = runner.run_stats(
          seeds, 400, [&](std::int64_t, divpp::rng::Xoshiro256& gen) {
            return measure_tau(weights, n, delta, gen, cap, engine);
          });
      const divpp::stats::OnlineStats& acc = batch.stats;
      wall_k_sweep += batch.timing.wall_seconds;
      ktable.begin_row()
          .add_cell(n)
          .add_cell(gamma, 2)
          .add_cell(k)
          .add_cell(acc.mean(), 4)
          .add_cell(acc.mean() / nlogn, 3)
          .add_cell(acc.mean() /
                        (static_cast<double>(k) * static_cast<double>(k) *
                         nlogn),
                    4);
    }
  }
  std::cout << ktable.to_text()
            << "Reading: with k ~ n^(1/2) the normalised time grows — the "
               "constant-k assumption is load-bearing; the k² envelope "
               "stays comfortably above every row.\n\n";

  // (b) W = n^gamma on two colours.
  std::cout << "(b) two colours, weights {1, n^gamma} (W grows with n):\n";
  divpp::io::Table wtable({"n", "gamma", "W", "tau (mean)",
                           "tau/(n log n)", "tau/(W^2 n log n)"});
  for (const std::int64_t n : ns) {
    for (const double gamma : {0.0, 0.25, 0.5}) {
      const double heavy =
          std::max(1.0, std::pow(static_cast<double>(n), gamma));
      const WeightMap weights({1.0, heavy});
      const double nlogn =
          static_cast<double>(n) * std::log(static_cast<double>(n));
      const double cap = 200.0 * weights.total() * nlogn;
      const auto batch = runner.run_stats(
          seeds, 500, [&](std::int64_t, divpp::rng::Xoshiro256& gen) {
            return measure_tau(weights, n, delta, gen, cap, engine);
          });
      const divpp::stats::OnlineStats& acc = batch.stats;
      wall_w_sweep += batch.timing.wall_seconds;
      wtable.begin_row()
          .add_cell(n)
          .add_cell(gamma, 2)
          .add_cell(weights.total(), 4)
          .add_cell(acc.mean(), 4)
          .add_cell(acc.mean() / nlogn, 3)
          .add_cell(acc.mean() /
                        (weights.total() * weights.total() * nlogn),
                    4);
    }
  }
  std::cout << wtable.to_text()
            << "Reading: the measured W-dependence is far milder than the "
               "theorem's W² envelope (last column shrinks), suggesting "
               "room in the paper's W-dependence — consistent with its "
               "note that the W terms were not optimised.\n";

  std::cout << "\n"
            << divpp::io::Json()
                   .set("bench", "e17_scaling_kw")
                   .set("engine", divpp::core::engine_name(engine))
                   .set("threads", runner.threads())
                   .set("seeds", seeds)
                   .set("delta", delta)
                   .set("wall_seconds_k_sweep", wall_k_sweep)
                   .set("wall_seconds_w_sweep", wall_w_sweep)
                   .to_string()
            << "\n";
  return 0;
}
