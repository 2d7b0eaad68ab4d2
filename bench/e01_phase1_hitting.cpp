// E1 — Phase 1 hitting time (Theorem 2.5).
//
// Claim: from an arbitrary (worst-case) start the process enters the
// equilibrium region E(δ) within τ₁ = O(W²·n·log n) steps.  We measure
// the first entry time from the adversarial start (one dark agent per
// minority colour) and print τ₁/(n log n) across n — the column should
// stay roughly flat — and τ₁/(W² n log n) across W — the growth in W
// should be at most quadratic.
//
// Flags: --ns=<list> --seeds=<count> --delta=0.25
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

double measure_tau1(const WeightMap& weights, std::int64_t n, double delta,
                    divpp::rng::Xoshiro256& gen,
                    divpp::core::Engine engine) {
  auto sim = CountSimulation::adversarial_start(weights, n);
  const auto horizon = static_cast<std::int64_t>(
      50.0 * divpp::core::convergence_time_scale(n, weights.total()));
  const std::int64_t check = std::max<std::int64_t>(n / 8, 64);
  const std::int64_t tau = divpp::analysis::time_to_equilibrium_region(
      sim, delta, horizon, check, gen, engine);
  return tau < 0 ? std::nan("") : static_cast<double>(tau);
}

}  // namespace

int main(int argc, char** argv) {
  const divpp::io::Args args(argc, argv);
  const auto ns = args.get_int_list("ns", {1024, 4096, 16384, 65536});
  const std::int64_t seeds = args.get_int("seeds", 3);
  const double delta = args.get_double("delta", 0.25);
  const std::int64_t wn = args.get_int("wn", 16384);
  const divpp::core::Engine engine =
      divpp::core::parse_engine(args.get_string("engine", "jump"));
  divpp::runtime::BatchRunner runner(
      static_cast<int>(args.get_int("threads", 0)));
  args.reject_unknown();
  double wall_n_sweep = 0.0;
  double wall_w_sweep = 0.0;

  std::cout << divpp::io::banner(
      "E1: Phase-1 hitting time of E(delta)  [Theorem 2.5]");

  {
    const WeightMap weights({1.0, 2.0, 4.0});  // W = 7, fixed
    std::cout << "Sweep over n (weights " << weights.to_string()
              << ", delta = " << delta << "):\n";
    divpp::io::Table table({"n", "tau1 (mean)", "tau1/(n log n)",
                            "tau1/(W^2 n log n)"});
    for (const std::int64_t n : ns) {
      const auto batch = runner.run_stats(
          seeds, 17, [&](std::int64_t, divpp::rng::Xoshiro256& gen) {
            return measure_tau1(weights, n, delta, gen, engine);
          });
      const divpp::stats::OnlineStats& acc = batch.stats;
      wall_n_sweep += batch.timing.wall_seconds;
      const double nlogn =
          static_cast<double>(n) * std::log(static_cast<double>(n));
      table.begin_row()
          .add_cell(n)
          .add_cell(acc.mean(), 4)
          .add_cell(acc.mean() / nlogn, 3)
          .add_cell(acc.mean() /
                        divpp::core::convergence_time_scale(n,
                                                            weights.total()),
                    3);
    }
    std::cout << table.to_text()
              << "Expected shape: tau1/(n log n) roughly flat in n.\n\n";
  }

  {
    const std::int64_t n = wn;
    std::cout << "Sweep over total weight W (n = " << n
              << ", k = 2, delta = " << delta << "):\n";
    divpp::io::Table table({"weights", "W", "tau1 (mean)",
                            "tau1/(n log n)", "tau1/(W^2 n log n)"});
    for (const double w : {1.0, 2.0, 4.0, 8.0}) {
      const WeightMap weights({w, w});
      const auto batch = runner.run_stats(
          seeds, 41, [&](std::int64_t, divpp::rng::Xoshiro256& gen) {
            return measure_tau1(weights, n, delta, gen, engine);
          });
      const divpp::stats::OnlineStats& acc = batch.stats;
      wall_w_sweep += batch.timing.wall_seconds;
      const double nlogn =
          static_cast<double>(n) * std::log(static_cast<double>(n));
      table.begin_row()
          .add_cell(weights.to_string())
          .add_cell(weights.total(), 3)
          .add_cell(acc.mean(), 4)
          .add_cell(acc.mean() / nlogn, 3)
          .add_cell(acc.mean() /
                        divpp::core::convergence_time_scale(n,
                                                            weights.total()),
                    3);
    }
    std::cout << table.to_text()
              << "Expected shape: tau1/(W^2 n log n) flat or shrinking — "
                 "the W^2 factor is an upper bound.\n";
  }

  std::cout << "\n"
            << divpp::io::Json()
                   .set("bench", "e01_phase1_hitting")
                   .set("engine", divpp::core::engine_name(engine))
                   .set("threads", runner.threads())
                   .set("seeds", seeds)
                   .set("wall_seconds_n_sweep", wall_n_sweep)
                   .set("wall_seconds_w_sweep", wall_w_sweep)
                   .to_string()
            << "\n";
  return 0;
}
