// E18 — Towards stronger diversity (paper §3 open problem).
//
// The paper asks for protocols whose instantaneous deviation from the
// fair share beats Õ(1/√n).  A cheap observation the bench quantifies:
// the *time-averaged* support (a quantity any observer of the system can
// maintain) concentrates strictly better than the instantaneous support,
// because the equilibrium fluctuations mix on the Θ((1+W)n) time-scale
// and average out.  We report instantaneous vs window-averaged deviation
// (both scaled by √(n/log n)) and the measured integrated
// autocorrelation time of the support observable, which quantifies how
// fast averaging pays off.
//
// Flags: --ns=4096,16384,65536 --seeds=3 --window-mults=1,8,64

#include <cmath>
#include <iostream>
#include <vector>

#include "core/count_simulation.h"
#include "core/equilibrium.h"
#include "core/weights.h"
#include "io/args.h"
#include "io/table.h"
#include "rng/xoshiro.h"
#include "stats/autocorrelation.h"
#include "stats/online_stats.h"

int main(int argc, char** argv) {
  const divpp::io::Args args(argc, argv);
  const auto ns = args.get_int_list("ns", {4096, 16384, 65536});
  const std::int64_t seeds = args.get_int("seeds", 3);
  const auto window_mults = args.get_int_list("window-mults", {1, 8, 64});
  args.reject_unknown();
  if (window_mults.size() != 3)
    throw std::invalid_argument(
        "e18: --window-mults must list exactly three window lengths");
  const divpp::core::WeightMap weights({1.0, 3.0});

  std::cout << divpp::io::banner(
      "E18: time-averaged supports beat instantaneous diversity  "
      "[§3 open problem]");
  std::cout << "weights " << weights.to_string()
            << "; deviation of colour 1's share from 0.75, scaled by "
               "sqrt(n/log n); samples every n steps\n\n";

  divpp::io::Table table({"n", "IAT (samples)", "instantaneous",
                          "avg over 8n", "avg over 64n",
                          "gain (inst/avg64)"});
  for (const std::int64_t n : ns) {
    divpp::stats::OnlineStats inst_dev;
    std::vector<divpp::stats::OnlineStats> avg_dev(window_mults.size());
    divpp::stats::OnlineStats iat_acc;
    const double fair = weights.fair_share(1);
    const double scale = 1.0 / divpp::core::diversity_error_scale(n);
    for (std::int64_t s = 0; s < seeds; ++s) {
      auto sim =
          divpp::core::CountSimulation::proportional_start(weights, n);
      divpp::rng::Xoshiro256 gen(800 + static_cast<std::uint64_t>(s));
      const auto settle = static_cast<std::int64_t>(
          3.0 * divpp::core::convergence_time_scale(n, weights.total()));
      sim.advance_to(settle, gen);
      // Collect a long share series sampled every n steps.
      constexpr std::int64_t kSamples = 512;
      std::vector<double> series;
      series.reserve(kSamples);
      for (std::int64_t i = 0; i < kSamples; ++i) {
        sim.advance_to(sim.time() + n, gen);
        series.push_back(static_cast<double>(sim.support(1)) /
                         static_cast<double>(n));
      }
      iat_acc.add(
          divpp::stats::integrated_autocorrelation_time(series, 128));
      // Instantaneous deviation: RMS of |share − fair|.
      double inst = 0.0;
      for (const double x : series) inst += (x - fair) * (x - fair);
      inst_dev.add(std::sqrt(inst / static_cast<double>(series.size())));
      // Window-averaged deviations.
      for (std::size_t w = 0; w < window_mults.size(); ++w) {
        const auto len = static_cast<std::size_t>(window_mults[w]);
        double dev = 0.0;
        std::int64_t count = 0;
        for (std::size_t start = 0; start + len <= series.size();
             start += len) {
          double mean = 0.0;
          for (std::size_t i = start; i < start + len; ++i)
            mean += series[i];
          mean /= static_cast<double>(len);
          dev += (mean - fair) * (mean - fair);
          ++count;
        }
        avg_dev[w].add(std::sqrt(dev / static_cast<double>(count)));
      }
    }
    table.begin_row()
        .add_cell(n)
        .add_cell(iat_acc.mean(), 3)
        .add_cell(inst_dev.mean() * scale, 3)
        .add_cell(avg_dev[1].mean() * scale, 3)
        .add_cell(avg_dev[2].mean() * scale, 3)
        .add_cell(inst_dev.mean() / avg_dev[2].mean(), 3);
  }
  std::cout << table.to_text()
            << "Reading: instantaneous deviation sits at the Õ(1/sqrt(n)) "
               "scale (flat scaled column), while 64n-window averages cut "
               "it by a factor ≈ sqrt(window/IAT) — an observer can beat "
               "the paper's diversity error without changing the "
               "protocol; a protocol achieving this *instantaneously* "
               "remains open.\n";
  return 0;
}
