// E19 — Between consensus and diversification (paper §3 question).
//
// Sweeps the BlendRule's epsilon (probability of a Voter move) from 0 to
// 1 and measures, at a fixed horizon: how many colours survive, the
// diversity error among survivors, and the first colour-death time.
// Expected picture: epsilon = 0 keeps all colours forever (the paper's
// protocol); *any* epsilon > 0 eventually kills colours (sustainability
// is knife-edge), but small epsilon still shows the diversification
// drift among the survivors for a long transient — consensus and
// diversity are the endpoints of a continuum of metastable mixtures.
//
// Flags: --n=1024 --k=8 --horizon-mult=600 --seeds=3

#include <cmath>
#include <iostream>
#include <vector>

#include "analysis/sustainability.h"
#include "core/population.h"
#include "core/weights.h"
#include "graph/topologies.h"
#include "io/args.h"
#include "io/table.h"
#include "protocols/interpolated.h"
#include "protocols/opinion.h"
#include "rng/xoshiro.h"
#include "stats/online_stats.h"
#include "stats/potentials.h"

int main(int argc, char** argv) {
  const divpp::io::Args args(argc, argv);
  const std::int64_t n = args.get_int("n", 1024);
  const std::int64_t k = args.get_int("k", 8);
  const std::int64_t horizon_mult = args.get_int("horizon-mult", 600);
  const std::int64_t seeds = args.get_int("seeds", 3);
  args.reject_unknown();
  const divpp::core::WeightMap weights =
      divpp::core::WeightMap::uniform(k);

  std::cout << divpp::io::banner(
      "E19: between consensus and diversification  [§3 question]");
  std::cout << "n = " << n << ", k = " << k
            << " equal colours, horizon " << horizon_mult
            << "*n steps; epsilon = probability of a Voter move\n\n";

  divpp::io::Table table({"epsilon", "survivors (mean)",
                          "first death at (mean, xn)",
                          "diversity error of survivors", "regime"});
  const divpp::graph::CompleteGraph graph(n);
  std::vector<std::int64_t> supports(static_cast<std::size_t>(k), n / k);
  supports[0] += n - k * (n / k);

  for (const double epsilon :
       {0.0, 0.001, 0.005, 0.02, 0.1, 0.5, 1.0}) {
    divpp::stats::OnlineStats survivors;
    divpp::stats::OnlineStats first_death;
    divpp::stats::OnlineStats err;
    for (std::int64_t s = 0; s < seeds; ++s) {
      divpp::core::Population<divpp::core::AgentState,
                              divpp::protocols::BlendRule>
          pop(graph, divpp::protocols::opinion_initial(supports),
              divpp::protocols::BlendRule(weights, epsilon));
      divpp::rng::Xoshiro256 gen(900 + static_cast<std::uint64_t>(s));
      divpp::analysis::SustainabilityMonitor monitor(k);
      while (pop.time() < horizon_mult * n) {
        pop.run(n, gen);
        monitor.observe(
            divpp::core::tally(pop.states(), k).supports(), pop.time());
      }
      const auto counts = divpp::core::tally(pop.states(), k).supports();
      std::int64_t alive = 0;
      std::vector<std::int64_t> alive_counts;
      std::vector<double> alive_weights;
      for (std::int64_t c = 0; c < k; ++c) {
        if (counts[static_cast<std::size_t>(c)] > 0) {
          ++alive;
          alive_counts.push_back(counts[static_cast<std::size_t>(c)]);
          alive_weights.push_back(1.0);
        }
      }
      survivors.add(static_cast<double>(alive));
      std::int64_t death = -1;
      for (std::int64_t c = 0; c < k; ++c) {
        const std::int64_t d = monitor.death_time(c);
        if (d >= 0 && (death < 0 || d < death)) death = d;
      }
      if (death >= 0)
        first_death.add(static_cast<double>(death) /
                        static_cast<double>(n));
      if (alive >= 2) {
        err.add(divpp::stats::diversity_error(alive_counts, alive_weights));
      }
    }
    const char* regime = epsilon == 0.0           ? "diverse (sustained)"
                         : survivors.mean() > 2.0 ? "metastable mixture"
                         : survivors.mean() > 1.0 ? "near-consensus"
                                                  : "consensus";
    table.begin_row()
        .add_cell(epsilon, 4)
        .add_cell(survivors.mean(), 3)
        .add_cell(first_death.count() == 0
                      ? std::string("never (in horizon)")
                      : divpp::io::format_double(first_death.mean(), 4) +
                            " (" + std::to_string(first_death.count()) +
                            "/" + std::to_string(seeds) + " seeds)")
        .add_cell(err.count() > 0 ? divpp::io::format_double(err.mean(), 3)
                                  : std::string("—"))
        .add_cell(regime);
  }
  std::cout << table.to_text()
            << "\nReading: epsilon = 0 never loses a colour (the paper's "
               "sustainability); any epsilon > 0 loses colours in finite "
               "time (the property is knife-edge), with the death time "
               "exploding as epsilon -> 0; surviving colours still sit "
               "near their mutual fair shares for small epsilon — a "
               "metastable middle ground between the two regimes.\n";
  return 0;
}
