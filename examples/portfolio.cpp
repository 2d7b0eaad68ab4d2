// portfolio — diversification in the financial sense, plus fairness.
//
// n independent fund managers each hold one asset class.  The colony-
// style Diversification protocol keeps the *aggregate* portfolio at the
// target allocation (weights = target percentages) although every
// manager only ever observes one uniformly random peer at a time.
//
// The example also demonstrates the fairness property (Definition
// 1.1(2)) on the agent-based engine: over a long horizon every single
// manager holds each asset class for a fraction of time proportional to
// its weight — useful when "holding an asset" carries per-manager costs
// that should be shared fairly.
//
// Usage: portfolio [--n=600] [--horizon-factor=300] [--seed=3]

#include <iostream>

#include "analysis/fairness.h"
#include "core/diversification.h"
#include "core/population.h"
#include "graph/topologies.h"
#include "io/args.h"
#include "io/table.h"
#include "rng/xoshiro.h"

int main(int argc, char** argv) {
  const divpp::io::Args args(argc, argv);
  const std::int64_t n = args.get_int("n", 600);
  const std::int64_t horizon_factor = args.get_int("horizon-factor", 3000);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 3));
  args.reject_unknown();

  const char* kAssets[] = {"bonds", "equities", "real estate", "gold"};
  // Target allocation 40/30/20/10 — weights 4/3/2/1.
  const divpp::core::WeightMap weights({4.0, 3.0, 2.0, 1.0});

  std::cout << "Portfolio diversification with per-manager fairness\n"
            << "n = " << n << " managers, target allocation "
            << "{40%, 30%, 20%, 10%}\n\n";

  const divpp::graph::CompleteGraph market(n);
  // Everyone starts in bonds except one seed manager per other class.
  std::vector<std::int64_t> supports(4, 1);
  supports[0] = n - 3;
  auto pop = divpp::core::make_population(
      market, supports, divpp::core::DiversificationRule(weights));
  divpp::rng::Xoshiro256 gen(seed);

  // Converge, then account fairness over a long window.
  pop.run(60 * n, gen);
  divpp::analysis::FairnessTracker fairness(pop.states(), 4, pop.time());
  const std::int64_t horizon = pop.time() + horizon_factor * n;
  pop.run_observed(horizon - pop.time(), gen,
                   [&](const divpp::core::StepEvent<divpp::core::AgentState>&
                           event) { fairness.observe(event); });
  fairness.finalize(pop.time());

  const auto counts = divpp::core::tally(pop.states(), 4);
  const auto final_supports = counts.supports();
  divpp::io::Table table({"asset", "target", "final share",
                          "mean time share", "manager#0 time share"});
  for (divpp::core::ColorId i = 0; i < 4; ++i) {
    table.begin_row()
        .add_cell(kAssets[i])
        .add_cell(weights.fair_share(i), 3)
        .add_cell(static_cast<double>(
                      final_supports[static_cast<std::size_t>(i)]) /
                      static_cast<double>(n),
                  3)
        .add_cell(fairness.mean_occupancy(i), 3)
        .add_cell(fairness.occupancy_fraction(0, i), 3);
  }
  std::cout << table.to_text() << "\n";
  std::cout << "Worst manager's relative deviation from the target time "
               "shares: "
            << divpp::io::format_double(
                   fairness.worst_relative_error(weights), 3)
            << " (shrinks as the horizon grows — fairness, Defn 1.1(2))\n";
  return 0;
}
