// E9 — The derandomised protocol (paper §1.2 "Derandomisation"; its
// analysis is §3 future work).
//
// Claim (empirical): replacing the 1/w_i coin with 1+w_i integer shades
// preserves the equilibrium (fair shares) at a comparable convergence
// rate.  We run both variants from identical starts and compare the time
// to reach a small diversity error and the final shares.
//
// Flags: --ns=1024,4096,16384 --seeds=3

#include <cmath>
#include <iostream>
#include <vector>

#include "core/diversification.h"
#include "core/equilibrium.h"
#include "core/population.h"
#include "graph/topologies.h"
#include "io/args.h"
#include "io/table.h"
#include "rng/xoshiro.h"
#include "stats/online_stats.h"
#include "stats/potentials.h"

namespace {

using divpp::core::AgentState;
using divpp::core::WeightMap;
using divpp::rng::Xoshiro256;

/// Runs one population until the diversity error drops below the target
/// or the cap is reached; returns steps (or -1) and writes final shares.
template <typename Rule>
std::int64_t time_to_diversity(const divpp::graph::CompleteGraph& graph,
                               const std::vector<std::int64_t>& supports,
                               Rule rule, const WeightMap& weights,
                               double target, std::int64_t cap,
                               Xoshiro256& gen,
                               std::vector<double>* final_shares) {
  auto pop = divpp::core::make_population(graph, supports, std::move(rule));
  std::int64_t hit = -1;
  const std::int64_t check = std::max<std::int64_t>(graph.num_nodes() / 4, 64);
  while (pop.time() < cap) {
    pop.run(check, gen);
    const auto counts = divpp::core::tally(
        pop.states(), weights.num_colors());
    const auto sup = counts.supports();
    if (divpp::stats::diversity_error(sup, weights.weights()) <= target) {
      hit = pop.time();
      break;
    }
  }
  // Read the equilibrium shares after an extra settling period (time-
  // averaged over several probes), not at the first-hit instant.
  const std::int64_t settle = 20 * graph.num_nodes();
  std::vector<double> mean_shares(
      static_cast<std::size_t>(weights.num_colors()), 0.0);
  constexpr int kProbes = 16;
  for (int probe = 0; probe < kProbes; ++probe) {
    pop.run(settle / kProbes, gen);
    const auto counts =
        divpp::core::tally(pop.states(), weights.num_colors()).supports();
    for (std::size_t i = 0; i < mean_shares.size(); ++i)
      mean_shares[i] += static_cast<double>(counts[i]) /
                        static_cast<double>(graph.num_nodes()) / kProbes;
  }
  *final_shares = std::move(mean_shares);
  return hit;
}

}  // namespace

int main(int argc, char** argv) {
  const divpp::io::Args args(argc, argv);
  const auto ns = args.get_int_list("ns", {1024, 4096, 16384});
  const std::int64_t seeds = args.get_int("seeds", 3);
  args.reject_unknown();
  const WeightMap weights({1.0, 3.0});  // integral: both variants apply

  std::cout << divpp::io::banner(
      "E9: randomized vs derandomised Diversification  [§1.2, §3]");
  std::cout << "weights " << weights.to_string()
            << "; convergence = first time diversity error <= "
               "4*sqrt(log n / n); identical worst-case starts\n\n";

  divpp::io::Table table({"n", "randomized: steps/(n log n)",
                          "derandomised: steps/(n log n)",
                          "randomized share c1", "derandomised share c1"});
  for (const std::int64_t n : ns) {
    const divpp::graph::CompleteGraph graph(n);
    std::vector<std::int64_t> supports = {n - 1, 1};
    const double target = 4.0 * divpp::core::diversity_error_scale(n);
    const auto cap = static_cast<std::int64_t>(
        60.0 * divpp::core::convergence_time_scale(n, weights.total()));
    const double nlogn =
        static_cast<double>(n) * std::log(static_cast<double>(n));

    divpp::stats::OnlineStats rand_time;
    divpp::stats::OnlineStats derand_time;
    divpp::stats::OnlineStats rand_share;
    divpp::stats::OnlineStats derand_share;
    for (std::int64_t s = 0; s < seeds; ++s) {
      Xoshiro256 gen_a(61 + static_cast<std::uint64_t>(s));
      std::vector<double> shares;
      const std::int64_t t_rand = time_to_diversity(
          graph, supports, divpp::core::DiversificationRule(weights),
          weights, target, cap, gen_a, &shares);
      if (t_rand >= 0) rand_time.add(static_cast<double>(t_rand) / nlogn);
      rand_share.add(shares[1]);

      Xoshiro256 gen_b(81 + static_cast<std::uint64_t>(s));
      const std::int64_t t_der = time_to_diversity(
          graph, supports, divpp::core::DerandomisedRule(weights), weights,
          target, cap, gen_b, &shares);
      if (t_der >= 0) derand_time.add(static_cast<double>(t_der) / nlogn);
      derand_share.add(shares[1]);
    }
    table.begin_row()
        .add_cell(n)
        .add_cell(rand_time.mean(), 3)
        .add_cell(derand_time.mean(), 3)
        .add_cell(rand_share.mean(), 3)
        .add_cell(derand_share.mean(), 3);
  }
  std::cout << table.to_text()
            << "Expected shape: both variants converge at the same "
               "O(n log n) scale and land on the fair share 0.75 for "
               "colour 1 — the derandomisation preserves the equilibrium "
               "(open problem §3, answered empirically).\n";
  return 0;
}
