// ant_colony — the paper's motivating scenario: task allocation in ants.
//
// A colony of n ants divides itself between four tasks with different
// importance (foraging is weighted highest).  The environment then
// interferes twice, exactly as the paper's introduction narrates:
//
//   1. "too many foragers fell victim to other ant colonies" — 80% of
//      the foragers are wiped out (their agents defect to brood care);
//   2. "an ant notices that the nest temperature is too hot and starts
//      fanning" — a brand-new task (fanning) appears with one dark ant.
//
// After each shock the Diversification protocol re-balances the colony
// towards the fair shares without any ant knowing the global state, and
// no task ever loses its last confident (dark) worker.
//
// Usage: ant_colony [--n=4000] [--seed=7]

#include <iostream>

#include "adversary/events.h"
#include "analysis/sustainability.h"
#include "core/count_simulation.h"
#include "core/weights.h"
#include "io/args.h"
#include "io/table.h"
#include "rng/xoshiro.h"

namespace {

const char* kTaskNames[] = {"foraging", "brood care", "nest repair",
                            "patrolling", "fanning"};

void print_snapshot(const divpp::core::CountSimulation& sim,
                    const std::string& label) {
  divpp::io::Table table({"task", "weight", "ants", "share", "fair share",
                          "dark (confident)"});
  for (divpp::core::ColorId i = 0; i < sim.num_colors(); ++i) {
    table.begin_row()
        .add_cell(kTaskNames[i])
        .add_cell(sim.weights().weight(i), 3)
        .add_cell(sim.support(i))
        .add_cell(static_cast<double>(sim.support(i)) /
                      static_cast<double>(sim.n()),
                  3)
        .add_cell(sim.weights().fair_share(i), 3)
        .add_cell(sim.dark(i));
  }
  std::cout << "--- " << label << " (t = " << sim.time()
            << ", colony size " << sim.n() << ") ---\n"
            << table.to_text() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const divpp::io::Args args(argc, argv);
  const std::int64_t n = args.get_int("n", 4000);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  args.reject_unknown();

  // Foraging matters most, patrolling least.
  const divpp::core::WeightMap weights({4.0, 2.0, 2.0, 1.0});
  auto sim = divpp::core::CountSimulation::equal_start(weights, n);
  divpp::rng::Xoshiro256 gen(seed);
  divpp::analysis::SustainabilityMonitor monitor(4);

  std::cout << "Ant-colony task allocation with the Diversification "
               "protocol\n\n";
  print_snapshot(sim, "initial colony (equal split, all confident)");

  // Let the colony organise itself.
  const std::int64_t settle = 40 * n;
  sim.advance_to(settle, gen);
  monitor.observe(sim.dark_counts(), sim.time());
  print_snapshot(sim, "after self-organisation");

  // Shock 1: most foragers are lost to a rival colony.
  divpp::adversary::apply_event(
      sim, divpp::adversary::PartialRecolor{0, 1, 0.8});
  print_snapshot(sim, "raid! 80% of foragers defected to brood care");
  sim.advance_to(sim.time() + 40 * n, gen);
  monitor.observe(sim.dark_counts(), sim.time());
  print_snapshot(sim, "recovered after the raid");

  // Shock 2: the nest overheats — fanning becomes a task (weight 2).
  divpp::adversary::apply_event(sim, divpp::adversary::AddColor{2.0, 1});
  std::cout << "*** nest too hot: one ant starts fanning (new task, "
               "weight 2) ***\n\n";
  // A brand-new colour starts from a single dark agent, so give it the
  // full O(W² n log n) budget to reach its fair share.
  sim.advance_to(sim.time() + 400 * n, gen);
  divpp::analysis::SustainabilityMonitor monitor5(5);
  monitor5.observe(sim.dark_counts(), sim.time());
  print_snapshot(sim, "colony re-balanced around five tasks");

  std::cout << "No task ever lost its last confident worker: "
            << (monitor.sustained() && monitor5.sustained() ? "true"
                                                            : "FALSE")
            << "\n";
  return 0;
}
