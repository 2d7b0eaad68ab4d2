// E5 — Fairness (Definition 1.1(2), Theorem 2.12) at batch speed (PR 5).
//
// Claim: over a horizon T, every agent holds colour i for a
// (w_i/W)(1 ± o(1)) fraction of time.  On the complete graph the agents
// are exchangeable, so one *tagged* agent's exact marginal
// (core::TaggedCountSimulation) IS the per-agent property — and since
// PR 5 the tagged chain runs under every lumped engine, so fairness
// trajectories are measured at count-simulation scale instead of the
// old n = 256 agent-based sweep.  Each seed replica tags one agent; the
// worst per-replica relative deviation must shrink as the horizon
// grows, and the mean occupancies must sit at the fair shares.
//
// Flags: --n=10000 --seeds=8 --horizon-mults=50,200,800,3200
//        --engine=auto        (step | jump | batch | auto)
//        --warmup-mult=60     (warm-up interactions = mult * n)
//        --threads=0          (0 = all hardware threads)
//
// Throughput-sweep mode (the PR 5 acceptance harness):
//        --throughput         measure tagged step/jump/batch/auto
//                             ns/interaction at each --ns entry
//                             (default 1e5,1e6,1e7,1e8; k equal colours
//                             via --k=8 --w=4, window via --window=0);
//                             the JSON summary is the last stdout line
//                             (BENCH_pr5.json in the repo root records
//                             the committed trajectory)
//        --smoke              CI guard: implies --throughput at
//                             n = 10⁶ only, exit non-zero unless
//                             tagged-batch ≥ 5× tagged-step
//
// Seed replicas are fanned across threads by BatchRunner; each replica
// tracks its own tagged simulation with its own jump()-offset stream,
// so the printed statistics do not depend on the thread count.  The
// final line is a machine-readable JSON summary.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/fairness.h"
#include "core/agent.h"
#include "core/count_simulation.h"
#include "core/weights.h"
#include "io/args.h"
#include "io/json.h"
#include "io/table.h"
#include "rng/xoshiro.h"
#include "runtime/batch_runner.h"
#include "stats/online_stats.h"

namespace {

using divpp::core::CountSimulation;
using divpp::core::Engine;
using divpp::core::TaggedCountSimulation;
using divpp::core::WeightMap;
using divpp::rng::Xoshiro256;

constexpr std::int64_t kMaxPopulation = 1'000'000'000;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct Throughput {
  double interactions_per_sec = 0.0;
  double ns_per_interaction = 0.0;
  double wall_seconds = 0.0;  ///< warmup + timed window (budgeting aid)
};

/// Warm one window with `engine`, then time `window` tagged interactions.
Throughput measure_tagged(const WeightMap& weights, std::int64_t n,
                          Engine engine, std::int64_t window,
                          std::uint64_t seed) {
  const auto wall0 = std::chrono::steady_clock::now();
  auto base = CountSimulation::equal_start(weights, n);
  TaggedCountSimulation sim(std::move(base), 0, /*tagged_dark=*/true);
  Xoshiro256 gen(seed);
  sim.advance_with(engine, std::min(window, n), gen);  // warm, untimed
  const std::int64_t start = sim.time();
  const auto t0 = std::chrono::steady_clock::now();
  sim.advance_with(engine, start + window, gen);
  const double elapsed = seconds_since(t0);
  Throughput out;
  out.ns_per_interaction = elapsed * 1e9 / static_cast<double>(window);
  out.interactions_per_sec = static_cast<double>(window) / elapsed;
  out.wall_seconds = seconds_since(wall0);
  return out;
}

/// Step/jump windows shrink at huge n so the sweep stays minutes (same
/// policy as e20); batch and auto always get the full window.
std::int64_t capped_window(std::int64_t window, Engine engine) {
  if (engine == Engine::kBatch || engine == Engine::kAuto) return window;
  const std::int64_t cap =
      engine == Engine::kStep ? 50'000'000 : 200'000'000;
  return std::min(window, cap);
}

/// The tagged engine throughput sweep behind --throughput / --smoke.
int run_sweep(const divpp::io::Args& args, bool smoke) {
  // --k first: equal_start needs n >= max(2, k), so the --ns range
  // check below depends on it.
  const std::int64_t k = args.get_int("k", 8);
  const auto ns =
      smoke ? std::vector<std::int64_t>{1'000'000}
            : args.get_int_list("ns",
                                {100'000, 1'000'000, 10'000'000, 100'000'000});
  for (const std::int64_t n : ns) {
    if (n < std::max<std::int64_t>(2, k) || n > kMaxPopulation) {
      std::cerr << "e05_fairness: --ns entries must be in [max(2, k), 1e9] "
                   "(got "
                << n << " at k = " << k
                << "); the cap is a wall-clock budget guard\n";
      return 1;
    }
  }
  const double w = args.get_double("w", 4.0);
  const std::int64_t window_flag = args.get_int("window", 0);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 99));
  args.reject_unknown();
  const WeightMap weights(
      std::vector<double>(static_cast<std::size_t>(k), w));

  std::cout << divpp::io::banner(
      "E5 sweep: tagged-engine throughput (fairness at batch speed)");
  std::cout << "k = " << k << " colours of weight " << w
            << " (W = " << weights.total()
            << "); joint (tagged, counts) chain, distributionally "
               "identical engines.\n\n";

  divpp::io::Table table({"n", "engine", "window", "ns/interaction",
                          "interactions/sec", "speedup vs step", "wall s"});
  divpp::io::Json out;
  out.set("bench", "e05_fairness_pr5");
  out.set("k", k);
  out.set("w", w);
  out.set("W", weights.total());
  out.set("seed", static_cast<std::int64_t>(seed));

  bool smoke_ok = true;
  for (const std::int64_t n : ns) {
    const std::int64_t window =
        window_flag > 0 ? window_flag
                        : std::max<std::int64_t>(4'000'000, 2 * n);
    double step_ips = 0.0;
    for (const Engine engine : {Engine::kStep, Engine::kJump, Engine::kBatch,
                                Engine::kAuto}) {
      const std::int64_t engine_window = capped_window(window, engine);
      const Throughput t =
          measure_tagged(weights, n, engine, engine_window, seed);
      if (engine == Engine::kStep) step_ips = t.interactions_per_sec;
      table.begin_row()
          .add_cell(n)
          .add_cell(divpp::core::engine_name(engine))
          .add_cell(engine_window)
          .add_cell(t.ns_per_interaction, 3)
          .add_cell(t.interactions_per_sec, 0)
          .add_cell(t.interactions_per_sec / step_ips, 2)
          .add_cell(t.wall_seconds, 2);
      const std::string suffix = "_n" + std::to_string(n);
      const std::string name = divpp::core::engine_name(engine);
      out.set("tagged_" + name + "_ips" + suffix, t.interactions_per_sec);
      out.set("tagged_" + name + "_ns" + suffix, t.ns_per_interaction);
      out.set("tagged_" + name + "_wall_s" + suffix, t.wall_seconds);
      if (engine != Engine::kStep) {
        out.set("tagged_" + name + "_vs_step" + suffix,
                t.interactions_per_sec / step_ips);
      }
      if (engine == Engine::kBatch && smoke &&
          t.interactions_per_sec < 5.0 * step_ips) {
        smoke_ok = false;
        std::cerr << "e05 smoke FAILED: tagged-batch "
                  << t.interactions_per_sec << " int/s < 5x tagged-step "
                  << step_ips << " int/s at n = " << n << "\n";
      }
    }
  }
  std::cout << table.to_text()
            << "Reading: tagged-step is flat in n; tagged-jump pays only "
               "per active transition; tagged-batch amortises each "
               "collision-free stretch of the held-out n-1 chain, so its "
               "ns/interaction falls like ~1/sqrt(n).\n\n";

  std::cout << out.to_string() << "\n";
  return smoke_ok ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  const divpp::io::Args args(argc, argv);
  const bool smoke = args.get_bool("smoke", false);
  const bool throughput = args.get_bool("throughput", false);
  if (smoke || throughput) return run_sweep(args, smoke);

  const std::int64_t n = args.get_int("n", 10'000);
  const std::int64_t seeds = args.get_int("seeds", 8);
  const auto mults = args.get_int_list("horizon-mults", {50, 200, 800, 3200});
  const Engine engine = divpp::core::parse_engine(
      args.get_string("engine", "auto"));
  const std::int64_t warmup_mult = args.get_int("warmup-mult", 60);
  divpp::runtime::BatchRunner runner(
      static_cast<int>(args.get_int("threads", 0)));
  args.reject_unknown();
  double wall_total = 0.0;
  const WeightMap weights({1.0, 2.0, 3.0});  // W = 6

  std::cout << divpp::io::banner(
      "E5: fairness of per-agent colour occupancy  [Defn 1.1(2) / Thm 2.12]");
  std::cout << "n = " << n << ", weights " << weights.to_string()
            << ", engine " << divpp::core::engine_name(engine)
            << "; one tagged agent per replica (exchangeability makes its "
               "marginal the per-agent property), occupancy accounted "
               "after a warm-up of "
            << warmup_mult << "*n interactions\n\n";

  divpp::io::Table table({"horizon (xn)", "worst rel. error",
                          "worst abs. error", "occ c0 vs 1/6",
                          "occ c2 vs 1/2"});
  for (const std::int64_t mult : mults) {
    const auto metrics = runner.map(
        seeds, 31,
        [&](std::int64_t, Xoshiro256& gen) -> std::array<double, 4> {
          // Tag at the all-dark start (an exchangeable draw from the
          // initial configuration) and warm the *joint* chain, so the
          // tracked marginal starts from a warmed tagged state, not a
          // forced one.
          auto base = CountSimulation::equal_start(weights, n);
          TaggedCountSimulation sim(std::move(base), 0, /*tagged_dark=*/true);
          sim.advance_with(engine, warmup_mult * n, gen);  // warm up
          const std::vector<divpp::core::AgentState> init = {
              sim.tagged_state()};
          divpp::analysis::FairnessTracker tracker(init, 3, sim.time());
          sim.run_changes(engine, sim.time() + mult * n, gen,
                          [&](std::int64_t change_time,
                              divpp::core::AgentState next) {
                            tracker.observe_change(0, change_time, next);
                          });
          tracker.finalize(sim.time());
          return {tracker.worst_relative_error(weights),
                  tracker.worst_absolute_error(weights),
                  tracker.occupancy_fraction(0, 0),
                  tracker.occupancy_fraction(0, 2)};
        });
    wall_total += runner.last_timing().wall_seconds;
    divpp::stats::OnlineStats worst_acc;
    divpp::stats::OnlineStats abs_acc;
    divpp::stats::OnlineStats occ0;
    divpp::stats::OnlineStats occ2;
    for (const auto& [worst_rel, worst_abs, m_occ0, m_occ2] : metrics) {
      worst_acc.add(worst_rel);
      abs_acc.add(worst_abs);
      occ0.add(m_occ0);
      occ2.add(m_occ2);
    }
    table.begin_row()
        .add_cell(mult)
        .add_cell(worst_acc.mean(), 3)
        .add_cell(abs_acc.mean(), 3)
        .add_cell(occ0.mean(), 4)
        .add_cell(occ2.mean(), 4);
  }
  std::cout << table.to_text()
            << "Expected shape: worst relative error shrinks as the horizon "
               "grows (the paper's (1 +- o(1)) factor); mean occupancies sit "
               "at the fair shares 1/6 and 1/2.\n";

  std::cout << "\n"
            << divpp::io::Json()
                   .set("bench", "e05_fairness")
                   .set("threads", runner.threads())
                   .set("n", n)
                   .set("seeds", seeds)
                   .set("engine", divpp::core::engine_name(engine))
                   .set("wall_seconds", wall_total)
                   .to_string()
            << "\n";
  return 0;
}
