// E20 — collision-batch engine throughput (ISSUE 3, extended by ISSUE 4).
//
// Measures interactions/second of the distributionally identical lumped
// engines — step (plain per-interaction), jump (no-op-skipping chain),
// batch (whole collision-free stretches applied in aggregate) and auto
// (per-window jump/batch dispatch from the measured active fraction) —
// across population sizes n.  Since PR 4 the batch engine's counting
// draws are O(1) expected time (HRUA rejection, rng/discrete.h), so its
// amortised cost per interaction is O(k / √n) and *falls* as n grows,
// while step and jump stay flat: the crossover, the asymptotic gap, and
// auto's tracking of the per-n winner are the point of the table.
//
// Flags: --ns=10000,...,1000000000   (comma list, capped at 1e9; all
//                                     engines hold O(k) state so memory
//                                     never binds — only wall-clock does,
//                                     which the per-point wall column
//                                     makes budgetable)
//        --k=8 --w=4         (k equal colours of weight w; W = k·w)
//        --window=0          (interactions measured per engine per n;
//                             0 = auto: max(4·10⁶, 2n), capped per run)
//        --seed=99
//        --smoke             CI guard: n = 10⁶ only, and exit non-zero
//                            unless batch ≥ 2× step throughput AND auto
//                            ≥ 0.9× max(jump, batch)
//
// The last stdout line is the machine-readable summary object
// (BENCH_pr4.json in the repo root records the committed perf
// trajectory).
//
// Methodology: every engine starts from the same equal_start
// configuration, is warmed over one window of n interactions (its own
// engine, so each measures its steady-state regime — for auto this also
// charges the EWMA), then timed over the measurement window.  Engines
// see independent fixed-seed generators — the comparison is throughput,
// not trajectories (the engines deliberately consume different draw
// sequences; see README).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "core/count_simulation.h"
#include "core/weights.h"
#include "io/args.h"
#include "io/json.h"
#include "io/table.h"
#include "rng/xoshiro.h"

namespace {

using divpp::core::CountSimulation;
using divpp::core::Engine;
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

/// Warm one window with `engine`, then time `window` interactions.
Throughput measure(const WeightMap& weights, std::int64_t n, Engine engine,
                   std::int64_t window, std::uint64_t seed) {
  const auto wall0 = std::chrono::steady_clock::now();
  auto sim = CountSimulation::equal_start(weights, n);
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

/// Step/jump windows shrink at huge n so a sweep stays minutes, not
/// hours; batch and auto always get the full window (they are the ones
/// whose asymptotics we are demonstrating, and auto must be timed on the
/// same footing as whichever engine it delegates to).
std::int64_t capped_window(std::int64_t window, Engine engine) {
  if (engine == Engine::kBatch || engine == Engine::kAuto) return window;
  const std::int64_t cap =
      engine == Engine::kStep ? 50'000'000 : 200'000'000;
  return std::min(window, cap);
}

}  // namespace

int main(int argc, char** argv) {
  const divpp::io::Args args(argc, argv);
  const bool smoke = args.get_bool("smoke", false);
  // --k first: equal_start needs n >= max(2, k), so the --ns range
  // check below depends on it.
  const std::int64_t k = args.get_int("k", 8);
  const auto ns = smoke ? std::vector<std::int64_t>{1'000'000}
                        : args.get_int_list(
                              "ns", {10'000, 100'000, 1'000'000, 10'000'000});
  for (const std::int64_t n : ns) {
    if (n < std::max<std::int64_t>(2, k) || n > kMaxPopulation) {
      std::cerr << "e20_batch: --ns entries must be in [max(2, k), 1e9] "
                   "(got "
                << n << " at k = " << k
                << "); the engines are O(k) memory, the cap is purely a "
                   "wall-clock budget guard\n";
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
      "E20: batch-engine throughput (step vs jump vs batch vs auto)");
  std::cout << "k = " << k << " colours of weight " << w
            << " (W = " << weights.total() << "); throughput of "
            << "distributionally identical engines.\n\n";

  divpp::io::Table table({"n", "engine", "window", "ns/interaction",
                          "interactions/sec", "speedup vs step", "wall s"});
  divpp::io::Json out;
  out.set("bench", "e20_batch");
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
    double jump_ips = 0.0;
    double batch_ips = 0.0;
    for (const Engine engine : {Engine::kStep, Engine::kJump, Engine::kBatch,
                                Engine::kAuto}) {
      const std::int64_t engine_window = capped_window(window, engine);
      const Throughput t = measure(weights, n, engine, engine_window, seed);
      if (engine == Engine::kStep) step_ips = t.interactions_per_sec;
      if (engine == Engine::kJump) jump_ips = t.interactions_per_sec;
      if (engine == Engine::kBatch) batch_ips = t.interactions_per_sec;
      table.begin_row()
          .add_cell(n)
          .add_cell(divpp::core::engine_name(engine))
          .add_cell(engine_window)
          .add_cell(t.ns_per_interaction, 3)
          .add_cell(t.interactions_per_sec, 0)
          .add_cell(t.interactions_per_sec / step_ips, 2)
          .add_cell(t.wall_seconds, 2);
      const std::string suffix = "_n" + std::to_string(n);
      out.set(std::string(divpp::core::engine_name(engine)) + "_ips" +
                  suffix,
              t.interactions_per_sec);
      out.set(std::string(divpp::core::engine_name(engine)) + "_ns" + suffix,
              t.ns_per_interaction);
      out.set(std::string(divpp::core::engine_name(engine)) + "_wall_s" +
                  suffix,
              t.wall_seconds);
      if (engine == Engine::kBatch) {
        out.set("batch_vs_step" + suffix,
                t.interactions_per_sec / step_ips);
        out.set("batch_vs_jump" + suffix,
                t.interactions_per_sec / jump_ips);
        if (smoke && t.interactions_per_sec < 2.0 * step_ips) {
          smoke_ok = false;
          std::cerr << "e20 smoke FAILED: batch "
                    << t.interactions_per_sec << " int/s < 2x step "
                    << step_ips << " int/s at n = " << n << "\n";
        }
      }
      if (engine == Engine::kAuto) {
        const double best = std::max(jump_ips, batch_ips);
        out.set("auto_vs_best" + suffix, t.interactions_per_sec / best);
        if (smoke && t.interactions_per_sec < 0.9 * best) {
          smoke_ok = false;
          std::cerr << "e20 smoke FAILED: auto " << t.interactions_per_sec
                    << " int/s < 0.9x best fixed engine " << best
                    << " int/s at n = " << n << "\n";
        }
      }
    }
  }
  std::cout << table.to_text()
            << "Reading: step and jump are flat in n; the batch column's "
               "ns/interaction falls like ~1/sqrt(n) (O(1) rejection "
               "draws per batch since PR 4), and auto should track "
               "max(jump, batch) within ~10% at every n.\n\n";

  std::cout << out.to_string() << "\n";
  return smoke_ok ? 0 : 2;
}
