// E21 — durability overhead and kill-resume (ISSUE 7).
//
// Default mode measures what crash-safety costs: ns/interaction of the
// batch engine running *durably* (runtime/durable_runner.h — period-
// aligned windows, canonicalisation, v2 checkpoint serialisation, an
// atomic fsync'd write per boundary) against the raw engine, across
// population sizes n and checkpoint periods.  The checkpoint cost is
// O(k) text plus one fsync, amortised over `period` interactions, so
// overhead falls linearly as the period grows — at one checkpoint per
// measurement window it must be noise (the --smoke gate pins <= 5%).
//
// Flags: --ns=1000000,10000000,100000000   (comma list)
//        --k=8 --w=4          (palette, as e20)
//        --window=0           (interactions per measurement; 0 = auto:
//                              max(4e6, n))
//        --divisors=16,4,1    (periods = window / d; d=1 means one
//                              checkpoint per window)
//        --reps=3             (raw/durable pairs per period, timed
//                              alternately; overhead = median per-pair
//                              ratio − 1)
//        --seed=99
//        --ckpt=FILE          (checkpoint path; default under /tmp)
//        --smoke              (CI guard: n = 1e6 only, exit non-zero
//                              unless overhead at period = window <= 5%)
//
// Kill-resume mode (--kill-resume) is the CI crash drill: one durable
// run to a fixed target that (a) resumes from --ckpt when a valid
// checkpoint exists, else starts fresh, and (b) writes the final state
// (clock, counts, 256-bit RNG state) as canonical JSON to
// --final-json.  CI runs it clean for a golden file, re-runs it with
// DIVPP_FAULT_SPEC="kill@time=..." (the process dies by real SIGKILL
// mid-run), runs it once more to resume, and diffs the JSONs — they
// must be byte-identical, which is the durability contract end to end.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/count_simulation.h"
#include "core/weights.h"
#include "fault/durable_file.h"
#include "fault/fault.h"
#include "io/args.h"
#include "io/json.h"
#include "io/table.h"
#include "rng/xoshiro.h"
#include "runtime/durable_runner.h"

namespace {

using divpp::core::CountSimulation;
using divpp::core::Engine;
using divpp::core::WeightMap;
using divpp::rng::Xoshiro256;
using divpp::runtime::DurableRunConfig;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::string default_ckpt_path() {
  return (std::filesystem::temp_directory_path() / "e21_durability.ckpt")
      .string();
}

/// ns/interaction of one raw batch-engine run over `window`.
double raw_run_ns(const CountSimulation& warmed, const Xoshiro256& gen0,
                  std::int64_t window) {
  CountSimulation sim = warmed;
  Xoshiro256 gen = gen0;
  const auto t0 = std::chrono::steady_clock::now();
  sim.advance_with(Engine::kBatch, sim.time() + window, gen);
  return seconds_since(t0) * 1e9 / static_cast<double>(window);
}

/// ns/interaction of one durable run over `window` at `period`.
double durable_run_ns(const CountSimulation& warmed, const Xoshiro256& gen0,
                      std::int64_t window, std::int64_t period,
                      const std::string& ckpt) {
  CountSimulation sim = warmed;
  Xoshiro256 gen = gen0;
  DurableRunConfig config;
  config.engine = Engine::kBatch;
  config.target_time = sim.time() + window;
  config.checkpoint_period = period;
  config.checkpoint_path = ckpt;
  const auto t0 = std::chrono::steady_clock::now();
  (void)divpp::runtime::run_windows(sim, gen, config);
  return seconds_since(t0) * 1e9 / static_cast<double>(window);
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// The raw and durable arms timed alternately, rep by rep, from the same
/// snapshot: pair r runs raw first when r is even and durable first when
/// it is odd, so a drift in host speed lands on both arms of a pair.
/// The overhead is the median per-pair ratio durable/raw, minus one.
struct PairedOverhead {
  double raw_ns = 0.0;      // median over the raw arm's runs
  double durable_ns = 0.0;  // median over the durable arm's runs
  std::vector<double> ratios;
  double overhead = 0.0;
};

PairedOverhead paired_overhead(const CountSimulation& warmed,
                               const Xoshiro256& gen0, std::int64_t window,
                               std::int64_t period, int reps,
                               const std::string& ckpt) {
  // One untimed pair first: the durable arm's first run of a row meets
  // a cold checkpoint file.
  (void)raw_run_ns(warmed, gen0, window);
  (void)durable_run_ns(warmed, gen0, window, period, ckpt);
  std::vector<double> raw, durable;
  PairedOverhead result;
  for (int rep = 0; rep < reps; ++rep) {
    double r = 0.0, d = 0.0;
    if (rep % 2 == 0) {
      r = raw_run_ns(warmed, gen0, window);
      d = durable_run_ns(warmed, gen0, window, period, ckpt);
    } else {
      d = durable_run_ns(warmed, gen0, window, period, ckpt);
      r = raw_run_ns(warmed, gen0, window);
    }
    raw.push_back(r);
    durable.push_back(d);
    result.ratios.push_back(d / r);
  }
  result.raw_ns = median(raw);
  result.durable_ns = median(durable);
  result.overhead = median(result.ratios) - 1.0;
  return result;
}

int run_kill_resume(const divpp::io::Args& args) {
  const std::string ckpt = args.get_string("ckpt", default_ckpt_path());
  const std::string json_path = args.get_string("final-json", "");
  const std::int64_t n = args.get_int("n", 200'000);
  const std::int64_t target = args.get_int("target", 2'000'000);
  const std::int64_t period = args.get_int("period", 250'000);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 99));
  args.reject_unknown();
  const WeightMap weights({1.0, 2.0, 3.0, 4.0});

  CountSimulation sim = CountSimulation::adversarial_start(weights, n);
  Xoshiro256 gen(seed);
  bool resumed = false;
  try {
    const auto restore =
        divpp::core::resume_run_from_checkpoint(divpp::fault::read_durable(ckpt));
    sim = restore.sim;
    gen = restore.gen;
    resumed = true;
  } catch (const divpp::fault::DurableFileError&) {
    // No (or torn) checkpoint: a fresh run.
  }
  std::cerr << "e21 kill-resume: " << (resumed ? "resumed from " : "fresh; ")
            << (resumed ? ckpt + " at time " + std::to_string(sim.time())
                        : "checkpointing to " + ckpt)
            << "\n";

  DurableRunConfig config;
  config.engine = Engine::kBatch;
  config.target_time = target;
  config.checkpoint_period = period;
  config.checkpoint_path = ckpt;
  config.faults = &divpp::fault::global();  // DIVPP_FAULT_SPEC reaches here
  (void)divpp::runtime::run_windows(sim, gen, config);

  // The deterministic final state: byte-identical across clean,
  // killed-and-resumed, and any-thread runs.
  divpp::io::Json out;
  out.set("bench", "e21_kill_resume");
  out.set("n", n);
  out.set("target", target);
  out.set("period", period);
  out.set("seed", static_cast<std::int64_t>(seed));
  out.set("time", sim.time());
  out.set("min_dark", sim.min_dark());
  for (divpp::core::ColorId i = 0; i < sim.num_colors(); ++i) {
    out.set("dark_" + std::to_string(i), sim.dark(i));
    out.set("light_" + std::to_string(i), sim.light(i));
  }
  const auto state = gen.state();
  for (std::size_t word = 0; word < state.size(); ++word)
    out.set("rng_" + std::to_string(word),
            static_cast<std::int64_t>(state[word]));
  if (!json_path.empty()) {
    std::ofstream file(json_path);
    if (!file) {
      std::cerr << "e21_durability: cannot write " << json_path << "\n";
      return 1;
    }
    file << out.to_string() << "\n";
  }
  std::cout << out.to_string() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const divpp::io::Args args(argc, argv);
  if (args.get_bool("kill-resume", false)) return run_kill_resume(args);

  const bool smoke = args.get_bool("smoke", false);
  const auto ns =
      smoke ? std::vector<std::int64_t>{1'000'000}
            : args.get_int_list("ns",
                                {1'000'000, 10'000'000, 100'000'000});
  const std::int64_t k = args.get_int("k", 8);
  const double w = args.get_double("w", 4.0);
  const std::int64_t window_flag = args.get_int("window", 0);
  const auto divisors = args.get_int_list("divisors", {16, 4, 1});
  const int reps = static_cast<int>(args.get_int("reps", 3));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 99));
  const std::string ckpt = args.get_string("ckpt", default_ckpt_path());
  args.reject_unknown();
  const WeightMap weights(std::vector<double>(static_cast<std::size_t>(k), w));

  std::cout << divpp::io::banner(
      "E21: durability overhead (batch engine, checkpoint-period sweep)");
  std::cout << "k = " << k << " colours of weight " << w
            << "; durable = period-aligned windows + canonicalize + v2 "
               "checkpoint + atomic fsync'd write per boundary.\n\n";

  divpp::io::Table table({"n", "period", "checkpoints", "raw ns/int",
                          "durable ns/int", "pair ratios", "overhead %"});
  divpp::io::Json out;
  out.set("bench", "e21_durability");
  out.set("k", k);
  out.set("w", w);
  out.set("reps", static_cast<std::int64_t>(reps));
  out.set("seed", static_cast<std::int64_t>(seed));

  bool smoke_ok = true;
  for (const std::int64_t n : ns) {
    if (n < 2) {
      std::cerr << "e21_durability: --ns entries must be >= 2\n";
      return 1;
    }
    const std::int64_t window =
        window_flag > 0 ? window_flag : std::max<std::int64_t>(4'000'000, n);
    // One shared warmup per n: every measurement resumes from the same
    // (sim, gen) snapshot, so raw and durable time identical work, and
    // each period gets its own interleaved raw arm.  run_windows puts
    // its boundaries at absolute multiples of the period, so the warmup
    // ends at time `window`: the measured stretch is then exactly d
    // windows with d checkpoints.
    CountSimulation warmed = CountSimulation::equal_start(weights, n);
    Xoshiro256 gen(seed);
    warmed.advance_with(Engine::kBatch, window, gen);
    warmed.canonicalize();

    for (const std::int64_t d : divisors) {
      if (d < 1) {
        std::cerr << "e21_durability: --divisors entries must be >= 1\n";
        return 1;
      }
      const std::int64_t period = std::max<std::int64_t>(1, window / d);
      const PairedOverhead paired =
          paired_overhead(warmed, gen, window, period, reps, ckpt);
      std::string ratios;
      for (const double ratio : paired.ratios) {
        if (!ratios.empty()) ratios += ' ';
        ratios += divpp::io::format_double(ratio, 3);
      }
      table.begin_row()
          .add_cell(n)
          .add_cell(period)
          .add_cell(d)
          .add_cell(paired.raw_ns, 3)
          .add_cell(paired.durable_ns, 3)
          .add_cell(ratios)
          .add_cell(100.0 * paired.overhead, 2);
      const std::string suffix =
          "_n" + std::to_string(n) + "_d" + std::to_string(d);
      out.set("raw_ns" + suffix, paired.raw_ns);
      out.set("durable_ns" + suffix, paired.durable_ns);
      out.set("ratios" + suffix, std::span<const double>(paired.ratios));
      out.set("overhead" + suffix, paired.overhead);
      if (smoke && d == 1 && paired.overhead > 0.05) {
        smoke_ok = false;
        std::cerr << "e21 smoke FAILED: durability overhead "
                  << 100.0 * paired.overhead
                  << "% > 5% (median of per-pair ratios) at one checkpoint "
                     "per "
                  << window << "-interaction window (n = " << n << ")\n";
      }
    }
  }
  std::error_code ec;
  std::filesystem::remove(ckpt, ec);

  std::cout << table.to_text()
            << "Reading: the per-boundary cost (O(k) serialisation + one "
               "fsync) is amortised over `period` interactions, so the "
               "overhead column falls as the period grows and is noise at "
               "one checkpoint per window.\n\n";

  std::cout << out.to_string() << "\n";
  return smoke_ok ? 0 : 2;
}
