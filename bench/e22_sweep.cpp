// E22 — resilient scenario sweeps (ISSUE 8).
//
// Default mode measures what the sweep runtime costs: M heterogeneous
// scenarios (mixed populations, engines, targets) run twice to the same
// durable config —
//
//   * "dedicated": the scenarios drained from one atomic work counter by
//     raw std::threads, each calling run_windows directly with private
//     tables — no shared cache, no admission queue, no recovery wrapper;
//   * "sweep": the same scenarios through SweepRunner (shared
//     SamplerContextCache, bounded admission, per-scenario recovery).
//
// Both sides advance identical simulations through identical
// period-aligned boundaries with in-memory checkpoints, so the wall-time
// delta isolates the sweep machinery, and every scenario's statistic
// must match bit-for-bit (exit 1 if not — that is the sharing contract,
// not a tolerance).  The overhead gate is <= 10% (exit 2).
//
// Flags: --scenarios=10000  (M; the committed BENCH_pr8.json uses 10^4)
//        --threads=0        (0 = hardware concurrency; both sides)
//        --period=4096      (checkpoint period, both sides)
//        --reps=1           (min-of-reps walls; M already averages noise)
//        --seed=2024
//        --pr8-json=FILE    (machine-readable summary; BENCH_pr8.json in
//                            the repo root records the committed run)
//        --supervised       (PR 9: run the sweep side on forked worker
//                            processes under watchdog supervision.  The
//                            bit-identity check still applies; the 10%
//                            overhead gate is waived here because the
//                            supervised side must write durable
//                            checkpoints while the dedicated side keeps
//                            them in memory — bench/e23_containment
//                            gates overhead like-for-like)
//
// Smoke mode (--smoke) is the CI sweep-soak drill: three sweeps over the
// same ~96 small scenarios.
//   A. fault-free reference;
//   B. hostile faults (DIVPP_FAULT_SPEC when set, else a built-in mixed
//      crash/exception/torn/latency schedule) with max_retries=0, so a
//      lethal fault means instant quarantine: asserts quarantine hits
//      *only* fault-targeted scenarios and every untargeted scenario's
//      JSON is byte-identical to A;
//   C. drain mid-sweep (request_drain from inside the statistic), then
//      resume() from the manifest: asserts drained + completed add up
//      and the finished sweep is byte-identical to A.
// Exit 0 only if every assertion holds.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/count_simulation.h"
#include "core/weights.h"
#include "fault/fault.h"
#include "io/args.h"
#include "io/json.h"
#include "io/table.h"
#include "rng/xoshiro.h"
#include "runtime/durable_runner.h"
#include "runtime/sweep_runner.h"

namespace {

using divpp::core::CountSimulation;
using divpp::core::Engine;
using divpp::core::WeightMap;
using divpp::fault::FaultKind;
using divpp::fault::FaultSchedule;
using divpp::rng::Xoshiro256;
using divpp::runtime::ScenarioOutcome;
using divpp::runtime::ScenarioSpec;
using divpp::runtime::SweepOptions;
using divpp::runtime::SweepResult;
using divpp::runtime::SweepRunner;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

double min_dark_statistic(const CountSimulation& sim) {
  return static_cast<double>(sim.min_dark());
}

/// Mixed-n scenario list shared by both harnesses.  Proportional starts
/// only, so the dedicated side can rebuild the identical initial state.
std::vector<ScenarioSpec> mixed_scenarios(
    std::int64_t count, std::uint64_t seed,
    const std::vector<std::int64_t>& populations,
    std::int64_t target_multiple) {
  const WeightMap weights({1.0, 2.0, 3.0});
  const Engine engines[] = {Engine::kBatch, Engine::kAuto, Engine::kJump};
  std::vector<ScenarioSpec> specs;
  specs.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    ScenarioSpec spec;
    std::string name = std::to_string(i);
    name.insert(0, 1, 's');
    spec.name = std::move(name);
    spec.n = populations[static_cast<std::size_t>(i) % populations.size()];
    spec.weights = weights;
    spec.start = ScenarioSpec::Start::kProportional;
    spec.engine = engines[static_cast<std::size_t>(i) % 3];
    spec.target_time = target_multiple * spec.n;
    spec.seed = seed + static_cast<std::uint64_t>(i);
    specs.push_back(spec);
  }
  return specs;
}

/// One dedicated pass: raw threads drain the spec list from an atomic
/// counter, each scenario solo — same durable config as the sweep.
double dedicated_pass(const std::vector<ScenarioSpec>& specs,
                      std::int64_t period, int threads,
                      std::vector<double>& values) {
  std::atomic<std::size_t> next{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&]() {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= specs.size()) return;
        const ScenarioSpec& spec = specs[i];
        CountSimulation sim =
            CountSimulation::proportional_start(spec.weights, spec.n);
        Xoshiro256 gen(spec.seed);
        divpp::runtime::DurableRunConfig config;
        config.engine = spec.engine;
        config.target_time = spec.target_time;
        config.checkpoint_period = period;
        std::string latest;
        config.on_checkpoint = [&latest](const std::string& blob) {
          latest = blob;
        };
        (void)divpp::runtime::run_windows(sim, gen, config);
        values[i] = min_dark_statistic(sim);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  return seconds_since(t0);
}

int run_bench(const divpp::io::Args& args) {
  const std::int64_t count = args.get_int("scenarios", 10'000);
  const std::int64_t period = args.get_int("period", 4096);
  const int reps = static_cast<int>(args.get_int("reps", 1));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2024));
  const std::string json_path = args.get_string("pr8-json", "");
  const bool supervised = args.get_bool("supervised", false);
  int threads = static_cast<int>(args.get_int("threads", 0));
  args.reject_unknown();
  if (threads <= 0)
    threads = std::max(1U, std::thread::hardware_concurrency());
  if (count < 1 || period < 1 || reps < 1) {
    std::cerr << "e22_sweep: --scenarios, --period, --reps must be >= 1\n";
    return 1;
  }

  const auto specs =
      mixed_scenarios(count, seed, {256, 1024, 4096, 16384}, 4);

  std::cout << divpp::io::banner(
      "E22: scenario-sweep overhead (SweepRunner vs dedicated threads)");
  std::cout << count << " mixed-n scenarios (n in {256..16384}, "
            << "batch/auto/jump, target = 4n), period " << period << ", "
            << threads << " threads, min of " << reps << " rep(s).\n\n";

  std::vector<double> dedicated_values(specs.size(), 0.0);
  double dedicated_wall = 1e300;
  for (int rep = 0; rep < reps; ++rep)
    dedicated_wall = std::min(
        dedicated_wall,
        dedicated_pass(specs, period, threads, dedicated_values));

  const FaultSchedule no_faults;
  SweepOptions options;
  options.threads = threads;
  options.checkpoint_period = period;
  options.faults = &no_faults;
  if (supervised) {
    options.sweep_dir =
        (std::filesystem::temp_directory_path() / "e22_sweep_supervised")
            .string();
    std::filesystem::remove_all(options.sweep_dir);
    options.supervision.enabled = true;
    options.supervision.workers = threads;
  }
  double sweep_wall = 1e300;
  SweepResult result;
  divpp::context::ContextCacheStats cache{};
  for (int rep = 0; rep < reps; ++rep) {
    SweepRunner runner(options);
    const auto t0 = std::chrono::steady_clock::now();
    result = runner.run(specs, min_dark_statistic);
    sweep_wall = std::min(sweep_wall, seconds_since(t0));
    cache = runner.context_stats();
  }

  // The sharing contract: multiplexed scenarios are bit-identical to
  // their dedicated runs.  A mismatch is a bug, not noise.
  std::int64_t mismatches = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (result.scenarios[i].outcome != ScenarioOutcome::kOk ||
        result.scenarios[i].value != dedicated_values[i])
      ++mismatches;
  }
  if (supervised) std::filesystem::remove_all(options.sweep_dir);
  if (mismatches > 0) {
    std::cerr << "e22_sweep FAILED: " << mismatches
              << " scenario(s) diverged from their dedicated runs\n";
    return 1;
  }

  const double overhead = sweep_wall / dedicated_wall - 1.0;
  divpp::io::Table table({"scenarios", "threads", "dedicated s", "sweep s",
                          "overhead %", "cache hits", "cache misses"});
  table.begin_row()
      .add_cell(count)
      .add_cell(static_cast<std::int64_t>(threads))
      .add_cell(dedicated_wall, 4)
      .add_cell(sweep_wall, 4)
      .add_cell(100.0 * overhead, 2)
      .add_cell(cache.hits)
      .add_cell(cache.misses);
  std::cout << table.to_text()
            << "Reading: the sweep pays the admission queue, the recovery "
               "wrapper, and one cache lock per scenario, but shares one "
               "run-length table per (n, k, w) instead of building "
            << count << " of them — the columns should be within noise.\n\n";

  divpp::io::Json out;
  out.set("bench", "e22_sweep");
  out.set("scenarios", count);
  out.set("threads", static_cast<std::int64_t>(threads));
  out.set("period", period);
  out.set("reps", static_cast<std::int64_t>(reps));
  out.set("seed", static_cast<std::int64_t>(seed));
  out.set("dedicated_wall_s", dedicated_wall);
  out.set("sweep_wall_s", sweep_wall);
  out.set("overhead", overhead);
  out.set("bit_identical", true);
  out.set("supervised", supervised);
  out.set("cache_hits", cache.hits);
  out.set("cache_misses", cache.misses);
  out.set("cache_entries", cache.entries);
  out.set("cache_resident_bytes",
          static_cast<std::int64_t>(cache.resident_bytes));
  if (!json_path.empty()) {
    std::ofstream file(json_path);
    if (!file) {
      std::cerr << "e22_sweep: cannot write " << json_path << "\n";
      return 1;
    }
    file << out.to_string() << "\n";
  }
  std::cout << out.to_string() << "\n";

  // Supervised mode writes durable checkpoints the dedicated side does
  // not pay for, so its gate lives in e23_containment (like-for-like).
  if (!supervised && overhead > 0.10) {
    std::cerr << "e22_sweep FAILED: multiplexing overhead "
              << 100.0 * overhead << "% > 10%\n";
    return 2;
  }
  return 0;
}

int run_smoke(const divpp::io::Args& args) {
  const std::int64_t count = args.get_int("scenarios", 96);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2024));
  const int threads = static_cast<int>(args.get_int("threads", 4));
  args.reject_unknown();
  // Small populations, >= 4 checkpoint boundaries per scenario so
  // window-triggered faults always find their boundary.
  const auto specs = mixed_scenarios(count, seed, {40, 150, 400, 1000}, 0);
  std::vector<ScenarioSpec> sized = specs;
  for (std::size_t i = 0; i < sized.size(); ++i)
    sized[i].target_time = 2000 + 500 * (static_cast<std::int64_t>(i) % 3);

  const FaultSchedule no_faults;
  SweepOptions base;
  base.threads = threads;
  base.checkpoint_period = 500;
  base.backoff_initial_ms = 0.0;
  base.faults = &no_faults;

  int failures = 0;
  const auto check = [&failures](bool ok, const std::string& what) {
    if (!ok) {
      ++failures;
      std::cerr << "e22 smoke FAILED: " << what << "\n";
    }
  };

  // A. The fault-free reference sweep.
  SweepResult ref;
  {
    SweepRunner runner(base);
    ref = runner.run(sized, min_dark_statistic);
  }
  check(ref.completed == count, "reference sweep left scenarios unfinished");

  // B. The hostile sweep: quarantine must hit only targeted scenarios,
  // and every untargeted scenario must be byte-identical to A.
  {
    FaultSchedule hostile = divpp::fault::global();
    if (hostile.empty())
      hostile = FaultSchedule::from_spec(
          "crash@window=1,replica=5;exception@window=2,replica=17;"
          "crash@window=2,replica=33;torn@window=1,replica=50;"
          "latency@window=1,replica=60,us=500");
    std::set<std::int64_t> lethal;   // crash/exception targets
    std::set<std::int64_t> touched;  // any fault target
    bool wildcard = false;  // a replica=-1 spec may hit any scenario
    for (const auto& spec : hostile.specs()) {
      if (spec.replica < 0) {
        wildcard = true;
        continue;
      }
      touched.insert(spec.replica);
      if (spec.kind == FaultKind::kCrash ||
          spec.kind == FaultKind::kException)
        lethal.insert(spec.replica);
    }
    SweepOptions options = base;
    options.faults = &hostile;
    options.max_retries = 0;  // a lethal fault == instant quarantine
    SweepRunner runner(options);
    const SweepResult hit = runner.run(sized, min_dark_statistic);
    bool expect_quarantine = wildcard;
    for (const std::int64_t r : lethal) expect_quarantine |= r < count;
    if (expect_quarantine)
      check(hit.quarantined > 0, "hostile sweep quarantined nothing");
    for (std::size_t i = 0; i < hit.scenarios.size(); ++i) {
      const auto index = static_cast<std::int64_t>(i);
      const auto& report = hit.scenarios[i];
      if (report.outcome == ScenarioOutcome::kQuarantined) {
        check(wildcard || lethal.count(index) > 0,
              "scenario " + report.name + " quarantined but not targeted");
      } else if (!wildcard && touched.count(index) == 0) {
        check(report.json == ref.scenarios[i].json,
              "untargeted scenario " + report.name +
                  " diverged from the fault-free sweep");
      }
    }
    std::cout << "hostile sweep: " << hit.quarantined << " quarantined, "
              << hit.completed << " completed untouched\n";
  }

  // C. Drain mid-sweep, then resume from the manifest.
  {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "e22_sweep_drain";
    fs::remove_all(dir);
    SweepOptions options = base;
    options.threads = 2;
    options.sweep_dir = dir.string();
    SweepRunner runner(options);
    const std::int64_t drain_after = std::max<std::int64_t>(1, count / 8);
    std::atomic<std::int64_t> completions{0};
    const SweepRunner::Statistic draining =
        [&](const CountSimulation& sim) {
          if (completions.fetch_add(1) + 1 == drain_after)
            runner.request_drain();
          return min_dark_statistic(sim);
        };
    const SweepResult first = runner.run(sized, draining);
    check(first.drain_requested, "drain request was lost");
    check(first.drained > 0, "drain parked no scenarios");
    check(first.completed + first.drained == count,
          "drained sweep lost scenarios");
    const SweepResult rest = runner.resume(sized, min_dark_statistic);
    check(rest.completed == count, "resume left scenarios unfinished");
    for (std::size_t i = 0; i < rest.scenarios.size(); ++i)
      check(rest.scenarios[i].json == ref.scenarios[i].json,
            "scenario " + sized[i].name + " diverged across drain+resume");
    std::cout << "drain+resume: " << first.completed << " before drain, "
              << first.drained << " parked, all " << rest.completed
              << " byte-identical after resume\n";
    fs::remove_all(dir);
  }

  if (failures == 0)
    std::cout << "e22 smoke OK: quarantine stayed on target, untargeted "
                 "scenarios byte-identical, drain+resume bit-exact\n";
  return failures == 0 ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  const divpp::io::Args args(argc, argv);
  if (args.get_bool("smoke", false)) return run_smoke(args);
  return run_bench(args);
}
