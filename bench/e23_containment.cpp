// E23 — crash containment: supervised sweeps vs in-process (ISSUE 9).
//
// Default mode measures what process isolation costs: the same
// fault-free scenario list is swept twice through SweepRunner with the
// SAME durable configuration (a sweep_dir, so both sides pay identical
// checkpoint fsyncs — the delta isolates fork + pipes + watchdog, not
// disk):
//
//   * "in-process": the PR 8 thread-pool path;
//   * "supervised": forked worker processes under the PR 9 watchdog
//     (SweepOptions::supervision.enabled).
//
// Both paths drive the same execute_scenario(), so every scenario's
// JSON must match byte-for-byte (exit 1 if not — that is the
// bit-identity contract, not a tolerance).  The overhead gate is
// <= 10% (exit 2).
//
// Flags: --scenarios=128   (the committed BENCH_pr9.json uses 128)
//        --workers=0       (0 = hardware concurrency; both sides)
//        --period=4096     (checkpoint period, both sides)
//        --reps=4          (min-of-reps walls; checkpoint fsync latency
//                           is jittery, so the min needs a few samples)
//        --seed=2024
//        --pr9-json=FILE   (machine-readable summary; BENCH_pr9.json in
//                           the repo root records the committed run)
//
// Smoke mode (--smoke) is the CI crash-containment drill: a supervised
// sweep under a hostile schedule of REAL faults (DIVPP_FAULT_SPEC when
// set, else a built-in mix of segv/kill/oom/hang/abort across five
// scenarios) with max_retries=0.  Asserts the sweep completes; that
// quarantined/recovered scenarios are exactly fault targets; that every
// untargeted scenario's JSON is byte-identical to a fault-free
// in-process reference; and that the wedged (hang) scenario was killed
// within the hang timeout — the sweep's wall clock stays a small
// multiple of it.  Exit 0 only if every assertion holds.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
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
#include "runtime/sweep_runner.h"

namespace {

using divpp::core::CountSimulation;
using divpp::core::Engine;
using divpp::core::WeightMap;
using divpp::fault::FaultKind;
using divpp::fault::FaultSchedule;
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
    // insert() instead of "s" + to_string(): GCC 12's -Wrestrict trips
    // a known false positive on the operator+ chain.
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

std::string fresh_dir(const std::string& name) {
  namespace fs = std::filesystem;
  // Prefer tmpfs: the bench gates supervision overhead, and on a real
  // disk the checkpoint fsyncs carry multi-millisecond jitter that
  // swamps a 10% wall-clock comparison.  Both sides use the same
  // backing store either way.
  fs::path base = fs::temp_directory_path();
  std::error_code ec;
  if (fs::is_directory("/dev/shm", ec)) base = "/dev/shm";
  const fs::path dir = base / name;
  fs::remove_all(dir);
  return dir.string();
}

int run_bench(const divpp::io::Args& args) {
  const std::int64_t count = args.get_int("scenarios", 384);
  const std::int64_t period = args.get_int("period", 4096);
  const int reps = static_cast<int>(args.get_int("reps", 6));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2024));
  const std::string json_path = args.get_string("pr9-json", "");
  int workers = static_cast<int>(args.get_int("workers", 0));
  args.reject_unknown();
  if (workers <= 0)
    workers = static_cast<int>(
        std::max(1U, std::thread::hardware_concurrency()));
  if (count < 1 || period < 1 || reps < 1) {
    std::cerr << "e23_containment: --scenarios, --period, --reps must be "
                 ">= 1\n";
    return 1;
  }

  const auto specs =
      mixed_scenarios(count, seed, {256, 1024, 4096, 16384}, 4);
  const FaultSchedule no_faults;

  std::cout << divpp::io::banner(
      "E23: crash-containment overhead (supervised vs in-process sweep)");
  std::cout << count << " mixed-n scenarios (n in {256..16384}, "
            << "batch/auto/jump, target = 4n), period " << period << ", "
            << workers << " workers, min of " << reps
            << " rep(s); both sides write durable checkpoints.\n\n";

  // In-process reference: same durable config, thread-pool path.
  SweepOptions in_proc;
  in_proc.threads = workers;
  in_proc.checkpoint_period = period;
  in_proc.sweep_dir = fresh_dir("e23_in_process");
  in_proc.faults = &no_faults;

  SweepOptions supervised = in_proc;
  supervised.sweep_dir = fresh_dir("e23_supervised");
  supervised.supervision.enabled = true;
  supervised.supervision.workers = workers;

  // Interleaved reps: checkpoint fsync latency drifts over seconds on
  // real disks, so back-to-back pairs sample the same conditions for
  // both sides where sequential phases would hand all the jitter to
  // one of them.  Each runner is scoped so its pool threads are joined
  // before the supervised side forks (fork needs a single-threaded
  // parent).
  double in_proc_wall = 1e300;
  double supervised_wall = 1e300;
  SweepResult reference;
  SweepResult result;
  for (int rep = 0; rep < reps; ++rep) {
    {
      SweepRunner runner(in_proc);
      const auto t0 = std::chrono::steady_clock::now();
      reference = runner.run(specs, min_dark_statistic);
      in_proc_wall = std::min(in_proc_wall, seconds_since(t0));
    }
    {
      SweepRunner runner(supervised);
      const auto t0 = std::chrono::steady_clock::now();
      result = runner.run(specs, min_dark_statistic);
      supervised_wall = std::min(supervised_wall, seconds_since(t0));
    }
  }

  // The bit-identity contract: both paths drive execute_scenario(), so
  // a single diverging byte is a bug, not noise.
  std::int64_t mismatches = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (result.scenarios[i].outcome != ScenarioOutcome::kOk ||
        result.scenarios[i].json != reference.scenarios[i].json)
      ++mismatches;
  }
  std::filesystem::remove_all(in_proc.sweep_dir);
  std::filesystem::remove_all(supervised.sweep_dir);
  if (mismatches > 0) {
    std::cerr << "e23_containment FAILED: " << mismatches
              << " scenario(s) diverged across the process boundary\n";
    return 1;
  }

  const double overhead = supervised_wall / in_proc_wall - 1.0;
  divpp::io::Table table({"scenarios", "workers", "in-process s",
                          "supervised s", "overhead %"});
  table.begin_row()
      .add_cell(count)
      .add_cell(static_cast<std::int64_t>(workers))
      .add_cell(in_proc_wall, 4)
      .add_cell(supervised_wall, 4)
      .add_cell(100.0 * overhead, 2);
  std::cout << table.to_text()
            << "Reading: supervision pays one fork per worker (not per "
               "scenario), a ~100-byte pipe frame per dispatch, and the "
               "parent's poll loop — against identical simulation and "
               "checkpoint work, the columns should be within noise.\n\n";

  divpp::io::Json out;
  out.set("bench", "e23_containment");
  out.set("scenarios", count);
  out.set("workers", static_cast<std::int64_t>(workers));
  out.set("period", period);
  out.set("reps", static_cast<std::int64_t>(reps));
  out.set("seed", static_cast<std::int64_t>(seed));
  out.set("in_process_wall_s", in_proc_wall);
  out.set("supervised_wall_s", supervised_wall);
  out.set("overhead", overhead);
  out.set("bit_identical", true);
  if (!json_path.empty()) {
    std::ofstream file(json_path);
    if (!file) {
      std::cerr << "e23_containment: cannot write " << json_path << "\n";
      return 1;
    }
    file << out.to_string() << "\n";
  }
  std::cout << out.to_string() << "\n";

  if (overhead > 0.10) {
    std::cerr << "e23_containment FAILED: supervision overhead "
              << 100.0 * overhead << "% > 10%\n";
    return 2;
  }
  return 0;
}

int run_smoke(const divpp::io::Args& args) {
  const std::int64_t count = args.get_int("scenarios", 32);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2024));
  const int workers = static_cast<int>(args.get_int("workers", 4));
  args.reject_unknown();
  const double hang_timeout = 2.0;

  // Small populations, >= 4 checkpoint boundaries per scenario so
  // window-triggered faults always find their boundary.
  auto specs = mixed_scenarios(count, seed, {40, 150, 400, 1000}, 0);
  for (std::size_t i = 0; i < specs.size(); ++i)
    specs[i].target_time = 2000 + 500 * (static_cast<std::int64_t>(i) % 3);

  int failures = 0;
  const auto check = [&failures](bool ok, const std::string& what) {
    if (!ok) {
      ++failures;
      std::cerr << "e23 smoke FAILED: " << what << "\n";
    }
  };

  SweepOptions base;
  base.threads = 2;
  base.checkpoint_period = 500;
  base.backoff_initial_ms = 0.0;

  // A. Fault-free in-process reference (explicit empty schedule, so a
  // hostile DIVPP_FAULT_SPEC in the environment cannot leak into it).
  // Scoped: its pool threads must be joined before the supervisor forks.
  const FaultSchedule no_faults;
  SweepResult ref;
  {
    SweepOptions options = base;
    options.faults = &no_faults;
    SweepRunner runner(options);
    ref = runner.run(specs, min_dark_statistic);
  }
  check(ref.completed == count, "reference sweep left scenarios unfinished");

  // B. The containment drill: REAL faults under supervision.  The
  // built-in schedule wedges one scenario (hang), kills workers three
  // ways (segv / SIGKILL / abort), and fails one allocation storm (oom)
  // — five targeted scenarios, every kind the in-process path cannot
  // contain.  max_retries=0 so any in-worker failure quarantines.
  FaultSchedule hostile = divpp::fault::global();
  if (hostile.empty())
    hostile = FaultSchedule::from_spec(
        "segv@window=1,replica=3;kill@window=2,replica=7;"
        "oom@window=1,replica=11;hang@window=1,replica=15;"
        "abort@window=2,replica=19");
  std::set<std::int64_t> touched;  // any fault target
  bool wildcard = false;           // a replica=-1 spec may hit anything
  for (const auto& spec : hostile.specs()) {
    if (spec.replica < 0)
      wildcard = true;
    else
      touched.insert(spec.replica);
  }

  const std::string dir = fresh_dir("e23_containment_smoke");
  SweepOptions options = base;
  options.sweep_dir = dir;
  options.faults = &hostile;
  options.max_retries = 0;
  options.supervision.enabled = true;
  options.supervision.workers = workers;
  options.supervision.heartbeat_period_seconds = 0.05;
  options.supervision.hang_timeout_seconds = hang_timeout;

  const auto t0 = std::chrono::steady_clock::now();
  SweepResult hit;
  {
    SweepRunner runner(options);
    hit = runner.run(specs, min_dark_statistic);
  }
  const double wall = seconds_since(t0);

  // The sweep settled every scenario despite real deaths: nothing lost.
  check(hit.completed + hit.quarantined + hit.rejected == count,
        "supervised sweep lost scenarios");
  std::int64_t disturbed = 0;
  for (std::size_t i = 0; i < hit.scenarios.size(); ++i) {
    const auto index = static_cast<std::int64_t>(i);
    const auto& report = hit.scenarios[i];
    const bool targeted = wildcard || touched.count(index) > 0;
    if (report.outcome != ScenarioOutcome::kOk) ++disturbed;
    if (report.outcome == ScenarioOutcome::kQuarantined ||
        report.outcome == ScenarioOutcome::kRecovered) {
      check(targeted, "scenario " + report.name +
                          " was disturbed but never targeted");
    }
    if (!targeted)
      check(report.json == ref.scenarios[i].json,
            "untargeted scenario " + report.name +
                " diverged from the fault-free reference");
  }
  check(disturbed > 0, "hostile schedule disturbed nothing — dead drill");

  // The wedged scenario can only be freed by the watchdog, and the rest
  // of the sweep is millisecond-scale: a wall clock beyond a few hang
  // timeouts means the kill did not happen at the timeout.
  check(wall < 5.0 * hang_timeout,
        "sweep took " + std::to_string(wall) +
            "s — the wedged worker was not killed within the hang timeout");

  std::cout << "containment drill: " << hit.recovered << " recovered, "
            << hit.quarantined << " quarantined (targets only), "
            << (count - disturbed)
            << " untargeted byte-identical; wall " << wall << "s with a "
            << hang_timeout << "s hang timeout\n";
  std::filesystem::remove_all(dir);

  if (failures == 0)
    std::cout << "e23 smoke OK: real faults contained to their targets, "
                 "wedged worker killed by the watchdog, untargeted "
                 "scenarios byte-identical\n";
  return failures == 0 ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  const divpp::io::Args args(argc, argv);
  if (args.get_bool("smoke", false)) return run_smoke(args);
  return run_bench(args);
}
