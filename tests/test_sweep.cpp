// Tests for the resilient scenario-sweep runtime (PR 8): mixed-n
// multiplexing with values bit-identical to dedicated runs, context
// admission rejection under a memory budget, per-scenario fault
// isolation (a crashing scenario quarantines alone and everyone else's
// JSON is byte-identical to the fault-free sweep), retries from the
// latest valid checkpoint (torn files restart from scratch, deadline
// overruns resume), graceful drain with manifest resume, and checkpoint
// cleanup.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/count_simulation.h"
#include "core/weights.h"
#include "fault/durable_file.h"
#include "fault/fault.h"
#include "rng/xoshiro.h"
#include "runtime/durable_runner.h"
#include "runtime/sweep_runner.h"

namespace {

using divpp::core::CountSimulation;
using divpp::core::Engine;
using divpp::core::WeightMap;
using divpp::fault::FaultKind;
using divpp::fault::FaultSchedule;
using divpp::fault::FaultSpec;
using divpp::rng::Xoshiro256;
using divpp::runtime::DurableRunConfig;
using divpp::runtime::run_windows;
using divpp::runtime::ScenarioOutcome;
using divpp::runtime::ScenarioReport;
using divpp::runtime::ScenarioSpec;
using divpp::runtime::SweepOptions;
using divpp::runtime::SweepResult;
using divpp::runtime::SweepRunner;

constexpr std::int64_t kPeriod = 1000;

double min_dark_statistic(const CountSimulation& sim) {
  return static_cast<double>(sim.min_dark());
}

ScenarioSpec scenario(const std::string& name, std::int64_t n,
                      std::uint64_t seed, std::int64_t target,
                      Engine engine = Engine::kBatch) {
  ScenarioSpec spec;
  spec.name = name;
  spec.n = n;
  spec.weights = WeightMap({1.0, 2.0, 3.0});
  spec.start = ScenarioSpec::Start::kProportional;
  spec.engine = engine;
  spec.target_time = target;
  spec.seed = seed;
  return spec;
}

/// A varied scenario list: mixed populations (the batch engine walks
/// agent labels at every one of them), engines, and targets.
std::vector<ScenarioSpec> mixed_specs(int count) {
  const std::vector<std::int64_t> populations{40, 150, 400, 1000, 2500};
  const std::vector<Engine> engines{Engine::kBatch, Engine::kAuto,
                                    Engine::kJump};
  std::vector<ScenarioSpec> specs;
  specs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const auto u = static_cast<std::size_t>(i);
    specs.push_back(scenario(
        "scenario-" + std::to_string(i), populations[u % populations.size()],
        /*seed=*/1000 + static_cast<std::uint64_t>(i),
        /*target=*/3500 + 500 * static_cast<std::int64_t>(i % 3),
        engines[u % engines.size()]));
  }
  return specs;
}

/// The dedicated (non-multiplexed) reference: same start, same engine,
/// same seed, same checkpoint period — what the sweep must reproduce
/// bit-for-bit.
double dedicated_value(const ScenarioSpec& spec) {
  CountSimulation sim =
      CountSimulation::proportional_start(spec.weights, spec.n);
  Xoshiro256 gen(spec.seed);
  DurableRunConfig config;
  config.engine = spec.engine;
  config.target_time = spec.target_time;
  config.checkpoint_period = kPeriod;
  run_windows(sim, gen, config);
  return min_dark_statistic(sim);
}

SweepOptions sweep_options(int threads) {
  SweepOptions options;
  options.threads = threads;
  options.checkpoint_period = kPeriod;
  options.backoff_initial_ms = 0.0;  // tests need no real backoff waits
  return options;
}

TEST(Sweep, ValidatesOptionsAndSpecs) {
  EXPECT_THROW(SweepRunner(SweepOptions{}), std::invalid_argument);
  SweepRunner runner(sweep_options(2));
  std::vector<ScenarioSpec> bad{scenario("tiny", 1, 1, 100)};
  EXPECT_THROW((void)runner.run(bad, min_dark_statistic),
               std::invalid_argument);
  EXPECT_THROW((void)runner.run({}, nullptr), std::invalid_argument);
  EXPECT_THROW((void)runner.resume({}, min_dark_statistic),
               std::invalid_argument)
      << "resume without a sweep_dir has nothing to resume from";
}

TEST(Sweep, NullFaultsIgnoreTheEnvironmentSchedule) {
  // faults == nullptr means no faults: a lethal DIVPP_FAULT_SPEC must
  // not reach the sweep (only explicit fault::global() callers read it).
  const char* previous = std::getenv("DIVPP_FAULT_SPEC");
  const std::string saved = previous != nullptr ? previous : "";
  ::setenv("DIVPP_FAULT_SPEC", "crash@window=0;exception@window=1", 1);
  SweepOptions options = sweep_options(1);
  options.max_retries = 0;  // any fault that did leak would quarantine
  const std::vector<ScenarioSpec> specs = mixed_specs(3);
  const SweepResult result =
      SweepRunner(options).run(specs, min_dark_statistic);
  if (previous != nullptr)
    ::setenv("DIVPP_FAULT_SPEC", saved.c_str(), 1);
  else
    ::unsetenv("DIVPP_FAULT_SPEC");

  EXPECT_EQ(result.completed, 3);
  for (const ScenarioReport& report : result.scenarios) {
    EXPECT_EQ(report.outcome, ScenarioOutcome::kOk) << report.error;
    EXPECT_EQ(report.attempts, 1);
  }
}

TEST(Sweep, MixedScenariosMatchDedicatedRunsBitForBit) {
  const std::vector<ScenarioSpec> specs = mixed_specs(20);
  SweepRunner runner(sweep_options(4));
  const SweepResult result = runner.run(specs, min_dark_statistic);

  ASSERT_EQ(result.scenarios.size(), specs.size());
  EXPECT_EQ(result.completed, static_cast<std::int64_t>(specs.size()));
  EXPECT_EQ(result.quarantined, 0);
  EXPECT_EQ(result.rejected, 0);
  EXPECT_EQ(result.drained, 0);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ScenarioReport& report = result.scenarios[i];
    EXPECT_EQ(report.name, specs[i].name);
    EXPECT_EQ(report.outcome, ScenarioOutcome::kOk) << report.error;
    EXPECT_EQ(report.value, dedicated_value(specs[i]))
        << "scenario " << specs[i].name;
    EXPECT_NE(report.json.find(specs[i].name), std::string::npos);
  }
  // 20 scenarios share 5 (n, k, w) keys: the cache built each key once.
  EXPECT_EQ(runner.context_stats().misses, 5);
  EXPECT_EQ(runner.context_stats().hits, 15);
}

TEST(Sweep, OversizedScenarioIsRejectedNotRun) {
  std::vector<ScenarioSpec> specs = mixed_specs(4);
  specs.push_back(scenario("giant", 50'000'000, 9, 2000));
  SweepOptions options = sweep_options(2);
  // Budget fits the small contexts, never the giant's ~O(√n) tables.
  options.context_budget_bytes = std::size_t{1} << 16;  // 64 KiB
  SweepRunner runner(options);
  const SweepResult result = runner.run(specs, min_dark_statistic);

  EXPECT_EQ(result.completed, 4);
  EXPECT_EQ(result.rejected, 1);
  const ScenarioReport& giant = result.scenarios.back();
  EXPECT_EQ(giant.outcome, ScenarioOutcome::kRejected);
  EXPECT_NE(giant.error.find("budget"), std::string::npos) << giant.error;
  // Rejection is structured refusal, not a crash: the rest completed
  // with dedicated-run values.
  for (std::size_t i = 0; i + 1 < specs.size(); ++i)
    EXPECT_EQ(result.scenarios[i].value, dedicated_value(specs[i]));
}

TEST(Sweep, FaultIsolationQuarantinesOnlyTheTargetedScenario) {
  const std::vector<ScenarioSpec> specs = mixed_specs(8);

  // Reference: the fault-free sweep.
  const FaultSchedule none;
  SweepOptions clean_options = sweep_options(2);
  clean_options.faults = &none;
  const SweepResult clean =
      SweepRunner(clean_options).run(specs, min_dark_statistic);
  ASSERT_EQ(clean.completed, 8);

  // Crash scenario 2 at its second boundary with no retries: it must be
  // quarantined, everyone else byte-identical to the clean sweep.
  FaultSpec crash;
  crash.kind = FaultKind::kCrash;
  crash.at_window = 1;
  crash.replica = 2;
  const FaultSchedule one_crash({crash});
  SweepOptions options = sweep_options(2);
  options.faults = &one_crash;
  options.max_retries = 0;
  const SweepResult result =
      SweepRunner(options).run(specs, min_dark_statistic);

  EXPECT_EQ(result.quarantined, 1);
  EXPECT_EQ(result.completed, 7);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (i == 2) {
      EXPECT_EQ(result.scenarios[i].outcome, ScenarioOutcome::kQuarantined);
      EXPECT_FALSE(result.scenarios[i].error.empty());
      EXPECT_TRUE(result.scenarios[i].json.empty());
    } else {
      EXPECT_EQ(result.scenarios[i].outcome, ScenarioOutcome::kOk);
      EXPECT_EQ(result.scenarios[i].json, clean.scenarios[i].json)
          << "scenario " << i << " must be byte-identical to the "
          << "fault-free sweep";
    }
  }

  // With a retry allowed the same crash self-heals bit-identically.
  const FaultSchedule crash_again({crash});
  options.faults = &crash_again;
  options.max_retries = 2;
  const SweepResult healed =
      SweepRunner(options).run(specs, min_dark_statistic);
  EXPECT_EQ(healed.completed, 8);
  EXPECT_EQ(healed.scenarios[2].outcome, ScenarioOutcome::kRecovered);
  EXPECT_EQ(healed.scenarios[2].json, clean.scenarios[2].json);

  // One injected exception per attempt: scenario 2 dies at windows 0, 1
  // and 2 of attempts 1, 2 and 3 (each resume starts past the previous
  // window) and runs out of retries; the others are untouched.
  std::vector<FaultSpec> throws;
  for (std::int64_t w = 0; w < 3; ++w) {
    FaultSpec spec;
    spec.kind = FaultKind::kException;
    spec.at_window = w;
    spec.replica = 2;
    throws.push_back(spec);
  }
  const FaultSchedule every_attempt(throws);
  options.faults = &every_attempt;
  options.max_retries = 2;
  const SweepResult exhausted =
      SweepRunner(options).run(specs, min_dark_statistic);
  EXPECT_EQ(exhausted.quarantined, 1);
  const ScenarioReport& bad = exhausted.scenarios[2];
  EXPECT_EQ(bad.outcome, ScenarioOutcome::kQuarantined);
  EXPECT_EQ(bad.attempts, 3);
  EXPECT_NE(bad.error.find("injected exception"), std::string::npos)
      << bad.error;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (i == 2) continue;
    EXPECT_EQ(exhausted.scenarios[i].outcome, ScenarioOutcome::kOk);
  }

  // Seeded random crashes over the first six scenarios heal at any
  // thread count: every value and JSON line matches the clean sweep.
  for (const int threads : {1, 3}) {
    const FaultSchedule crashes =
        FaultSchedule::random_crashes(/*seed=*/5, /*count=*/4,
                                      /*max_window=*/3, /*num_replicas=*/6);
    SweepOptions random_options = sweep_options(threads);
    random_options.faults = &crashes;
    const SweepResult result =
        SweepRunner(random_options).run(specs, min_dark_statistic);
    EXPECT_EQ(result.completed, 8) << threads << " threads";
    EXPECT_GE(result.recovered, 1) << "no crash actually fired";
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(result.scenarios[i].value, clean.scenarios[i].value)
          << "scenario " << i << " at " << threads << " threads";
      EXPECT_EQ(result.scenarios[i].json, clean.scenarios[i].json);
    }
  }
}

TEST(Sweep, RetriesResumeFromTheLatestValidCheckpoint) {
  const std::vector<ScenarioSpec> specs{scenario("retry", 200, 11, 3000)};
  const SweepResult clean =
      SweepRunner(sweep_options(1)).run(specs, min_dark_statistic);
  ASSERT_EQ(clean.completed, 1);

  // Tear the very checkpoint file the crash leaves behind: the retry
  // must detect the torn file and restart from scratch.
  const std::string dir = ::testing::TempDir() + "divpp_sweep_torn";
  std::filesystem::remove_all(dir);
  FaultSpec torn;
  torn.kind = FaultKind::kTornWrite;
  torn.at_window = 2;
  FaultSpec crash;
  crash.kind = FaultKind::kCrash;
  crash.at_window = 2;
  const FaultSchedule torn_then_crash({torn, crash});
  SweepOptions options = sweep_options(1);
  options.sweep_dir = dir;
  options.faults = &torn_then_crash;
  const SweepResult restarted =
      SweepRunner(options).run(specs, min_dark_statistic);
  ASSERT_EQ(restarted.completed, 1);
  const ScenarioReport& fresh = restarted.scenarios[0];
  EXPECT_EQ(fresh.outcome, ScenarioOutcome::kRecovered);
  EXPECT_EQ(fresh.attempts, 2);
  EXPECT_EQ(fresh.resumes, 0) << "a torn checkpoint must not be resumed";
  EXPECT_EQ(fresh.value, clean.scenarios[0].value);

  // One 300 ms stall against a 50 ms deadline, in-memory checkpoints:
  // attempt 1 overruns (the cooperative watchdog sees it at the next
  // boundary), the retry resumes stall-free from the last checkpoint.
  FaultSpec latency;
  latency.kind = FaultKind::kLatency;
  latency.at_window = 0;
  latency.latency_us = 300'000;
  const FaultSchedule stall({latency});
  options = sweep_options(1);
  options.faults = &stall;
  options.scenario_deadline_seconds = 0.05;
  const SweepResult overran =
      SweepRunner(options).run(specs, min_dark_statistic);
  ASSERT_EQ(overran.completed, 1);
  const ScenarioReport& resumed = overran.scenarios[0];
  EXPECT_EQ(resumed.outcome, ScenarioOutcome::kRecovered);
  EXPECT_GE(resumed.resumes, 1);
  EXPECT_EQ(resumed.value, clean.scenarios[0].value);
}

TEST(Sweep, DrainMidSweepThenResumeFinishesBitIdentically) {
  const std::vector<ScenarioSpec> specs = mixed_specs(24);
  const std::string dir = ::testing::TempDir() + "divpp_sweep_drain";
  std::filesystem::remove_all(dir);

  // Reference values from dedicated runs.
  std::map<std::string, double> reference;
  for (const ScenarioSpec& spec : specs)
    reference[spec.name] = dedicated_value(spec);

  SweepOptions options = sweep_options(2);
  options.sweep_dir = dir;
  SweepRunner runner(options);
  // Drain from inside the sweep, deterministically: after the fifth
  // completed statistic, request a graceful stop.
  std::atomic<int> done{0};
  const SweepRunner::Statistic draining_statistic =
      [&](const CountSimulation& sim) {
        if (done.fetch_add(1) + 1 == 5) runner.request_drain();
        return min_dark_statistic(sim);
      };
  const SweepResult first = runner.run(specs, draining_statistic);

  EXPECT_TRUE(first.drain_requested);
  EXPECT_GE(first.completed, 5);
  EXPECT_GE(first.drained, 1) << "24 scenarios on 2 threads: the drain "
                                 "must catch some of them";
  EXPECT_EQ(first.completed + first.drained,
            static_cast<std::int64_t>(specs.size()));
  for (const ScenarioReport& report : first.scenarios) {
    if (report.outcome == ScenarioOutcome::kOk ||
        report.outcome == ScenarioOutcome::kRecovered) {
      EXPECT_EQ(report.value, reference[report.name]);
    }
  }

  // Resume finishes the drained scenarios — values bit-identical to the
  // dedicated runs, finished ones kept from the manifest.
  const SweepResult second = runner.resume(specs, min_dark_statistic);
  EXPECT_EQ(second.completed, static_cast<std::int64_t>(specs.size()));
  EXPECT_EQ(second.drained, 0);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ScenarioReport& report = second.scenarios[i];
    EXPECT_EQ(report.value, reference[report.name])
        << "scenario " << report.name;
    EXPECT_FALSE(report.json.empty());
  }
}

TEST(Sweep, DrainOnOneThreadStartsNothingAfterTheRequest) {
  // One worker claims scenarios in order, so a drain requested from the
  // first statistic call leaves every later scenario unstarted.
  const std::vector<ScenarioSpec> specs = mixed_specs(6);
  SweepRunner runner(sweep_options(1));
  std::atomic<int> calls{0};
  const SweepRunner::Statistic draining_statistic =
      [&](const CountSimulation& sim) {
        calls.fetch_add(1);
        runner.request_drain();
        return min_dark_statistic(sim);
      };
  const SweepResult result = runner.run(specs, draining_statistic);

  EXPECT_TRUE(result.drain_requested);
  EXPECT_EQ(result.completed, 1);
  EXPECT_EQ(result.drained, static_cast<std::int64_t>(specs.size()) - 1);
  EXPECT_EQ(calls.load(), 1);
  ASSERT_EQ(result.scenarios.size(), specs.size());
  EXPECT_EQ(result.scenarios[0].outcome, ScenarioOutcome::kOk);
  EXPECT_EQ(result.scenarios[0].value, dedicated_value(specs[0]));
  for (std::size_t i = 1; i < specs.size(); ++i) {
    EXPECT_EQ(result.scenarios[i].outcome, ScenarioOutcome::kDrained)
        << "scenario " << i;
    EXPECT_EQ(result.scenarios[i].attempts, 0) << "scenario " << i;
  }
}

TEST(Sweep, ResumeRefusesMismatchedSpecs) {
  std::vector<ScenarioSpec> specs = mixed_specs(3);
  const std::string dir = ::testing::TempDir() + "divpp_sweep_mismatch";
  std::filesystem::remove_all(dir);
  SweepOptions options = sweep_options(2);
  options.sweep_dir = dir;
  SweepRunner runner(options);
  (void)runner.run(specs, min_dark_statistic);

  specs[1].name = "imposter";
  EXPECT_THROW((void)runner.resume(specs, min_dark_statistic),
               std::invalid_argument);
  specs.pop_back();
  EXPECT_THROW((void)runner.resume(specs, min_dark_statistic),
               std::invalid_argument);
}

TEST(Sweep, CleanupOnSuccessKeepsTheQuarantinedCheckpoint) {
  const std::vector<ScenarioSpec> specs = mixed_specs(6);
  const std::string dir = ::testing::TempDir() + "divpp_sweep_cleanup";
  std::filesystem::remove_all(dir);

  FaultSpec crash;
  crash.kind = FaultKind::kCrash;
  crash.at_window = 1;
  crash.replica = 3;
  const FaultSchedule schedule({crash});
  SweepOptions options = sweep_options(2);
  options.sweep_dir = dir;
  options.cleanup_on_success = true;
  options.max_retries = 0;
  options.faults = &schedule;
  const SweepResult result =
      SweepRunner(options).run(specs, min_dark_statistic);

  ASSERT_EQ(result.quarantined, 1);
  ASSERT_EQ(result.scenarios[3].outcome, ScenarioOutcome::kQuarantined);
  EXPECT_TRUE(std::filesystem::exists(dir + "/scenario_3.ckpt"))
      << "quarantine must keep the post-mortem checkpoint";
  for (const std::size_t i : {0u, 1u, 2u, 4u, 5u})
    EXPECT_FALSE(std::filesystem::exists(dir + "/scenario_" +
                                         std::to_string(i) + ".ckpt"))
        << "completed scenario " << i << " must be cleaned up";
  EXPECT_TRUE(std::filesystem::exists(dir + "/sweep.manifest"));
}

TEST(Sweep, CorruptManifestsAreRefusedNeverHalfResumed) {
  // PR 9 satellite: a damaged manifest must be a clean, structured
  // refusal — std::invalid_argument before ANY scenario re-runs — for
  // every truncation point and for a table of field mutations.  All
  // corrupted payloads are re-written through write_durable so their
  // CRC is valid: these must be caught by the parser, not the framing.
  const std::vector<ScenarioSpec> specs = mixed_specs(4);
  const std::string dir = ::testing::TempDir() + "divpp_sweep_corrupt";
  std::filesystem::remove_all(dir);
  SweepOptions options = sweep_options(2);
  options.sweep_dir = dir;
  SweepRunner runner(options);
  const SweepResult original = runner.run(specs, min_dark_statistic);
  ASSERT_EQ(original.completed, 4);

  const std::string manifest = dir + "/sweep.manifest";
  const std::string text = divpp::fault::read_durable(manifest);

  // Any execution during a refused resume would be a half-resume.
  std::atomic<int> executed{0};
  const SweepRunner::Statistic counting = [&](const CountSimulation& sim) {
    executed.fetch_add(1);
    return min_dark_statistic(sim);
  };
  const auto expect_refused = [&](const std::string& corrupted,
                                  const std::string& what) {
    divpp::fault::write_durable(manifest, corrupted);
    EXPECT_THROW((void)runner.resume(specs, counting), std::invalid_argument)
        << what;
    EXPECT_EQ(executed.load(), 0) << "half-resumed after " << what;
  };

  // Every truncation point.  The single benign prefix — dropping only
  // the final newline — parses identically and is asserted below.
  const std::string sans_newline = text.substr(0, text.size() - 1);
  for (std::size_t keep = 0; keep < text.size(); ++keep) {
    const std::string prefix = text.substr(0, keep);
    if (prefix == sans_newline) continue;
    expect_refused(prefix, "truncation at byte " + std::to_string(keep));
  }
  divpp::fault::write_durable(manifest, sans_newline);
  const SweepResult intact = runner.resume(specs, counting);
  EXPECT_EQ(executed.load(), 0);
  for (std::size_t i = 0; i < specs.size(); ++i)
    EXPECT_EQ(intact.scenarios[i].json, original.scenarios[i].json);

  // Field-mutation table.  Lines: [0] header, [1..4] scenarios, [5] end.
  std::vector<std::string> lines;
  for (std::size_t begin = 0; begin < text.size();) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  ASSERT_EQ(lines.size(), 6U);
  const auto with_line = [&](std::size_t index, const std::string& line) {
    std::vector<std::string> mutated = lines;
    mutated[index] = line;
    std::string out;
    for (const std::string& l : mutated) out += l + "\n";
    return out;
  };
  const std::string name0 = "\"" + specs[0].name + "\"";
  const struct {
    const char* what;
    std::string payload;
  } mutations[] = {
      {"wrong format version", with_line(0, "divpp-sweep-v2 4")},
      {"wrong scenario count", with_line(0, "divpp-sweep-v1 5")},
      {"garbage header", with_line(0, "divpp")},
      {"wrong line keyword", with_line(1, "scenariox 0 ok 1 0 0x0p+0 " +
                                              name0 + " \"\"")},
      {"wrong scenario index", with_line(1, "scenario 9 ok 1 0 0x0p+0 " +
                                                name0 + " \"\"")},
      {"unknown status", with_line(1, "scenario 0 exploded 1 0 0x0p+0 " +
                                          name0 + " \"\"")},
      {"drained status (persisted as pending)",
       with_line(1, "scenario 0 drained 1 0 0x0p+0 " + name0 + " \"\"")},
      {"negative attempts", with_line(1, "scenario 0 ok -1 0 0x0p+0 " +
                                             name0 + " \"\"")},
      {"non-numeric attempts", with_line(1, "scenario 0 ok abc 0 0x0p+0 " +
                                                name0 + " \"\"")},
      {"bad value hexfloat", with_line(1, "scenario 0 ok 1 0 zzz " + name0 +
                                              " \"\"")},
      {"unterminated name quote",
       with_line(1, "scenario 0 ok 1 0 0x0p+0 \"" + specs[0].name + " \"\"")},
      {"name of a different sweep",
       with_line(1, "scenario 0 ok 1 0 0x0p+0 \"imposter\" \"\"")},
      {"trailing junk on a scenario line", with_line(1, lines[1] + " junk")},
      {"missing end marker", with_line(5, "End")},
      {"trailing junk after end", text + "junk\n"},
      {"duplicated scenario line", with_line(2, lines[1])},
  };
  for (const auto& mutation : mutations)
    expect_refused(mutation.payload, mutation.what);

  // Raw (unframed) garbage never even reaches the parser: the durable
  // layer rejects it as a torn/corrupt file.
  {
    std::ofstream out(manifest, std::ios::binary | std::ios::trunc);
    out << "not a durable blob";
  }
  EXPECT_THROW((void)runner.resume(specs, counting),
               divpp::fault::DurableFileError);
  EXPECT_EQ(executed.load(), 0);
}

TEST(Sweep, ManifestMatchesThePinnedFormat) {
  // The manifest bytes as stored on disk: a json-quoted name holding
  // quotes and a backslash, a "%a" hexfloat value, an empty error.  Being
  // a literal, it fails a writer and reader that drift together.
  const std::string pinned =
      "divpp-sweep-v1 1\n"
      "scenario 0 ok 1 0 0x1.5555555555555p-2 "
      "\"pin \\\"quoted\\\" \\\\ name\" \"\"\n"
      "end\n";
  ScenarioSpec spec = scenario("pin \"quoted\" \\ name", 500,
                               0x9e3779b97f4a7c15ULL, 2000, Engine::kJump);
  spec.weights = WeightMap({1.0, 2.5, 1.0 + 1.0 / 3.0});
  spec.start = ScenarioSpec::Start::kAdversarial;
  const std::string dir = ::testing::TempDir() + "divpp_sweep_pinned";
  std::filesystem::remove_all(dir);
  SweepOptions options = sweep_options(1);
  options.sweep_dir = dir;
  SweepRunner runner(options);
  std::atomic<int> executed{0};
  const SweepRunner::Statistic third = [&](const CountSimulation&) {
    executed.fetch_add(1);
    return 1.0 / 3.0;
  };
  (void)runner.run({spec}, third);
  const std::string manifest = dir + "/sweep.manifest";
  EXPECT_EQ(divpp::fault::read_durable(manifest), pinned);

  divpp::fault::write_durable(manifest, pinned);
  const SweepResult resumed = runner.resume({spec}, third);
  EXPECT_EQ(executed.load(), 1) << "a finished scenario must not re-run";
  ASSERT_EQ(resumed.scenarios.size(), 1U);
  EXPECT_EQ(resumed.scenarios[0].outcome, ScenarioOutcome::kOk);
  EXPECT_EQ(resumed.scenarios[0].value, 1.0 / 3.0);
  EXPECT_EQ(resumed.scenarios[0].error, "");
  EXPECT_EQ(divpp::fault::read_durable(manifest), pinned);
}

}  // namespace
