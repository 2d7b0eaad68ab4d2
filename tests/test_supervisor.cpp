// Tests for process-isolated sweep supervision (PR 9): the wire
// protocol round-trips bit-exactly, a fault-free supervised sweep is
// byte-identical to the in-process path, a real SIGSEGV kills one
// worker and the scenario respawns-and-resumes bit-identically, a
// crash-looping scenario is quarantined alone (checkpoint kept), and
// the heartbeat watchdog kills a wedged worker within the hang timeout
// — the preemptive enforcement the cooperative in-process deadline
// cannot provide (the contract pinned in runtime/durable_runner.h).

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/count_simulation.h"
#include "core/weights.h"
#include "fault/fault.h"
#include "rng/xoshiro.h"
#include "runtime/durable_runner.h"
#include "runtime/supervisor.h"
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
namespace wire = divpp::runtime::wire;

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

/// Same mixed shape as test_sweep.cpp: varied populations, engines,
/// targets — several checkpoint windows each at kPeriod.
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

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "divpp_supervisor_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

SweepOptions supervised_options(const std::string& dir, int workers) {
  SweepOptions options;
  options.threads = 1;
  options.checkpoint_period = kPeriod;
  options.backoff_initial_ms = 0.0;
  options.sweep_dir = dir;
  options.supervision.enabled = true;
  options.supervision.workers = workers;
  return options;
}

/// The fault-free in-process reference sweep.  Scoped so its ThreadPool
/// is joined before any supervised runner forks (fork safety: the
/// forking process must be single-threaded).
SweepResult in_process_reference(const std::vector<ScenarioSpec>& specs,
                                 const FaultSchedule& none) {
  SweepOptions options;
  options.threads = 2;
  options.checkpoint_period = kPeriod;
  options.backoff_initial_ms = 0.0;
  options.faults = &none;
  SweepRunner runner(options);
  return runner.run(specs, min_dark_statistic);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// ---- wire protocol -----------------------------------------------------

TEST(SupervisorWire, FramesRoundTripThroughPartialDelivery) {
  std::string stream;
  wire::append_frame(stream, "hb 3");
  wire::append_frame(stream, "");  // empty payloads are legal frames
  wire::append_frame(stream, std::string("binary\0payload", 14));

  // Deliver one byte at a time: take_frame must wait for completeness
  // and then yield the exact payloads in order.
  std::string buffer;
  std::vector<std::string> frames;
  for (const char byte : stream) {
    buffer.push_back(byte);
    for (;;) {
      const std::optional<std::string> frame = wire::take_frame(buffer);
      if (!frame.has_value()) break;
      frames.push_back(*frame);
    }
  }
  ASSERT_EQ(frames.size(), 3U);
  EXPECT_EQ(frames[0], "hb 3");
  EXPECT_EQ(frames[1], "");
  EXPECT_EQ(frames[2], std::string("binary\0payload", 14));
  EXPECT_TRUE(buffer.empty());
}

TEST(SupervisorWire, OversizedFrameHeaderIsACorruptStream) {
  // A forged header claiming a 4 GiB payload must throw, not allocate.
  std::string buffer("\xff\xff\xff\xff", 4);
  EXPECT_THROW((void)wire::take_frame(buffer), std::invalid_argument);
}

TEST(SupervisorWire, RunCommandsRoundTripBitExactly) {
  ScenarioSpec spec;
  spec.name = "odd \"name\" with \\ and spaces";
  spec.n = 12345;
  // Weights that do not survive a decimal round trip unless hexfloats
  // carry them: nextafter(1), a repeating binary fraction, a big value.
  spec.weights = WeightMap(std::vector<double>{
      1.0, std::nextafter(1.0, 2.0), 2.0 + 1.0 / 3.0, 1e15 + 0.5});
  spec.start = ScenarioSpec::Start::kAdversarial;
  spec.engine = Engine::kJump;
  spec.target_time = 987654321;
  spec.seed = 0xdeadbeefcafebabeULL;

  const std::string payload = wire::encode_run(7, true, spec);
  const wire::RunCommand command = wire::decode_run(payload);

  EXPECT_EQ(command.index, 7U);
  EXPECT_TRUE(command.resuming);
  EXPECT_EQ(command.spec.name, spec.name);
  EXPECT_EQ(command.spec.n, spec.n);
  EXPECT_EQ(command.spec.start, spec.start);
  EXPECT_EQ(command.spec.engine, spec.engine);
  EXPECT_EQ(command.spec.target_time, spec.target_time);
  EXPECT_EQ(command.spec.seed, spec.seed);
  const auto sent = spec.weights.weights();
  const auto got = command.spec.weights.weights();
  ASSERT_EQ(sent.size(), got.size());
  for (std::size_t i = 0; i < sent.size(); ++i)
    EXPECT_TRUE(same_bits(sent[i], got[i]))
        << "weight " << i << " did not round trip bit-exactly";
}

TEST(SupervisorWire, DecodeRejectsMalformedPayloads) {
  const ScenarioSpec spec = scenario("ok", 100, 1, 2000);
  const std::string good = wire::encode_run(0, false, spec);
  EXPECT_NO_THROW((void)wire::decode_run(good));

  EXPECT_THROW((void)wire::decode_run(""), std::invalid_argument);
  EXPECT_THROW((void)wire::decode_run("quit"), std::invalid_argument);
  EXPECT_THROW((void)wire::decode_run("run 0"), std::invalid_argument);
  EXPECT_THROW((void)wire::decode_run(good + " junk"),
               std::invalid_argument);
  // Truncating anywhere before the last weight token must throw, never
  // misparse.  (Inside the final hexfloat a prefix can still be a valid
  // hexfloat — undetectable by any text codec — which is why frames are
  // length-prefixed: take_frame never delivers a truncated payload.)
  const std::size_t last_token = good.rfind(' ');
  for (std::size_t keep = 0; keep <= last_token; ++keep)
    EXPECT_THROW((void)wire::decode_run(good.substr(0, keep)),
                 std::invalid_argument)
        << "prefix of " << keep << " bytes was accepted";

  ASSERT_EQ(good.rfind("run 0 0 ", 0), 0U);
  std::string bad_flag = good;
  bad_flag.replace(6, 1, "2");  // the resuming flag must be 0 or 1
  EXPECT_THROW((void)wire::decode_run(bad_flag), std::invalid_argument);
}

TEST(SupervisorWire, RunFramesMatchThePinnedFormat) {
  // A run payload as workers receive it; being a literal, it fails a
  // writer and reader that drift together.
  const std::string pinned =
      "run 3 1 500 adversarial jump 2000 11400714819323198485 "
      "\"pin \\\"quoted\\\" \\\\ name\" 3 0x1p+0 0x1.4p+1 "
      "0x1.5555555555555p+0";
  ScenarioSpec spec;
  spec.name = "pin \"quoted\" \\ name";
  spec.n = 500;
  spec.weights = WeightMap({1.0, 2.5, 1.0 + 1.0 / 3.0});
  spec.start = ScenarioSpec::Start::kAdversarial;
  spec.engine = Engine::kJump;
  spec.target_time = 2000;
  spec.seed = 0x9e3779b97f4a7c15ULL;
  EXPECT_EQ(wire::encode_run(3, true, spec), pinned);

  const wire::RunCommand command = wire::decode_run(pinned);
  EXPECT_EQ(command.index, 3U);
  EXPECT_TRUE(command.resuming);
  EXPECT_EQ(command.spec.name, spec.name);
  EXPECT_EQ(command.spec.n, spec.n);
  EXPECT_EQ(command.spec.start, spec.start);
  EXPECT_EQ(command.spec.engine, spec.engine);
  EXPECT_EQ(command.spec.target_time, spec.target_time);
  EXPECT_EQ(command.spec.seed, spec.seed);
  ASSERT_EQ(command.spec.weights.num_colors(), 3);
  for (int i = 0; i < 3; ++i)
    EXPECT_TRUE(same_bits(command.spec.weights.weight(i),
                          spec.weights.weight(i)));
}

TEST(SupervisorWire, ResultFramesRoundTripAndRejectMalformed) {
  ScenarioReport report;
  report.outcome = ScenarioOutcome::kQuarantined;
  report.attempts = 3;
  report.resumes = 2;
  report.value = std::numeric_limits<double>::quiet_NaN();
  report.error = "boom: \"quoted\" \\ and a C:\\path\\";
  const std::string payload = wire::encode_result(9, report);
  const wire::ResultFrame frame = wire::decode_result(payload);
  EXPECT_EQ(frame.index, 9U);
  EXPECT_EQ(frame.report.outcome, report.outcome);
  EXPECT_EQ(frame.report.attempts, 3);
  EXPECT_EQ(frame.report.resumes, 2);
  EXPECT_TRUE(same_bits(frame.report.value, report.value));
  EXPECT_EQ(frame.report.error, report.error);

  ScenarioReport ok;
  ok.value = std::nextafter(1.0 / 3.0, 1.0);
  EXPECT_TRUE(same_bits(
      wire::decode_result(wire::encode_result(0, ok)).report.value,
      ok.value));

  // The error token ends the payload, so every proper prefix is
  // incomplete and must throw, never misparse.
  for (std::size_t keep = 0; keep < payload.size(); ++keep)
    EXPECT_THROW((void)wire::decode_result(payload.substr(0, keep)),
                 std::invalid_argument)
        << "prefix of " << keep << " bytes was accepted";
  EXPECT_THROW((void)wire::decode_result(payload + " junk"),
               std::invalid_argument);
  ASSERT_EQ(payload.rfind("res 9 quarantined 3 2 ", 0), 0U);
  std::string negative = payload;
  negative.replace(18, 1, "-3");
  EXPECT_THROW((void)wire::decode_result(negative), std::invalid_argument);
  negative = payload;
  negative.replace(20, 1, "-2");
  EXPECT_THROW((void)wire::decode_result(negative), std::invalid_argument);
  EXPECT_THROW((void)wire::decode_result(wire::encode_run(0, false, scenario(
                   "run", 100, 1, 2000))),
               std::invalid_argument);
}

// ---- configuration -----------------------------------------------------

TEST(Supervisor, SupervisionOptionsAreValidatedUpFront) {
  SweepOptions options;
  options.checkpoint_period = kPeriod;
  options.supervision.enabled = true;
  // No sweep_dir: respawn-and-resume needs checkpoints on disk.
  EXPECT_THROW(SweepRunner{options}, std::invalid_argument);

  options.sweep_dir = fresh_dir("validate");
  EXPECT_NO_THROW(SweepRunner{options});
  options.supervision.crash_loop_k = 0;
  EXPECT_THROW(SweepRunner{options}, std::invalid_argument);
  options.supervision.crash_loop_k = 3;
  options.supervision.hang_timeout_seconds = -1.0;
  EXPECT_THROW(SweepRunner{options}, std::invalid_argument);
  options.supervision.hang_timeout_seconds = 30.0;
  options.supervision.workers = -1;
  EXPECT_THROW(SweepRunner{options}, std::invalid_argument);
}

// ---- bit-identity ------------------------------------------------------

TEST(Supervisor, FaultFreeSupervisedSweepIsByteIdenticalToInProcess) {
  const std::vector<ScenarioSpec> specs = mixed_specs(10);
  const FaultSchedule none;
  const SweepResult reference = in_process_reference(specs, none);
  ASSERT_EQ(reference.completed, 10);

  const std::string dir = fresh_dir("identity");
  SweepOptions options = supervised_options(dir, 3);
  options.faults = &none;
  SweepRunner runner(options);
  const SweepResult supervised = runner.run(specs, min_dark_statistic);

  EXPECT_EQ(supervised.completed, 10);
  EXPECT_EQ(supervised.quarantined, 0);
  ASSERT_EQ(supervised.scenarios.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ScenarioReport& report = supervised.scenarios[i];
    EXPECT_EQ(report.outcome, ScenarioOutcome::kOk) << report.error;
    EXPECT_EQ(report.attempts, 1);
    EXPECT_TRUE(same_bits(report.value, reference.scenarios[i].value))
        << "scenario " << i << " value drifted across the process boundary";
    EXPECT_EQ(report.json, reference.scenarios[i].json)
        << "scenario " << i << " JSON must be byte-identical";
    EXPECT_TRUE(same_bits(report.value, dedicated_value(specs[i])));
  }
  EXPECT_TRUE(std::filesystem::exists(dir + "/sweep.manifest"));

  // resume() after a completed supervised sweep keeps every report
  // bit-identically from the manifest (nothing left to dispatch).
  const SweepResult resumed = runner.resume(specs, min_dark_statistic);
  EXPECT_EQ(resumed.completed, 10);
  for (std::size_t i = 0; i < specs.size(); ++i)
    EXPECT_EQ(resumed.scenarios[i].json, reference.scenarios[i].json);
}

// ---- real-fault containment ---------------------------------------------

TEST(Supervisor, SegvKillsOneWorkerAndTheScenarioRecoversBitIdentically) {
  const std::vector<ScenarioSpec> specs = mixed_specs(6);
  const FaultSchedule none;
  const SweepResult reference = in_process_reference(specs, none);

  // A real SIGSEGV in scenario 2 at its second checkpoint boundary.
  FaultSpec segv;
  segv.kind = FaultKind::kSegv;
  segv.at_window = 1;
  segv.replica = 2;
  const FaultSchedule one_segv({segv});

  SweepOptions options = supervised_options(fresh_dir("segv"), 2);
  options.faults = &one_segv;
  const SweepResult result =
      SweepRunner(options).run(specs, min_dark_statistic);

  EXPECT_EQ(result.completed, 6);
  EXPECT_EQ(result.recovered, 1);
  EXPECT_EQ(result.quarantined, 0);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ScenarioReport& report = result.scenarios[i];
    if (i == 2) {
      // The checkpoint at the faulted boundary was written before the
      // SIGSEGV, so the respawned worker resumes past the trigger.
      EXPECT_EQ(report.outcome, ScenarioOutcome::kRecovered);
      EXPECT_EQ(report.attempts, 2) << "one worker death + one clean run";
      EXPECT_GE(report.resumes, 1);
    } else {
      EXPECT_EQ(report.outcome, ScenarioOutcome::kOk) << report.error;
    }
    EXPECT_EQ(report.json, reference.scenarios[i].json)
        << "scenario " << i
        << " must be byte-identical to the fault-free in-process sweep";
  }
}

TEST(Supervisor, CrashLoopQuarantinesOnlyThePoisonedScenario) {
  const std::vector<ScenarioSpec> specs = mixed_specs(6);
  const FaultSchedule none;
  const SweepResult reference = in_process_reference(specs, none);

  // Poison scenario 1: tear the window-1 checkpoint, then SIGSEGV.
  // Every respawned worker restores a torn checkpoint, falls back to a
  // from-scratch run, and (fresh fault latches — each worker is a fresh
  // fork) tears and dies at window 1 again: a genuine crash loop.
  FaultSpec torn;
  torn.kind = FaultKind::kTornWrite;
  torn.at_window = 1;
  torn.replica = 1;
  FaultSpec segv;
  segv.kind = FaultKind::kSegv;
  segv.at_window = 1;
  segv.replica = 1;
  const FaultSchedule poison({torn, segv});

  const std::string dir = fresh_dir("crash_loop");
  SweepOptions options = supervised_options(dir, 2);
  options.faults = &poison;
  options.supervision.crash_loop_k = 2;
  const SweepResult result =
      SweepRunner(options).run(specs, min_dark_statistic);

  EXPECT_EQ(result.quarantined, 1);
  EXPECT_EQ(result.completed, 5);
  const ScenarioReport& poisoned = result.scenarios[1];
  EXPECT_EQ(poisoned.outcome, ScenarioOutcome::kQuarantined);
  EXPECT_EQ(poisoned.attempts, 2) << "crash_loop_k workers died";
  EXPECT_NE(poisoned.error.find("crash loop"), std::string::npos)
      << poisoned.error;
  EXPECT_NE(poisoned.error.find("checkpoint kept"), std::string::npos)
      << poisoned.error;
  EXPECT_TRUE(poisoned.json.empty());
  EXPECT_TRUE(std::filesystem::exists(dir + "/scenario_1.ckpt"))
      << "quarantine must keep the post-mortem checkpoint";
  for (const std::size_t i : {0u, 2u, 3u, 4u, 5u}) {
    EXPECT_EQ(result.scenarios[i].outcome, ScenarioOutcome::kOk)
        << result.scenarios[i].error;
    EXPECT_EQ(result.scenarios[i].json, reference.scenarios[i].json)
        << "scenario " << i << " must be unaffected by the crash loop";
  }
}

TEST(Supervisor, WorkerReportedQuarantineCrossesTheWire) {
  const std::vector<ScenarioSpec> specs = mixed_specs(4);

  // kOom is an in-worker failure (a bounded allocation storm ending in
  // std::bad_alloc), not a process death: with max_retries=0 the worker
  // itself quarantines the scenario and reports it over the pipe.
  FaultSpec oom;
  oom.kind = FaultKind::kOom;
  oom.at_window = 1;
  oom.replica = 3;
  const FaultSchedule one_oom({oom});

  SweepOptions options = supervised_options(fresh_dir("oom"), 2);
  options.faults = &one_oom;
  options.max_retries = 0;
  const SweepResult result =
      SweepRunner(options).run(specs, min_dark_statistic);

  EXPECT_EQ(result.completed, 3);
  EXPECT_EQ(result.quarantined, 1);
  const ScenarioReport& report = result.scenarios[3];
  EXPECT_EQ(report.outcome, ScenarioOutcome::kQuarantined);
  EXPECT_EQ(report.attempts, 1) << "no worker died: the failure was clean";
  EXPECT_FALSE(report.error.empty());
}

TEST(Supervisor, WatchdogKillsAWedgedWorkerWithinTheHangTimeout) {
  const std::vector<ScenarioSpec> specs = mixed_specs(3);
  const FaultSchedule none;
  const SweepResult reference = in_process_reference(specs, none);

  // Scenario 0 wedges (spins forever) right after its window-1
  // checkpoint.  In-process this is unrecoverable by contract — the
  // cooperative deadline of runtime/durable_runner.h is checked only at
  // boundaries a wedged window never reaches.  Under supervision the
  // heartbeat watchdog must SIGKILL the silent worker at the hang
  // timeout and resume the scenario past the trigger.
  FaultSpec hang;
  hang.kind = FaultKind::kHang;
  hang.at_window = 1;
  hang.replica = 0;
  const FaultSchedule one_hang({hang});

  constexpr double kHangTimeout = 1.5;
  SweepOptions options = supervised_options(fresh_dir("hang"), 2);
  options.faults = &one_hang;
  options.supervision.heartbeat_period_seconds = 0.05;
  options.supervision.hang_timeout_seconds = kHangTimeout;

  const auto start = std::chrono::steady_clock::now();
  const SweepResult result =
      SweepRunner(options).run(specs, min_dark_statistic);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  EXPECT_EQ(result.completed, 3);
  const ScenarioReport& wedged = result.scenarios[0];
  EXPECT_EQ(wedged.outcome, ScenarioOutcome::kRecovered) << wedged.error;
  EXPECT_EQ(wedged.attempts, 2) << "one watchdog kill + one clean resume";
  for (std::size_t i = 0; i < specs.size(); ++i)
    EXPECT_EQ(result.scenarios[i].json, reference.scenarios[i].json);

  // The kill can only happen after hang_timeout of silence, and the
  // whole sweep (scenarios are millisecond-scale) must finish well
  // within a small multiple of it — i.e. the wedged worker was killed
  // at the timeout, not after some much larger stall.
  EXPECT_GE(elapsed, kHangTimeout);
  EXPECT_LT(elapsed, 6.0 * kHangTimeout)
      << "the watchdog did not fire near the hang timeout";
}

}  // namespace
