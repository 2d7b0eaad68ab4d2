// Tests for the durable runtime (PR 7).  The headline contract: kill a
// windowed run at an arbitrary checkpoint boundary under any engine
// (step/jump/batch/auto, untagged and tagged), resume from the last
// checkpoint, and the final state — counts, clock, and 256-bit RNG
// state — is bit-identical to the uninterrupted run.  The retry loop
// that heals many runs from these checkpoints is SweepRunner's; its
// crash, torn-checkpoint, quarantine and deadline cases live in
// tests/test_sweep.cpp.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/count_simulation.h"
#include "core/weights.h"
#include "fault/fault.h"
#include "rng/xoshiro.h"
#include "runtime/durable_runner.h"

namespace {

using divpp::core::CountSimulation;
using divpp::core::Engine;
using divpp::core::TaggedCountSimulation;
using divpp::core::WeightMap;
using divpp::fault::FaultKind;
using divpp::fault::FaultSchedule;
using divpp::fault::FaultSpec;
using divpp::fault::InjectedFault;
using divpp::fault::SimulatedCrash;
using divpp::rng::Xoshiro256;
using divpp::runtime::DurableRunConfig;
using divpp::runtime::run_windows;

constexpr std::int64_t kPeriod = 1000;
constexpr std::int64_t kTarget = 5500;  // boundaries at 1000..5000 and 5500

const std::vector<Engine> kEngines = {Engine::kStep, Engine::kJump,
                                      Engine::kBatch, Engine::kAuto};

CountSimulation make_initial() {
  return CountSimulation::adversarial_start(WeightMap({1.0, 2.0, 3.5}), 400);
}

FaultSpec crash_at_window(std::int64_t window) {
  FaultSpec spec;
  spec.kind = FaultKind::kCrash;
  spec.at_window = window;
  return spec;
}

DurableRunConfig windowed_config(Engine engine, std::string* latest,
                                 const FaultSchedule* faults = nullptr) {
  DurableRunConfig config;
  config.engine = engine;
  config.target_time = kTarget;
  config.checkpoint_period = kPeriod;
  config.faults = faults;
  if (latest != nullptr)
    config.on_checkpoint = [latest](const std::string& blob) {
      *latest = blob;
    };
  return config;
}

// ---- the headline bit-identity contract --------------------------------

TEST(DurableRun, KillAndResumeIsBitIdenticalForEveryEngine) {
  for (const Engine engine : kEngines) {
    // Golden: the uninterrupted windowed run.
    CountSimulation golden_sim = make_initial();
    Xoshiro256 golden_gen(99);
    const std::string golden =
        run_windows(golden_sim, golden_gen, windowed_config(engine, nullptr));

    // Kill at every checkpoint boundary in turn and resume.
    const std::int64_t boundaries = (kTarget - 1) / kPeriod + 1;
    for (std::int64_t w = 0; w < boundaries; ++w) {
      const FaultSchedule schedule({crash_at_window(w)});
      CountSimulation sim = make_initial();
      Xoshiro256 gen(99);
      std::string latest;
      std::string final_blob;
      try {
        final_blob =
            run_windows(sim, gen, windowed_config(engine, &latest, &schedule));
        ADD_FAILURE() << "crash at window " << w << " did not fire";
      } catch (const SimulatedCrash&) {
        ASSERT_FALSE(latest.empty());
        auto resumed = divpp::core::resume_run_from_checkpoint(latest);
        final_blob = run_windows(resumed.sim, resumed.gen,
                                 windowed_config(engine, &latest, &schedule));
      }
      EXPECT_EQ(final_blob, golden)
          << divpp::core::engine_name(engine) << " engine, crash at window "
          << w;
    }
  }
}

TEST(DurableRun, KillAndResumeIsBitIdenticalForTaggedRuns) {
  for (const Engine engine : kEngines) {
    TaggedCountSimulation golden_sim(make_initial(), /*tagged_color=*/0,
                                     /*tagged_dark=*/true);
    Xoshiro256 golden_gen(7);
    const std::string golden =
        run_windows(golden_sim, golden_gen, windowed_config(engine, nullptr));
    EXPECT_TRUE(divpp::core::checkpoint_v2_is_tagged(golden));

    const std::int64_t boundaries = (kTarget - 1) / kPeriod + 1;
    for (std::int64_t w = 0; w < boundaries; ++w) {
      const FaultSchedule schedule({crash_at_window(w)});
      TaggedCountSimulation sim(make_initial(), 0, true);
      Xoshiro256 gen(7);
      std::string latest;
      std::string final_blob;
      try {
        final_blob =
            run_windows(sim, gen, windowed_config(engine, &latest, &schedule));
        ADD_FAILURE() << "crash at window " << w << " did not fire";
      } catch (const SimulatedCrash&) {
        ASSERT_FALSE(latest.empty());
        auto resumed = divpp::core::resume_tagged_run_from_checkpoint(latest);
        final_blob = run_windows(resumed.sim, resumed.gen,
                                 windowed_config(engine, &latest, &schedule));
      }
      EXPECT_EQ(final_blob, golden)
          << divpp::core::engine_name(engine) << " engine, crash at window "
          << w;
    }
  }
}

// ---- run_windows mechanics ---------------------------------------------

TEST(DurableRun, ValidatesItsConfig) {
  CountSimulation sim = make_initial();
  Xoshiro256 gen(1);
  DurableRunConfig config;
  config.target_time = 100;
  config.checkpoint_period = 0;
  EXPECT_THROW((void)run_windows(sim, gen, config), std::invalid_argument);
  config.checkpoint_period = 10;
  config.target_time = -1;
  EXPECT_THROW((void)run_windows(sim, gen, config), std::invalid_argument);
}

TEST(DurableRun, AlreadyAtTargetReturnsTheCurrentState) {
  CountSimulation sim = make_initial();
  Xoshiro256 gen(3);
  DurableRunConfig config;
  config.target_time = sim.time();
  config.checkpoint_period = 100;
  const std::string blob = run_windows(sim, gen, config);
  EXPECT_EQ(blob, divpp::core::to_checkpoint_v2(sim, gen));
}

TEST(DurableRun, DrawTriggeredFaultFiresUnderAudit) {
  FaultSpec spec;
  spec.kind = FaultKind::kException;
  spec.at_draws = 1;
  const FaultSchedule eager({spec});
  CountSimulation sim = make_initial();
  Xoshiro256 gen(5);
  DurableRunConfig config;
  config.engine = Engine::kJump;
  config.target_time = 2000;
  config.checkpoint_period = kPeriod;
  config.faults = &eager;
  EXPECT_THROW((void)run_windows(sim, gen, config), InjectedFault);

  // A far-away draw trigger never fires on this short run.
  spec.at_draws = std::int64_t{1} << 40;
  const FaultSchedule distant({spec});
  CountSimulation sim2 = make_initial();
  Xoshiro256 gen2(5);
  config.faults = &distant;
  EXPECT_NO_THROW((void)run_windows(sim2, gen2, config));
}

TEST(DurableRun, ShouldStopParksAtADurableBoundary) {
  // Golden: the uninterrupted run.
  CountSimulation golden_sim = make_initial();
  Xoshiro256 golden_gen(17);
  const std::string golden =
      run_windows(golden_sim, golden_gen,
                  windowed_config(Engine::kBatch, nullptr));

  // Drain after two boundaries, then resume from the parked checkpoint:
  // the final state must be bit-identical to the uninterrupted run.
  CountSimulation sim = make_initial();
  Xoshiro256 gen(17);
  std::string latest;
  int boundaries = 0;
  DurableRunConfig config = windowed_config(Engine::kBatch, &latest);
  config.should_stop = [&boundaries] { return ++boundaries >= 2; };
  const std::string parked = run_windows(sim, gen, config);
  EXPECT_EQ(sim.time(), 2 * kPeriod) << "parked mid-run, not at target";
  EXPECT_EQ(parked, latest) << "the parked blob is the persisted boundary";

  auto resumed = divpp::core::resume_run_from_checkpoint(parked);
  const std::string final_blob =
      run_windows(resumed.sim, resumed.gen,
                  windowed_config(Engine::kBatch, nullptr));
  EXPECT_EQ(final_blob, golden);
}

}  // namespace
