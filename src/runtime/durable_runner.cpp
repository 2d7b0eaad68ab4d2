#include "runtime/durable_runner.h"

#include <chrono>

#include "check/counting_generator.h"
#include "core/checkpoint.h"
#include "fault/durable_file.h"
#include "runtime/window_math.h"

namespace divpp::runtime {

namespace {

using Clock = std::chrono::steady_clock;

void validate_config(const core::CountSimulation& counts,
                     const DurableRunConfig& config) {
  if (config.checkpoint_period <= 0)
    throw std::invalid_argument("run_windows: checkpoint_period must be > 0");
  if (config.target_time < counts.time())
    throw std::invalid_argument(
        "run_windows: target_time is before the simulation clock");
  if (config.deadline_seconds < 0)
    throw std::invalid_argument("run_windows: negative deadline");
}

/// The windowed driver, shared by the untagged and tagged runs.  `Sim`
/// provides time()/advance_with()/canonicalize(); `counts` is the
/// wrapped CountSimulation (== sim for the untagged case).
template <class Sim>
std::string drive_windows(Sim& sim, const core::CountSimulation& counts,
                          rng::Xoshiro256& gen,
                          const DurableRunConfig& config) {
  validate_config(counts, config);
  const fault::FaultSchedule* faults =
      config.faults != nullptr && !config.faults->empty() ? config.faults
                                                          : nullptr;
  const bool audit = faults != nullptr && faults->needs_draw_audit();
  const auto start = Clock::now();
  rng::Xoshiro256 window_start_gen = gen;
  std::int64_t draws = 0;
  const std::int64_t period = config.checkpoint_period;
  std::string blob;
  std::int64_t now = sim.time();
  while (now < config.target_time) {
    const std::int64_t prev = now;
    // Next period-aligned boundary (absolute time), clamped to target
    // (runtime/window_math.h), so a resumed run visits the same
    // boundary sequence as the run it resumes.
    const std::int64_t next =
        next_window_boundary(now, period, config.target_time);
    sim.advance_with(config.engine, next, gen);
    // Rebuild derived state exactly where a restore would rebuild it
    // from scratch — this is what aligns golden and resumed trajectories.
    sim.canonicalize();
    now = next;
    if (audit) {
      const std::int64_t d = check::draws_between(
          window_start_gen, gen, check::CountingBitGenerator::kDefaultReplayCap);
      if (d < 0)
        throw std::runtime_error(
            "run_windows: draw audit lost the stream (window exceeded the "
            "replay cap)");
      draws += d;
      window_start_gen = gen;
    }
    if (config.deadline_seconds > 0) {
      const double elapsed =
          std::chrono::duration_cast<std::chrono::duration<double>>(
              Clock::now() - start)
              .count();
      if (elapsed > config.deadline_seconds)
        throw DeadlineExceeded(
            "run_windows: replica " + std::to_string(config.replica) +
            " overran its deadline at time " + std::to_string(now));
    }
    blob = core::to_checkpoint_v2(sim, gen);
    const fault::Boundary boundary{config.replica,
                                   window_index_at(now, period), prev, now,
                                   audit ? draws : -1};
    if (faults != nullptr) faults->fire_before_checkpoint(boundary);
    if (!config.checkpoint_path.empty())
      fault::write_durable(config.checkpoint_path, blob);
    if (config.on_checkpoint) config.on_checkpoint(blob);
    if (faults != nullptr) faults->fire_after_checkpoint(boundary);
    // Drain check last: the boundary's checkpoint is already durable, so
    // a stopped run parks in a resumable state.
    if (config.should_stop && config.should_stop()) break;
  }
  // Already at the target (no boundary ran): still report final state.
  if (blob.empty()) blob = core::to_checkpoint_v2(sim, gen);
  return blob;
}

}  // namespace

std::string run_windows(core::CountSimulation& sim, rng::Xoshiro256& gen,
                        const DurableRunConfig& config) {
  return drive_windows(sim, sim, gen, config);
}

std::string run_windows(core::TaggedCountSimulation& sim,
                        rng::Xoshiro256& gen,
                        const DurableRunConfig& config) {
  return drive_windows(sim, sim.counts(), gen, config);
}

}  // namespace divpp::runtime
