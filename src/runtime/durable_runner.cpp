#include "runtime/durable_runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <thread>
#include <utility>

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
  const fault::FaultSchedule* faults = nullptr;
  bool audit = false;
#if DIVPP_FAULTS
  faults = config.faults != nullptr && !config.faults->empty()
               ? config.faults
               : nullptr;
  audit = faults != nullptr && faults->needs_draw_audit();
#endif
  const auto start = Clock::now();
  rng::Xoshiro256 window_start_gen = gen;
  std::int64_t draws = config.draws_offset;
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
    // Shed float drift exactly where a restore would rebuild from
    // scratch — this is what aligns golden and resumed trajectories.
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
#if DIVPP_FAULTS
    if (faults != nullptr) faults->fire_before_checkpoint(boundary);
#endif
    if (!config.checkpoint_path.empty())
      fault::write_durable(config.checkpoint_path, blob);
    if (config.on_checkpoint) config.on_checkpoint(blob);
#if DIVPP_FAULTS
    if (faults != nullptr) faults->fire_after_checkpoint(boundary);
#else
    (void)boundary;
#endif
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

RecoveryResult run_with_recovery(
    const RecoveryPolicy& policy, std::string& latest,
    const std::function<void(std::optional<core::ResumedRun>)>& attempt) {
  if (!attempt)
    throw std::invalid_argument("run_with_recovery: empty attempt");
  if (policy.max_retries < 0)
    throw std::invalid_argument("run_with_recovery: negative max_retries");
  if (policy.backoff_initial_ms < 0 || policy.backoff_cap_ms < 0)
    throw std::invalid_argument("run_with_recovery: negative backoff");
  RecoveryResult result;
  for (int att = 0;; ++att) {
    result.attempts = att + 1;
    try {
      // Recover the most recent usable state: the latest *valid*
      // checkpoint, else from scratch.  A torn or corrupt file is
      // detected (DurableFileError / invalid_argument), never silently
      // loaded.
      std::optional<core::ResumedRun> resumed;
      if (att > 0 || policy.resume_first_attempt) {
        std::string blob = latest;
        if (!policy.checkpoint_path.empty()) {
          try {
            blob = fault::read_durable(policy.checkpoint_path);
          } catch (const fault::DurableFileError&) {
            blob.clear();
          }
        }
        if (!blob.empty()) {
          try {
            resumed = core::resume_run_from_checkpoint(blob);
          } catch (const std::invalid_argument&) {
          }
        }
      }
      if (resumed.has_value()) ++result.resumes;
      attempt(std::move(resumed));
      result.completed = true;
      return result;
    } catch (const std::exception& error) {
      result.error = error.what();
      if (att >= policy.max_retries) return result;
      const double delay_ms = std::min(
          policy.backoff_cap_ms,
          policy.backoff_initial_ms *
              static_cast<double>(std::int64_t{1} << std::min(att, 40)));
      if (delay_ms > 0)
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(delay_ms));
    }
  }
}

DurableBatchRunner::DurableBatchRunner(DurableBatchOptions options)
    : options_(std::move(options)), runner_(options_.threads) {
  if (options_.checkpoint_period <= 0)
    throw std::invalid_argument(
        "DurableBatchRunner: checkpoint_period must be > 0");
  if (options_.max_retries < 0)
    throw std::invalid_argument("DurableBatchRunner: negative max_retries");
  if (options_.backoff_initial_ms < 0 || options_.backoff_cap_ms < 0)
    throw std::invalid_argument("DurableBatchRunner: negative backoff");
}

DurableBatchResult DurableBatchRunner::run(
    std::int64_t replicas, std::uint64_t seed,
    const core::CountSimulation& initial, const Statistic& statistic) {
  if (!statistic)
    throw std::invalid_argument("DurableBatchRunner: empty statistic");
  const fault::FaultSchedule* faults =
      options_.faults != nullptr ? options_.faults : &fault::global();

  std::vector<ReplicaReport> reports =
      runner_.map(replicas, seed, [&](std::int64_t r, rng::Xoshiro256& gen) {
        // The stream a from-scratch restart replays — replica_rng(seed, r)
        // by BatchRunner's contract, so recovery never changes streams.
        const rng::Xoshiro256 fresh = gen;
        const std::string path =
            options_.checkpoint_dir.empty()
                ? std::string()
                : options_.checkpoint_dir + "/replica_" + std::to_string(r) +
                      ".ckpt";
        std::string latest;  // in-memory fallback checkpoint

        RecoveryPolicy policy;
        policy.max_retries = options_.max_retries;
        policy.backoff_initial_ms = options_.backoff_initial_ms;
        policy.backoff_cap_ms = options_.backoff_cap_ms;
        policy.checkpoint_path = path;

        double value = 0.0;
        const RecoveryResult recovery = run_with_recovery(
            policy, latest,
            [&](std::optional<core::ResumedRun> resumed) {
              core::CountSimulation sim =
                  resumed.has_value() ? std::move(resumed->sim) : initial;
              rng::Xoshiro256 run_gen =
                  resumed.has_value() ? resumed->gen : fresh;

              DurableRunConfig config;
              config.engine = options_.engine;
              config.target_time = options_.target_time;
              config.checkpoint_period = options_.checkpoint_period;
              config.checkpoint_path = path;
              config.on_checkpoint = [&latest](const std::string& blob) {
                latest = blob;
              };
              config.deadline_seconds = options_.replica_deadline_seconds;
              config.faults = faults;
              config.replica = r;
              run_windows(sim, run_gen, config);

              value = statistic(sim);
            });

        ReplicaReport report;
        report.attempts = recovery.attempts;
        report.resumes = recovery.resumes;
        report.error = recovery.error;
        if (!recovery.completed) {
          report.outcome = ReplicaOutcome::kQuarantined;
          return report;  // quarantine keeps the checkpoint for post-mortem
        }
        report.value = value;
        report.outcome = recovery.attempts == 1 ? ReplicaOutcome::kOk
                                                : ReplicaOutcome::kRecovered;
        if (options_.cleanup_on_success && !path.empty())
          std::remove(path.c_str());
        return report;
      });

  DurableBatchResult out;
  out.replicas = std::move(reports);
  for (const ReplicaReport& report : out.replicas) {
    if (report.outcome == ReplicaOutcome::kQuarantined) {
      ++out.quarantined;
    } else {
      ++out.completed;
      out.stats.add(report.value);
    }
  }
  out.timing = runner_.last_timing();
  return out;
}

}  // namespace divpp::runtime
