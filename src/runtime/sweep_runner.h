#ifndef DIVPP_RUNTIME_SWEEP_RUNNER_H
#define DIVPP_RUNTIME_SWEEP_RUNNER_H

/// \file sweep_runner.h
/// Resilient scenario sweeps: M heterogeneous scenarios (mixed n, k, w,
/// engines, targets) multiplexed over one ThreadPool, with per-scenario
/// fault isolation, shared SamplerContexts, and graceful drain (PR 8).
///
/// The sweep contract, piece by piece:
///
///  - **Sharing.** Every scenario acquires its (n, k, w) SamplerContext
///    from one bounded SamplerContextCache, so ten thousand scenarios on
///    the same population reuse one run-length table instead of building
///    ten thousand.  A scenario whose context would blow the cache's
///    memory budget is *rejected* (kRejected, structured error) — never
///    silently admitted over budget, never a reason to fail the sweep.
///  - **Isolation.** Each scenario runs under one recovery loop
///    (execute_scenario): periodic durable checkpoints, cooperative
///    deadline, capped-backoff retries from the latest valid checkpoint
///    (a torn or missing one restarts from scratch on the same stream),
///    quarantine after max_retries.  A crash, injected fault, or
///    invariant failure in one scenario quarantines *that scenario
///    only*; the rest of the sweep is unaffected, and the completed
///    scenarios' results are bit-identical to a fault-free sweep
///    (recovery restores exact state or replays the same stream).
///  - **Backpressure.** Scenarios are admitted through a bounded queue
///    (admission_capacity); submission blocks while the queue is full,
///    so a million-scenario sweep holds O(threads) scenarios in flight,
///    not a million simulations in memory.
///  - **Containment.** With SweepOptions::supervision.enabled the same
///    sweep runs on forked worker *processes* under a watchdog
///    (runtime/supervisor.h): hard faults — SIGSEGV, abort, OOM, a
///    wedged scenario — kill one worker, which is reaped, respawned and
///    resumed from its durable checkpoint; a crash-looping scenario is
///    quarantined alone.  Results are bit-identical to the in-process
///    path (both drive execute_scenario()).
///  - **Drain.** request_drain() (callable from any thread) stops
///    admission and parks every in-flight scenario at its next
///    checkpoint boundary — already persisted durably — then writes a
///    sweep manifest.  resume() reloads the manifest, keeps finished
///    results bit-identically, and finishes drained/pending scenarios
///    from their checkpoints; the combined results are bit-identical to
///    an uninterrupted run (period-aligned boundaries, see
///    runtime/durable_runner.h).
///
/// The statistic callback runs concurrently on pool threads: it must be
/// thread-safe and a pure function of the final simulation state.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "context/sampler_context.h"
#include "core/count_simulation.h"
#include "fault/fault.h"
#include "runtime/thread_pool.h"

namespace divpp::runtime {

/// How one scenario of a sweep ended.
enum class ScenarioOutcome {
  kOk,           ///< completed on the first attempt
  kRecovered,    ///< completed after >= 1 retry
  kQuarantined,  ///< exhausted max_retries; error says why
  kRejected,     ///< context admission refused (memory budget)
  kDrained,      ///< parked at a checkpoint by a drain request
};

/// Stable display name ("ok", "recovered", ...).
[[nodiscard]] const char* scenario_outcome_name(ScenarioOutcome outcome);

/// One scenario: a self-contained simulation request.
struct ScenarioSpec {
  /// Identifies the scenario in reports and the manifest; resume()
  /// cross-checks names against the manifest, so keep them unique.
  std::string name;
  std::int64_t n = 0;  ///< population, >= 2
  /// The palette (WeightMap has no default state; a one-colour unit
  /// palette stands in until the spec is filled).
  core::WeightMap weights = core::WeightMap({1.0});
  enum class Start { kProportional, kAdversarial, kEqual };
  Start start = Start::kProportional;
  core::Engine engine = core::Engine::kAuto;
  std::int64_t target_time = 0;
  std::uint64_t seed = 0;
};

/// Per-scenario result — graceful degradation is explicit, never silent.
struct ScenarioReport {
  std::string name;
  ScenarioOutcome outcome = ScenarioOutcome::kOk;
  int attempts = 1;    ///< total attempts, clean == 1
  int resumes = 0;     ///< attempts that restored from a checkpoint
  double value = 0.0;  ///< the statistic (meaningful for kOk/kRecovered)
  std::string error;   ///< last failure message (empty when clean)
  /// One-line JSON result for completed scenarios.  Deliberately built
  /// from deterministic fields only (name, n, k, engine, target, seed,
  /// value) — never attempts or timing — so a crash-injected sweep's
  /// completed scenarios are byte-identical to the fault-free sweep.
  std::string json;
};

/// Process-level supervision knobs (PR 9, runtime/supervisor.h).  When
/// enabled, the sweep fans scenarios out to forked worker *processes*
/// instead of pool threads: a real SIGSEGV, abort, OOM or wedged
/// scenario kills one worker, which the supervisor reaps (waitpid),
/// respawns, and resumes from the scenario's latest durable checkpoint —
/// results stay bit-identical to the in-process path because both drive
/// the same execute_scenario().  Requires a sweep_dir (checkpoints must
/// survive process death); request_drain() is in-process-only.
struct SupervisionOptions {
  bool enabled = false;
  /// Worker processes; 0 = one per hardware thread.
  int workers = 0;
  /// Minimum wall-clock gap between worker heartbeat frames (sent at
  /// checkpoint boundaries; throttled so short windows do not flood the
  /// pipe).  Must be well below hang_timeout_seconds.
  double heartbeat_period_seconds = 0.05;
  /// A busy worker silent for this long is declared wedged and
  /// SIGKILLed (then its scenario resumes on a fresh worker).  This is
  /// the *preemptive* watchdog the cooperative in-process deadline
  /// cannot provide (see runtime/durable_runner.h).  0 disables it.
  double hang_timeout_seconds = 30.0;
  /// A scenario whose workers die this many times in a row is
  /// quarantined (checkpoint kept) instead of respawned again.
  int crash_loop_k = 3;
};

/// Configuration of a sweep.
struct SweepOptions {
  int threads = 0;  ///< 0 = one worker per hardware thread
  /// Checkpoint period for every scenario.  \pre > 0.
  std::int64_t checkpoint_period = 0;
  /// Directory for per-scenario checkpoints ("scenario_<i>.ckpt") and
  /// the manifest ("sweep.manifest"); created if missing.  Empty keeps
  /// checkpoints in memory only — drain still parks scenarios, but
  /// resume() requires a directory.
  std::string sweep_dir;
  /// Retries per scenario beyond the first attempt before quarantine.
  int max_retries = 3;
  /// Exponential backoff between attempts, starting here and capped at
  /// 100 ms.
  double backoff_initial_ms = 1.0;
  /// Cooperative per-attempt deadline per scenario (0 disables).
  double scenario_deadline_seconds = 0.0;
  /// Bound on the admission queue; 0 = 4 * threads.
  std::int64_t admission_capacity = 0;
  /// Memory budget of the shared SamplerContextCache; 0 = the cache
  /// default (SamplerContextCache::kDefaultBudgetBytes).
  std::size_t context_budget_bytes = 0;
  /// Fault schedule to consult at boundaries; nullptr = no faults.
  /// FaultSpec::replica addresses the scenario *index*.
  const fault::FaultSchedule* faults = nullptr;
  /// Unlink a scenario's checkpoint after it completes cleanly; a
  /// quarantined scenario always keeps its last checkpoint.
  bool cleanup_on_success = false;
  /// Process-isolated workers with watchdog supervision (PR 9).
  SupervisionOptions supervision;
};

/// Whole-sweep summary.
struct SweepResult {
  std::vector<ScenarioReport> scenarios;  ///< in spec order
  std::int64_t completed = 0;             ///< kOk + kRecovered
  std::int64_t recovered = 0;
  std::int64_t quarantined = 0;
  std::int64_t rejected = 0;
  std::int64_t drained = 0;
  bool drain_requested = false;
  double wall_seconds = 0.0;
};

/// Maps a scenario's final simulation state to its statistic.  Called
/// concurrently (pool threads or forked worker processes) — must be
/// thread-safe and a pure function of the final state.
using SweepStatistic = std::function<double(const core::CountSimulation&)>;

/// Per-scenario checkpoint file ("<sweep_dir>/scenario_<index>.ckpt");
/// empty when sweep_dir is empty (in-memory checkpoints only).
[[nodiscard]] std::string scenario_checkpoint_path(
    const std::string& sweep_dir, std::size_t index);

/// The one-line JSON result for a completed scenario — deterministic
/// fields only (see ScenarioReport::json), so the supervisor parent can
/// rebuild a worker's line byte-identically from (spec, value) alone.
[[nodiscard]] std::string scenario_result_json(const ScenarioSpec& spec,
                                               double value);

/// Runs ONE scenario through the shared recovery machinery (context
/// admission, the retry loop, durable checkpoints, quarantine) and
/// fills \p report.  This is the single code path behind both the
/// in-process SweepRunner workers and the forked supervisor workers —
/// sharing it is what makes supervised results bit-identical by
/// construction.  Never throws; failures land in the report.
/// \param should_stop optional cooperative stop (drain) checked after
///        each persisted boundary; a stopped scenario parks as kDrained.
/// \param on_boundary optional hook run at every checkpoint boundary —
///        the supervisor workers send heartbeats from it.
void execute_scenario(const ScenarioSpec& spec, std::size_t index,
                      const SweepOptions& options,
                      const SweepStatistic& statistic, bool resuming,
                      context::SamplerContextCache& cache,
                      const std::function<bool()>& should_stop,
                      const std::function<void()>& on_boundary,
                      ScenarioReport& report);

/// The sweep multiplexer: see the file comment.  One runner may execute
/// several sweeps sequentially (the context cache persists across them);
/// concurrent run() calls on one runner are not supported.
class SweepRunner {
 public:
  /// \throws std::invalid_argument on a bad option.
  explicit SweepRunner(SweepOptions options);

  /// Maps a scenario's final simulation state to its statistic.  Called
  /// concurrently — must be thread-safe and pure.
  using Statistic = SweepStatistic;

  /// Runs every scenario, returns reports in spec order, and (when
  /// sweep_dir is set) writes the sweep manifest.
  /// \throws std::invalid_argument on an invalid spec (n < 2, negative
  /// target); per-scenario failures never propagate.
  SweepResult run(const std::vector<ScenarioSpec>& specs,
                  const Statistic& statistic);

  /// Finishes a drained (or killed) sweep from its manifest: completed
  /// scenarios keep their recorded values bit-identically, quarantined
  /// and rejected scenarios keep their recorded outcomes, and pending /
  /// drained scenarios continue from their durable checkpoints (or from
  /// scratch when none was written — same stream, same result).
  /// \throws std::invalid_argument when sweep_dir is empty or the
  /// manifest does not match `specs` (count or names);
  /// fault::DurableFileError when the manifest is missing or corrupt.
  SweepResult resume(const std::vector<ScenarioSpec>& specs,
                     const Statistic& statistic);

  /// Requests a graceful drain of the sweep in flight: admission stops,
  /// running scenarios park at their next checkpoint boundary.  Safe
  /// from any thread; idempotent; a no-op when nothing is running.
  /// In-process sweeps only — a supervised sweep runs to completion
  /// (its containment story is the supervisor's, not drain's).
  void request_drain();

  [[nodiscard]] int threads() const noexcept { return pool_.thread_count(); }

  /// Counters of the shared context cache (hits/misses/evictions/...).
  [[nodiscard]] context::ContextCacheStats context_stats() const {
    return cache_.stats();
  }

 private:
  SweepResult execute(const std::vector<ScenarioSpec>& specs,
                      const Statistic& statistic, bool resuming);
  /// The PR 8 thread-pool path: bounded admission, pool workers, drain.
  void run_in_process(const std::vector<ScenarioSpec>& specs,
                      const Statistic& statistic, bool resuming,
                      std::vector<ScenarioReport>& reports,
                      const std::vector<char>& finished);
  void run_scenario(std::size_t index, const ScenarioSpec& spec,
                    const Statistic& statistic, bool resuming,
                    ScenarioReport& report);
  [[nodiscard]] std::string manifest_path() const;
  void write_manifest(const std::vector<ScenarioSpec>& specs,
                      const std::vector<ScenarioReport>& reports) const;
  /// Fills reports/finished from the manifest.  \throws on mismatch.
  void load_manifest(const std::vector<ScenarioSpec>& specs,
                     std::vector<ScenarioReport>& reports,
                     std::vector<char>& finished) const;

  SweepOptions options_;
  context::SamplerContextCache cache_;
  ThreadPool pool_;
  std::atomic<bool> drain_{false};
  // Admission queue state; members (not execute() locals) so
  // request_drain() can wake the waiters.
  std::mutex queue_mutex_;
  std::condition_variable can_submit_;
  std::condition_variable have_work_;
};

}  // namespace divpp::runtime

#endif  // DIVPP_RUNTIME_SWEEP_RUNNER_H
