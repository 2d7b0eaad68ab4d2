#ifndef DIVPP_RUNTIME_DURABLE_RUNNER_H
#define DIVPP_RUNTIME_DURABLE_RUNNER_H

/// \file durable_runner.h
/// Durable (crash-safe) execution of one lumped simulation.  Many runs
/// heal through runtime/sweep_runner.h, whose recovery loop retries
/// each scenario from the checkpoints written here.
///
/// run_windows advances one simulation to a target in *period-aligned*
/// checkpoint windows: boundaries sit at the multiples of
/// checkpoint_period (plus the target), computed from absolute
/// interaction time — never from where a previous run happened to die.
/// At every boundary it canonicalizes the simulation
/// (CountSimulation::canonicalize), emits a v2 checkpoint
/// (core/checkpoint.h), persists it atomically
/// (fault/durable_file.h), and gives the fault schedule its two firing
/// points.  The alignment plus canonicalisation yield the durability
/// contract:
///
///   kill the process at any point, resume from the latest valid
///   checkpoint, and the final counts, clock, and 256-bit RNG state are
///   bit-identical to the uninterrupted run — for every engine
///   (step/jump/batch/auto), untagged and tagged.
///
/// Why alignment matters: the batch engine's RNG draw sequence depends
/// on its window boundaries, so a resumed run must advance through the
/// *same* boundaries as the original — which period-aligned windows
/// guarantee and crash-relative windows would not.  Why
/// canonicalisation matters: a restore rebuilds every derived sampling
/// structure from the counts, so the uninterrupted run rebuilds at the
/// same points.  The sum trees do not drift (each is a pure function of
/// its leaves), so this is insurance for any derived state that could
/// depend on update history.

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

#include "core/count_simulation.h"
#include "fault/fault.h"
#include "rng/xoshiro.h"

namespace divpp::runtime {

/// Thrown by run_windows when a replica overruns its cooperative
/// deadline (checked at every checkpoint boundary — the watchdog is
/// cooperative, not preemptive).
///
/// **The cooperative-deadline contract (PR 9).**  Everything in this
/// file enforces deadlines *best-effort only*: the clock is read at
/// checkpoint boundaries, so the guarantee is "a run is stopped at the
/// first boundary after its deadline", never "a run is stopped at its
/// deadline".  A window that wedges — a hung draw chain, a fault::kHang
/// injection, any non-terminating step — never reaches another boundary
/// and therefore is never stopped from in-process, no matter what
/// deadline_seconds says.  Preemptive enforcement needs process-level
/// supervision: runtime/supervisor.h heartbeats at boundaries, declares
/// a silent worker wedged after hang_timeout_seconds, SIGKILLs it, and
/// resumes the scenario from its latest durable checkpoint.  Pinned in
/// tests/test_supervisor.cpp: a hang-faulted scenario completes under
/// supervision and cannot complete in-process.
class DeadlineExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One durable windowed run.
struct DurableRunConfig {
  core::Engine engine = core::Engine::kBatch;
  /// Interaction count to advance to.  \pre >= the simulation's clock.
  std::int64_t target_time = 0;
  /// Checkpoint every this many interactions; boundaries are the
  /// multiples of the period (absolute time), plus target_time.  \pre > 0.
  std::int64_t checkpoint_period = 0;
  /// When non-empty, every boundary checkpoint is written here
  /// atomically (fault/durable_file.h).
  std::string checkpoint_path;
  /// When set, called with the v2 blob at every boundary (after the
  /// disk write) — in-memory checkpointing for callers without a path.
  std::function<void(const std::string&)> on_checkpoint;
  /// Cooperative deadline for this run, measured from the run_windows
  /// call; 0 disables.  Overruns throw DeadlineExceeded at the next
  /// boundary — best-effort only; a window that never reaches a
  /// boundary is never stopped (see the DeadlineExceeded contract).
  double deadline_seconds = 0.0;
  /// Fault schedule to consult at boundaries; nullptr = no faults.
  /// (Explicit opt-in: run_windows never reads fault::global().)
  const fault::FaultSchedule* faults = nullptr;
  /// This run's replica coordinate in fault::Boundary.
  std::int64_t replica = 0;
  /// Cooperative drain hook: checked at every boundary *after* the
  /// checkpoint is persisted (and after the fault hooks fired).
  /// Returning true makes run_windows return the boundary blob early,
  /// leaving the simulation parked exactly at that period-aligned
  /// boundary.  The caller detects the early exit via
  /// sim.time() < target_time; a later run from the persisted
  /// checkpoint replays the same boundary sequence, so drain + resume
  /// is bit-identical to an uninterrupted run (SweepRunner's graceful
  /// shutdown).  Empty = never stop.
  std::function<bool()> should_stop;
};

/// Advances `sim` with `gen` to config.target_time under the durability
/// contract above, and returns the final v2 checkpoint blob (the state
/// at target_time).  \throws std::invalid_argument on a bad config;
/// propagates injected faults, DeadlineExceeded, and
/// fault::DurableFileError from checkpoint writes.
std::string run_windows(core::CountSimulation& sim, rng::Xoshiro256& gen,
                        const DurableRunConfig& config);

/// The tagged-chain counterpart (same contract; the blob carries the
/// tagged agent's colour and shade).
std::string run_windows(core::TaggedCountSimulation& sim,
                        rng::Xoshiro256& gen, const DurableRunConfig& config);

}  // namespace divpp::runtime

#endif  // DIVPP_RUNTIME_DURABLE_RUNNER_H
