#ifndef DIVPP_FAULT_FAULT_H
#define DIVPP_FAULT_FAULT_H

/// \file fault.h
/// Deterministic fault injection for the durable runtime (PR 7).
///
/// A FaultSchedule is a seeded, reproducible list of faults that fire at
/// exact, deterministic points of a windowed run: a wall-clock-free
/// trigger is either an interaction-count boundary (`at_time`), a window
/// index (`at_window`), or an RNG draw count (`at_draws`, audited with
/// check/counting_generator.h).  Because triggers are functions of the
/// run's own deterministic coordinates — never of wall clock or thread
/// timing — a crash schedule replays identically across runs, thread
/// counts, and machines, which is what makes the self-healing runtime
/// (runtime/durable_runner.h) testable for bit-identity.
///
/// Faults fire only at checkpoint boundaries, split around the
/// checkpoint write:
///
///  * before the write — kTornWrite (arms fault/durable_file.h to
///    truncate that checkpoint on disk) and kLatency (injected sleep,
///    for deadline/watchdog testing);
///  * after the write — kException (ordinary worker failure), kCrash
///    (simulated process death: unwinds the replica via SimulatedCrash),
///    kKill (a *real* SIGKILL, for the CI kill-and-resume smoke), and
///    the *real-fault* kinds (PR 9) that only process-level supervision
///    (runtime/supervisor.h) can contain:
///      - kSegv   — a write through a laundered null pointer: a real
///                  SIGSEGV (or the sanitizer's report-and-die), never
///                  a C++ exception;
///      - kAbort  — std::abort(): a real SIGABRT;
///      - kOom    — a *bounded* allocation storm (touches up to
///                  kOomStormBytes in 1 MiB chunks, then releases) that
///                  ends in std::bad_alloc — models allocation failure
///                  under memory pressure without inviting the kernel
///                  OOM killer, so the drill is CI-safe.  In-process
///                  runners recover it like any exception; under
///                  supervision with max_retries=0 it quarantines;
///      - kHang   — spins forever without ever reaching another
///                  boundary: a wedged worker.  The in-process runtimes
///                  can NOT preempt this (their deadline is checked at
///                  boundaries only — see runtime/durable_runner.h);
///                  only the supervisor's heartbeat watchdog kills it.
///
/// Firing after the write means a killed run's latest checkpoint is the
/// boundary it died at, so a cross-process resume (which re-parses the
/// same DIVPP_FAULT_SPEC) starts past the trigger and does not die
/// again.  In-process, each spec additionally fires at most once per
/// schedule object.
///
/// The hooks are always compiled in: they run only at window
/// boundaries, so the hot interaction loop never sees them.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace divpp::fault {

/// Thrown by a fired kException fault: an "ordinary" worker failure the
/// self-healing runner retries.
class InjectedFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by a fired kCrash fault: models the process dying at this
/// exact point.  The durable runner treats it like a kill — the replica
/// restarts from its latest valid checkpoint.
class SimulatedCrash : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class FaultKind {
  kCrash,      ///< throw SimulatedCrash (after the checkpoint write)
  kException,  ///< throw InjectedFault (after the checkpoint write)
  kTornWrite,  ///< arm durable_file to tear this boundary's checkpoint
  kLatency,    ///< sleep latency_us at the boundary (deadline testing)
  kKill,       ///< raise(SIGKILL) — the CI kill-and-resume smoke
  kSegv,       ///< real SIGSEGV: write through a (laundered) null pointer
  kAbort,      ///< real SIGABRT: std::abort()
  kOom,        ///< bounded allocation storm ending in std::bad_alloc
  kHang,       ///< spin forever without reaching another boundary
};

/// kOom's allocation-storm ceiling: it touches at most this many bytes
/// (in 1 MiB chunks) before releasing them and throwing std::bad_alloc,
/// keeping the drill well clear of the kernel OOM killer in CI.
inline constexpr std::size_t kOomStormBytes = std::size_t{64} << 20;

/// One fault with its deterministic trigger.  Exactly one of at_time /
/// at_window / at_draws must be set (>= 0).
struct FaultSpec {
  FaultKind kind = FaultKind::kException;
  /// Fires at the unique boundary with prev_time < at_time <= time.
  std::int64_t at_time = -1;
  /// Fires at the boundary completing window index at_window (0-based).
  std::int64_t at_window = -1;
  /// Fires at the first boundary whose cumulative draw count reaches
  /// at_draws.  Draws are counted from the replica run start and
  /// include replayed windows after a crash.
  std::int64_t at_draws = -1;
  /// Restricts to one replica (-1 = any replica).
  std::int64_t replica = -1;
  /// kLatency only: microseconds to sleep.
  std::int64_t latency_us = 0;
};

/// The deterministic coordinates of one checkpoint boundary, supplied by
/// the runner.  `draws` is -1 unless the schedule needs draw auditing
/// (needs_draw_audit()), in which case the runner wraps its generator in
/// a check::CountingBitGenerator.
struct Boundary {
  std::int64_t replica = 0;
  std::int64_t window_index = 0;  ///< 0-based index of the window just run
  std::int64_t prev_time = 0;     ///< clock at the window's start
  std::int64_t time = 0;          ///< clock now
  std::int64_t draws = -1;        ///< cumulative RNG draws, or -1 unaudited
};

/// A reproducible set of faults.  Trigger evaluation is pure; the only
/// state is the fired-once latch per spec (atomic, so concurrent
/// replicas may share one schedule).  Copying yields the same specs with
/// fresh latches.
class FaultSchedule {
 public:
  FaultSchedule() = default;
  /// \throws std::invalid_argument on a spec with no trigger, more than
  /// one trigger, or a negative latency.
  explicit FaultSchedule(std::vector<FaultSpec> specs);

  FaultSchedule(const FaultSchedule& other);
  FaultSchedule& operator=(const FaultSchedule& other);
  FaultSchedule(FaultSchedule&&) noexcept = default;
  FaultSchedule& operator=(FaultSchedule&&) noexcept = default;

  /// Pre-write faults: arms torn writes, injects latency.  Call
  /// immediately before writing this boundary's checkpoint.
  void fire_before_checkpoint(const Boundary& boundary) const;

  /// Post-write faults: throws InjectedFault / SimulatedCrash, raises
  /// SIGKILL.  Call after the checkpoint write succeeded.
  void fire_after_checkpoint(const Boundary& boundary) const;

  /// True when any spec triggers on a draw count — the runner then wraps
  /// its generator in check::CountingBitGenerator and reports
  /// Boundary::draws; otherwise draw auditing stays compiled out of the
  /// window loop.
  [[nodiscard]] bool needs_draw_audit() const noexcept;

  [[nodiscard]] bool empty() const noexcept { return specs_.empty(); }
  [[nodiscard]] const std::vector<FaultSpec>& specs() const noexcept {
    return specs_;
  }

  /// Seeded pseudo-random crash schedule: `count` kCrash faults at
  /// windows in [1, max_window] on replicas in [0, num_replicas),
  /// derived from `seed` via splitmix64 — the standard way tests sample
  /// "kill it somewhere arbitrary" reproducibly.
  [[nodiscard]] static FaultSchedule random_crashes(std::uint64_t seed,
                                                    int count,
                                                    std::int64_t max_window,
                                                    std::int64_t num_replicas);

  /// Parses the DIVPP_FAULT_SPEC grammar:
  ///   spec     := fault (';' fault)*  |  ''        (empty = no faults)
  ///   fault    := kind '@' key '=' value (',' key '=' value)*
  ///   kind     := 'crash' | 'exception' | 'torn' | 'latency' | 'kill'
  ///             | 'segv' | 'abort' | 'oom' | 'hang'
  ///   key      := 'time' | 'window' | 'draws' | 'replica' | 'us'
  /// e.g. "crash@window=3,replica=1;torn@time=500000" or, for the
  /// containment drill, "segv@window=1,replica=5;hang@window=1,replica=9".
  /// \throws std::invalid_argument with the offending token on errors.
  [[nodiscard]] static FaultSchedule from_spec(const std::string& spec);

 private:
  [[nodiscard]] bool due(std::size_t index, const Boundary& boundary) const;
  void validate() const;
  void reset_latches();

  std::vector<FaultSpec> specs_;
  /// fired-once latches, one per spec (heap so the schedule stays
  /// movable; atomic so replicas may share a schedule).
  std::unique_ptr<std::atomic<bool>[]> fired_;
};

/// The process-wide schedule parsed from the DIVPP_FAULT_SPEC
/// environment variable at first use (empty when unset).  No runner
/// falls back to it: only callers that pass global() explicitly (the
/// e21, e22 and e23 benches) read the variable.
[[nodiscard]] const FaultSchedule& global();

}  // namespace divpp::fault

#endif  // DIVPP_FAULT_FAULT_H
