#ifndef DIVPP_RUNTIME_SUPERVISOR_H
#define DIVPP_RUNTIME_SUPERVISOR_H

/// \file supervisor.h
/// Crash containment: process-isolated sweep workers with watchdog
/// supervision (PR 9).
///
/// The PR 8 SweepRunner heals from *cooperative* faults — exceptions,
/// simulated crashes, torn checkpoints — but every scenario shares one
/// address space, so a real SIGSEGV, abort, OOM, or a wedged
/// (non-terminating) scenario loses or stalls the whole sweep.
/// run_supervised closes that gap the way production simulation farms
/// do (OMNeT++'s parsim runs partitions as separate OS processes): it
/// forks a pool of worker *processes*, dispatches scenarios to them
/// over pipes, and supervises:
///
///  - **Death detection.** Each worker is reaped with waitpid and its
///    end classified: signal (which one) vs exit code.  A worker dying
///    mid-scenario blames that scenario.
///  - **Watchdog.** Workers heartbeat at checkpoint boundaries
///    (throttled to heartbeat_period_seconds).  A busy worker silent
///    for hang_timeout_seconds is declared wedged and SIGKILLed — the
///    *preemptive* enforcement the in-process cooperative deadline
///    cannot provide (runtime/durable_runner.h checks deadlines only at
///    boundaries, so a hung draw chain stalls forever in-process).  The
///    wall-clock scenario_deadline_seconds is enforced the same way,
///    with a small grace so the cooperative check fires first when the
///    worker is healthy.
///  - **Respawn and resume.** A dead worker is replaced (fresh fork)
///    and its scenario redispatched resuming from the latest valid
///    durable checkpoint — the same recovery machinery as in-process
///    retries, so the finished value is bit-identical.
///  - **Crash-loop quarantine.** A scenario that kills crash_loop_k
///    successive workers is quarantined with its checkpoint kept; only
///    that scenario is lost, the sweep completes.
///
/// **Why fork (not exec): bit-identity by construction.**  Workers are
/// forked from the parent, so they inherit the SweepStatistic closure
/// and SweepOptions verbatim — nothing behavioural crosses the wire
/// except the ScenarioSpec — and every worker drives the *same*
/// execute_scenario() as the in-process path: same context admission,
/// same recovery loop, same period-aligned checkpoint boundaries, same
/// RNG stream.  The parent rebuilds each report's JSON line from
/// (spec, hexfloat value) via scenario_result_json, which by contract
/// uses deterministic fields only.  Hence a supervised sweep's reports
/// are byte-identical to the in-process SweepRunner's, fault-free or
/// not (pinned in tests/test_supervisor.cpp and bench/e23_containment).
///
/// Fork safety: the parent must be effectively single-threaded when
/// spawning (SweepRunner guarantees this — its ThreadPool starts
/// workers lazily and the supervised path never submits to it).
///
/// **Worker protocol.**  Each worker gets two pipes (commands in,
/// frames out).  Every message is a length-prefixed frame: a 4-byte
/// little-endian payload size, then the payload.  Payloads are token
/// records written and read by io/record.h, the codec the sweep
/// manifest and checkpoints share: space-separated tokens, json-quoted
/// strings, hexfloats where bit-exact doubles must cross the wire:
///
///   parent -> worker:
///     "run <index> <resuming> <n> <start> <engine> <target> <seed>
///      <name-json> <k> <w0-hex> ... <w(k-1)-hex>"
///     "quit"
///   worker -> parent:
///     "hb <index>"                              (heartbeat)
///     "res <index> <outcome> <attempts> <resumes> <value-hex>
///      <error-json>"                            (scenario finished)
///
/// The wire helpers are exposed below so the protocol is unit-testable.

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/sweep_runner.h"

namespace divpp::runtime {

/// Wire-level protocol pieces (see the file comment), exposed for
/// tests: framing plus the run-command and result codecs.  Decoding
/// rejects malformed input with std::invalid_argument.
namespace wire {

/// Appends one length-prefixed frame carrying \p payload to \p out.
void append_frame(std::string& out, std::string_view payload);

/// Extracts the first complete frame from \p buffer (consuming it), or
/// std::nullopt when the buffer holds less than one full frame.
/// \throws std::invalid_argument on an over-limit frame size (corrupt
/// stream).
[[nodiscard]] std::optional<std::string> take_frame(std::string& buffer);

/// The "run" command payload for dispatching \p spec as scenario
/// \p index; weights travel as hexfloats (bit-exact round trip).
[[nodiscard]] std::string encode_run(std::size_t index, bool resuming,
                                     const ScenarioSpec& spec);

/// Inverse of encode_run.  \throws std::invalid_argument on malformed
/// payloads (including anything that is not a "run" command).
struct RunCommand {
  std::size_t index = 0;
  bool resuming = false;
  ScenarioSpec spec;
};
[[nodiscard]] RunCommand decode_run(const std::string& payload);

/// The "res" frame payload for \p report as scenario \p index.
[[nodiscard]] std::string encode_result(std::size_t index,
                                        const ScenarioReport& report);

/// Inverse of encode_result, leaving name and json empty.  \throws
/// std::invalid_argument on malformed payloads, including negative
/// counts and trailing junk.
struct ResultFrame {
  std::size_t index = 0;
  ScenarioReport report;
};
[[nodiscard]] ResultFrame decode_result(const std::string& payload);

}  // namespace wire

/// The process-level supervisor: see the file comment.  Takes the
/// options of the SweepRunner that hosts it (SweepOptions::supervision
/// carries the knobs); reached via SweepRunner with supervision.enabled
/// rather than directly.
///
/// Runs every scenario with finished[i] == 0 on forked workers and
/// fills its slot of \p reports (slots of finished scenarios are left
/// untouched).  \p resuming makes first dispatches resume from their
/// durable checkpoints (the manifest-level resume); redispatches after a
/// worker death always resume.  Blocks until every scenario settled
/// (ok / recovered / quarantined / rejected) — a supervised sweep never
/// drains.
/// \pre \p options passed SweepRunner's constructor checks: a
/// non-empty sweep_dir, workers >= 0, non-negative timings and
/// crash_loop_k >= 1.  Not re-checked here.
void run_supervised(const SweepOptions& options,
                    const std::vector<ScenarioSpec>& specs,
                    const SweepStatistic& statistic, bool resuming,
                    std::vector<ScenarioReport>& reports,
                    const std::vector<char>& finished);

}  // namespace divpp::runtime

#endif  // DIVPP_RUNTIME_SUPERVISOR_H
