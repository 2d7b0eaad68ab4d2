#ifndef DIVPP_CORE_CHECKPOINT_H
#define DIVPP_CORE_CHECKPOINT_H

/// \file checkpoint.h
/// Human-readable checkpointing of a CountSimulation run.
///
/// The format (`divpp-run-v2`) captures the *complete resumable run*:
/// configuration, clock, the full 256-bit Xoshiro256 state, the
/// auto-engine EWMA and transition counter, the pending-event schedule,
/// and (optionally) the tagged-agent state.  A run killed at a
/// checkpoint boundary and resumed from the blob replays the remaining
/// windows bit-identically to the uninterrupted run — the durability
/// contract runtime/durable_runner.h builds on (see the README "Durable
/// runs" section for the exact window-alignment requirements).  Tokens
/// go through io/record.h: doubles are C99 hexfloats, so every weight
/// and estimate round-trips bit-exactly, and no locale changes a byte.
///
/// Event actions are code and cannot cross a process boundary: v2
/// serialises each pending event's (time, handle) and restores it with a
/// placeholder action that throws std::logic_error if it fires unrebound
/// — callers re-attach their actions with
/// CountSimulation::rebind_scheduled_event.
///
/// The format is versioned, line-oriented text; the parser rejects
/// malformed, truncated, reordered, or trailing-garbage input with
/// std::invalid_argument, never a malformed simulation.  On-disk
/// atomicity and corruption *detection* are the next layer up
/// (fault/durable_file.h), so a torn file never reaches the parser
/// looking valid.

#include <string>

#include "core/count_simulation.h"
#include "rng/xoshiro.h"

namespace divpp::core {

/// Serialises the complete resumable run state: `sim` (counts, clock,
/// auto-engine EWMA, transition counter, pending-event schedule) plus
/// the generator driving it.  Hexfloat doubles — bit-exact round trip.
[[nodiscard]] std::string to_checkpoint_v2(const CountSimulation& sim,
                                           const rng::Xoshiro256& gen);

/// v2 of a tagged run: the wrapped counts plus the tagged agent's
/// (colour, shade), same generator contract.
[[nodiscard]] std::string to_checkpoint_v2(const TaggedCountSimulation& sim,
                                           const rng::Xoshiro256& gen);

/// A restored v2 run: continue by advancing `sim` with `gen` on the same
/// window schedule as the original run.
struct ResumedRun {
  CountSimulation sim;
  rng::Xoshiro256 gen;
};

/// A restored tagged v2 run.
struct ResumedTaggedRun {
  TaggedCountSimulation sim;
  rng::Xoshiro256 gen;
};

/// True when a v2 blob carries a tagged-agent state.  Fully validates
/// the blob; throws std::invalid_argument on anything malformed.
[[nodiscard]] bool checkpoint_v2_is_tagged(const std::string& text);

/// Restores an *untagged* v2 checkpoint.
/// \throws std::invalid_argument on malformed input or a tagged blob.
[[nodiscard]] ResumedRun resume_run_from_checkpoint(const std::string& text);

/// Restores a *tagged* v2 checkpoint.
/// \throws std::invalid_argument on malformed input or an untagged blob.
[[nodiscard]] ResumedTaggedRun resume_tagged_run_from_checkpoint(
    const std::string& text);

}  // namespace divpp::core

#endif  // DIVPP_CORE_CHECKPOINT_H
