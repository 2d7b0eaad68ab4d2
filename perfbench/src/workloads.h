#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

/// \file workloads.h
/// The benchmark's workloads (see perfbench/README.md for why each one
/// exists and which layers it exercises or bypasses).

#include <cstdint>
#include <memory>

#include "core/count_simulation.h"
#include "harness.h"

namespace perfbench {

/// FNV-1a over the counts, clock and transition count: equal hashes mean
/// equal end states, the basis of every bit-for-bit output check.
[[nodiscard]] inline std::uint64_t state_hash(
    const divpp::core::CountSimulation& sim) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::int64_t v) {
    h = (h ^ static_cast<std::uint64_t>(v)) * 0x100000001b3ULL;
  };
  for (const std::int64_t v : sim.dark_counts()) mix(v);
  for (const std::int64_t v : sim.light_counts()) mix(v);
  mix(sim.time());
  mix(sim.active_transitions());
  return h;
}

/// nproc untagged n = 10⁸ runs side by side, from a start with
/// 10³-agent minorities into E(0.1).
[[nodiscard]] std::unique_ptr<Workload> make_converge(const Config& config);

/// Tagged-agent occupancy over BatchRunner replicas (jump chain, k = 32).
[[nodiscard]] std::unique_ptr<Workload> make_fairness(const Config& config);

/// Mixed-scenario SweepRunner sweeps; `contained` (a traced-only section)
/// runs them on supervised worker processes with durable checkpoints and
/// scheduled worker kills.
[[nodiscard]] std::unique_ptr<Workload> make_sweep(const Config& config,
                                                   bool contained);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
