#ifndef DIVPP_MARKOV_HITTING_H
#define DIVPP_MARKOV_HITTING_H

/// \file hitting.h
/// Expected hitting and return times of finite Markov chains.
///
/// Section 2.4 counts the visits of one agent's trajectory to each state
/// of the equilibrium chain M; the classical identities connect those
/// counts to hitting/return times:
///   * h(x → a): expected steps to first reach a from x, the solution of
///     (I − P_{-a}) h = 1 restricted to the non-target states;
///   * expected return time of a = 1/π(a) (Kac's formula), which the
///     tests verify against the solver.
///
/// No bench calls these yet.  They are kept as the planned exact-answer
/// oracle for the convergence time of Theorem 2.5: the expected hitting
/// time of E(δ) on the small-n lumped chain, against which the simulated
/// estimators of analysis/convergence are to be checked.

#include <cstdint>
#include <vector>

#include "markov/markov_chain.h"

namespace divpp::markov {

/// Expected hitting times h(x → target) for every start x, via the
/// linear system h(x) = 1 + Σ_y P(x, y)·h(y), h(target) = 0, solved by
/// Gaussian elimination with partial pivoting.
/// \throws std::runtime_error when the system is singular (the target is
/// unreachable from some state).
[[nodiscard]] std::vector<double> expected_hitting_times(
    const DenseChain& chain, std::int64_t target);

/// Expected return time of `state` = 1 + Σ_y P(state, y)·h(y → state).
/// By Kac's formula this equals 1/π(state) for an ergodic chain.
[[nodiscard]] double expected_return_time(const DenseChain& chain,
                                          std::int64_t state);

/// Monte-Carlo estimate of the hitting time from `start` to `target`
/// (an independent cross-check of the solver in the tests).
[[nodiscard]] double simulate_hitting_time(const DenseChain& chain,
                                           std::int64_t start,
                                           std::int64_t target,
                                           std::int64_t replicas,
                                           rng::Xoshiro256& gen);

}  // namespace divpp::markov

#endif  // DIVPP_MARKOV_HITTING_H
