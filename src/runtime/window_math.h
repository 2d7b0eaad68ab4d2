#ifndef DIVPP_RUNTIME_WINDOW_MATH_H
#define DIVPP_RUNTIME_WINDOW_MATH_H

/// \file window_math.h
/// Period-aligned window-boundary arithmetic for the durable runner
/// (runtime/durable_runner.cpp).
///
/// Boundaries sit at the multiples of the period (absolute interaction
/// time), plus the run target — pure functions of (t, period), never of
/// where a previous run happened to die.  That purity is what lets a
/// resumed run replay the same boundary sequence as the original.

#include <algorithm>
#include <cstdint>

namespace divpp::runtime {

/// 0-based index of the window a boundary at absolute time `t` closes.
/// \pre t >= 1, period >= 1.
[[nodiscard]] constexpr std::int64_t window_index_at(
    std::int64_t t, std::int64_t period) noexcept {
  return (t - 1) / period;
}

/// The first period-aligned boundary strictly after `now`, clamped to
/// `target`: min(target, (now / period + 1) * period).
/// \pre now < target, period >= 1.
[[nodiscard]] constexpr std::int64_t next_window_boundary(
    std::int64_t now, std::int64_t period, std::int64_t target) noexcept {
  return std::min(target, (now / period + 1) * period);
}

}  // namespace divpp::runtime

#endif  // DIVPP_RUNTIME_WINDOW_MATH_H
