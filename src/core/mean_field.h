#ifndef DIVPP_CORE_MEAN_FIELD_H
#define DIVPP_CORE_MEAN_FIELD_H

/// \file mean_field.h
/// Deterministic mean-field (fluid) limit of the Diversification protocol.
///
/// Section 1.2 sketches the drift argument: colour i's dark support
/// decreases at rate A_i(A_i-1)/(w_i n²) and grows at rate a·A_i/n².
/// In rescaled time τ = t/n (one unit ≈ n interactions) with fractions
/// α_i = A_i/n, β_i = a_i/n the fluid limit is the ODE system
///
///     dα_i/dτ = β·α_i − α_i²/w_i
///     dβ_i/dτ = α_i²/w_i − β_i·α          (α = Σα_j, β = Σβ_j)
///
/// whose unique interior fixed point is Eq. (7):
/// α_i* = w_i/(1+W), β_i* = (w_i/W)/(1+W).  The integrator lets tests and
/// benches compare stochastic trajectories against the fluid limit.

#include <cstdint>
#include <vector>

#include "core/weights.h"

namespace divpp::core {

/// State of the fluid system: dark fractions then light fractions.
struct MeanFieldState {
  std::vector<double> dark;   ///< α_i
  std::vector<double> light;  ///< β_i

  [[nodiscard]] double total_dark() const noexcept;
  [[nodiscard]] double total_light() const noexcept;
};

/// RK4 integrator for the fluid limit of the Diversification protocol.
class MeanFieldOde {
 public:
  explicit MeanFieldOde(WeightMap weights);

  /// The vector field at `state` (exposed for tests).
  [[nodiscard]] MeanFieldState derivative(const MeanFieldState& state) const;

  /// Advances `state` by `tau` units of rescaled time using RK4 with the
  /// fixed step `dt`.  \pre tau >= 0, dt > 0.
  void integrate(MeanFieldState& state, double tau, double dt) const;

  /// Integrates from `state` until the field's sup-norm drops below
  /// `tolerance` or `max_tau` rescaled time has elapsed; returns elapsed τ.
  double integrate_to_fixed_point(MeanFieldState& state, double tolerance,
                                  double max_tau, double dt) const;

  /// Fluid state matching a count configuration (fractions of n).
  [[nodiscard]] static MeanFieldState from_counts(
      const std::vector<std::int64_t>& dark,
      const std::vector<std::int64_t>& light);

  [[nodiscard]] const WeightMap& weights() const noexcept { return weights_; }

 private:
  WeightMap weights_;
};

}  // namespace divpp::core

#endif  // DIVPP_CORE_MEAN_FIELD_H
