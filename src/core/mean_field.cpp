#include "core/mean_field.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace divpp::core {

double MeanFieldState::total_dark() const noexcept {
  return std::accumulate(dark.begin(), dark.end(), 0.0);
}

double MeanFieldState::total_light() const noexcept {
  return std::accumulate(light.begin(), light.end(), 0.0);
}

MeanFieldOde::MeanFieldOde(WeightMap weights) : weights_(std::move(weights)) {}

MeanFieldState MeanFieldOde::derivative(const MeanFieldState& state) const {
  const auto k = static_cast<std::size_t>(weights_.num_colors());
  if (state.dark.size() != k || state.light.size() != k)
    throw std::invalid_argument("MeanFieldOde: state size mismatch");
  const double alpha = state.total_dark();
  const double beta = state.total_light();
  MeanFieldState d;
  d.dark.resize(k);
  d.light.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    const double fade = state.dark[i] * state.dark[i] / weights_.weights()[i];
    d.dark[i] = beta * state.dark[i] - fade;
    d.light[i] = fade - state.light[i] * alpha;
  }
  return d;
}

namespace {

void axpy(MeanFieldState& y, double a, const MeanFieldState& x) {
  for (std::size_t i = 0; i < y.dark.size(); ++i) {
    y.dark[i] += a * x.dark[i];
    y.light[i] += a * x.light[i];
  }
}

MeanFieldState shifted(const MeanFieldState& base, double a,
                       const MeanFieldState& dir) {
  MeanFieldState out = base;
  axpy(out, a, dir);
  return out;
}

double sup_norm(const MeanFieldState& s) {
  double best = 0.0;
  for (const double v : s.dark) best = std::max(best, std::abs(v));
  for (const double v : s.light) best = std::max(best, std::abs(v));
  return best;
}

}  // namespace

void MeanFieldOde::integrate(MeanFieldState& state, double tau,
                             double dt) const {
  if (tau < 0.0) throw std::invalid_argument("integrate: tau must be >= 0");
  if (!(dt > 0.0)) throw std::invalid_argument("integrate: dt must be > 0");
  double remaining = tau;
  while (remaining > 0.0) {
    const double h = std::min(dt, remaining);
    const MeanFieldState k1 = derivative(state);
    const MeanFieldState k2 = derivative(shifted(state, h / 2.0, k1));
    const MeanFieldState k3 = derivative(shifted(state, h / 2.0, k2));
    const MeanFieldState k4 = derivative(shifted(state, h, k3));
    for (std::size_t i = 0; i < state.dark.size(); ++i) {
      state.dark[i] +=
          h / 6.0 * (k1.dark[i] + 2.0 * k2.dark[i] + 2.0 * k3.dark[i] +
                     k4.dark[i]);
      state.light[i] +=
          h / 6.0 * (k1.light[i] + 2.0 * k2.light[i] + 2.0 * k3.light[i] +
                     k4.light[i]);
    }
    remaining -= h;
  }
}

double MeanFieldOde::integrate_to_fixed_point(MeanFieldState& state,
                                              double tolerance, double max_tau,
                                              double dt) const {
  if (!(tolerance > 0.0))
    throw std::invalid_argument("integrate_to_fixed_point: tolerance <= 0");
  double elapsed = 0.0;
  while (elapsed < max_tau) {
    if (sup_norm(derivative(state)) < tolerance) return elapsed;
    integrate(state, dt, dt);
    elapsed += dt;
  }
  return elapsed;
}

MeanFieldState MeanFieldOde::from_counts(
    const std::vector<std::int64_t>& dark,
    const std::vector<std::int64_t>& light) {
  if (dark.size() != light.size() || dark.empty())
    throw std::invalid_argument("from_counts: size mismatch or empty");
  std::int64_t n = 0;
  for (std::size_t i = 0; i < dark.size(); ++i) n += dark[i] + light[i];
  if (n <= 0) throw std::invalid_argument("from_counts: empty population");
  MeanFieldState state;
  state.dark.resize(dark.size());
  state.light.resize(dark.size());
  for (std::size_t i = 0; i < dark.size(); ++i) {
    state.dark[i] = static_cast<double>(dark[i]) / static_cast<double>(n);
    state.light[i] = static_cast<double>(light[i]) / static_cast<double>(n);
  }
  return state;
}

}  // namespace divpp::core
