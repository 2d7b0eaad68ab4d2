#include "analysis/robustness.h"

#include <algorithm>

#include "analysis/convergence.h"
#include "core/equilibrium.h"

namespace divpp::analysis {

RecoveryReport measure_recovery(core::CountSimulation sim,
                                const adversary::Event& event,
                                const RecoveryConfig& config,
                                rng::Xoshiro256& gen) {
  const auto settle = static_cast<std::int64_t>(
      config.settle_multiplier *
      core::convergence_time_scale(sim.n(), sim.weights().total()));
  sim.advance_with(core::Engine::kJump, sim.time() + settle, gen);

  adversary::apply_event(sim, event);
  RecoveryReport report;
  report.shock_time = sim.time();

  const double post_scale =
      core::convergence_time_scale(sim.n(), sim.weights().total());
  const auto horizon =
      report.shock_time +
      static_cast<std::int64_t>(config.cap_multiplier * post_scale);
  const std::int64_t check =
      config.check_every > 0
          ? config.check_every
          : std::max<std::int64_t>(sim.n() / 8, 64);
  report.recovered_time = time_to_equilibrium_region(
      sim, config.delta, horizon, check, gen);
  report.recovered = report.recovered_time >= 0;
  if (report.recovered) {
    report.normalised_recovery =
        static_cast<double>(report.recovered_time - report.shock_time) /
        post_scale;
  }
  report.sustainability_kept = sim.min_dark() >= 1;
  return report;
}

}  // namespace divpp::analysis
