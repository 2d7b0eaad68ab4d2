#ifndef DIVPP_CORE_DERANDOMISED_COUNT_H
#define DIVPP_CORE_DERANDOMISED_COUNT_H

/// \file derandomised_count.h
/// Exact lumped simulation of the *derandomised* Diversification
/// protocol (paper §1.2) on the complete graph.
///
/// The derandomised variant stores an integer shade s ∈ {0, ..., w_i}
/// per agent; on K_n the process is exchangeable, so the vector of
/// per-(colour, shade) counts is a Markov chain of dimension Σ(w_i + 1)
/// — independent of n.  Analysing this variant is explicitly left open
/// by the paper (§3); this simulator makes that open problem cheap to
/// probe at any n, though no bench runs it yet (e09 is agent-based).
///
/// Transitions (one scheduled initiator per step, as in §1.2):
///  * initiator shade 0 meets responder shade > 0 of colour j:
///    initiator becomes (j, w_j);
///  * initiator shade s > 0 meets responder shade > 0 of the *same*
///    colour: initiator's shade drops to s − 1;
///  * anything else: no-op.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/agent.h"
#include "core/diversification.h"
#include "core/weights.h"
#include "rng/xoshiro.h"

namespace divpp::core {

/// Lumped (count-level) simulation of the derandomised protocol on K_n.
class DerandomisedCountSimulation {
 public:
  /// Starts from explicit per-(colour, shade) counts.
  /// \param shade_counts shade_counts[i][s] = number of agents with
  /// colour i and shade s; shade_counts[i].size() must equal w_i + 1.
  /// \throws std::invalid_argument on non-integral weights, shape
  /// mismatch, negative counts, or fewer than two agents.
  DerandomisedCountSimulation(
      WeightMap weights,
      std::vector<std::vector<std::int64_t>> shade_counts);

  /// All agents at their colour's top shade, supports as given — the
  /// protocol's canonical all-confident start.
  [[nodiscard]] static DerandomisedCountSimulation top_start(
      WeightMap weights, std::span<const std::int64_t> supports);

  // ---- observers -------------------------------------------------------

  [[nodiscard]] std::int64_t n() const noexcept { return n_; }
  [[nodiscard]] std::int64_t num_colors() const noexcept {
    return weights_.num_colors();
  }
  [[nodiscard]] std::int64_t time() const noexcept { return time_; }
  [[nodiscard]] const WeightMap& weights() const noexcept { return weights_; }

  /// Number of agents with colour i and shade s.
  [[nodiscard]] std::int64_t shade_count(ColorId i, std::int64_t s) const;
  /// Total support of colour i (all shades).
  [[nodiscard]] std::int64_t support(ColorId i) const;
  /// Positive-shade ("confident") support of colour i.
  [[nodiscard]] std::int64_t positive(ColorId i) const;
  /// Shade-0 count of colour i.
  [[nodiscard]] std::int64_t light(ColorId i) const;
  /// All supports.
  [[nodiscard]] std::vector<std::int64_t> supports() const;
  /// Smallest positive-shade support over colours — the derandomised
  /// sustainability observable (cannot reach 0 under the protocol).
  [[nodiscard]] std::int64_t min_positive() const;
  /// Probability the next step changes the state.
  [[nodiscard]] double active_probability() const noexcept;

  // ---- dynamics --------------------------------------------------------

  /// Executes exactly one time-step (possibly a no-op).
  Transition step(rng::Xoshiro256& gen);

  /// Plain run to an absolute target time.  \pre target >= time().
  void run_to(std::int64_t target_time, rng::Xoshiro256& gen);

  /// Jump-chain run (geometric no-op skipping); same law as run_to.
  void advance_to(std::int64_t target_time, rng::Xoshiro256& gen);

 private:
  struct ClassRef {
    ColorId color = 0;
    std::int64_t shade = 0;
  };
  [[nodiscard]] std::size_t index(ColorId i, std::int64_t s) const;
  [[nodiscard]] ClassRef pick_class(rng::Xoshiro256& gen, std::int64_t total,
                                    const ClassRef* excluded) const;
  void apply_adopt(ColorId from, ColorId to) noexcept;
  void apply_fade(ColorId i, std::int64_t shade) noexcept;

  WeightMap weights_;
  std::vector<std::int64_t> counts_;   // flattened [colour][shade]
  std::vector<std::size_t> offsets_;   // start of each colour's block
  std::vector<std::int64_t> positive_; // cache: Σ_{s>0} counts[i][s]
  std::int64_t total_positive_ = 0;
  std::int64_t n_ = 0;
  std::int64_t time_ = 0;
};

}  // namespace divpp::core

#endif  // DIVPP_CORE_DERANDOMISED_COUNT_H
