#ifndef DIVPP_RNG_XOSHIRO_H
#define DIVPP_RNG_XOSHIRO_H

/// \file xoshiro.h
/// Deterministic pseudo-random number substrate for all simulations.
///
/// The library uses xoshiro256** (Blackman & Vigna) seeded through
/// splitmix64.  Every stochastic component in divpp takes one of these
/// generators (or a seed) explicitly, so every experiment is reproducible
/// bit-for-bit from the seeds it prints.

#include <array>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace divpp::rng {

/// One step of the splitmix64 generator; also used as a seed expander.
/// \param state is advanced in place; the return value is the output.
[[nodiscard]] std::uint64_t splitmix64_next(std::uint64_t& state) noexcept;

/// xoshiro256** 1.0 — a small, fast, high-quality 64-bit PRNG.
///
/// Satisfies the C++ UniformRandomBitGenerator requirements, so it can be
/// plugged into <random> distributions, although divpp ships its own
/// bias-free bounded sampling (see distributions.h).
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state from \p seed via splitmix64.
  explicit Xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// Produces the next 64 random bits.  Inline: every sampler's hot
  /// path starts here.
  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
  }

  /// Smallest value produced (UniformRandomBitGenerator requirement).
  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  /// Largest value produced (UniformRandomBitGenerator requirement).
  [[nodiscard]] static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Equivalent to 2^128 calls of operator(); used to derive parallel
  /// streams that are guaranteed not to overlap.
  void jump() noexcept;

  /// Returns an independent generator: a copy of *this after a jump,
  /// while *this itself is also advanced by a jump.  Forked streams are
  /// non-overlapping for any realistic number of draws.
  [[nodiscard]] Xoshiro256 fork() noexcept;

  /// The raw 256-bit state, exposed for tests and checkpointing.
  [[nodiscard]] const std::array<std::uint64_t, 4>& state() const noexcept {
    return state_;
  }

  /// Rebuilds a generator from a raw 256-bit state (checkpoint v2
  /// restore): the returned generator continues the stream bit-for-bit
  /// from where state() was captured.
  /// \throws std::invalid_argument on the all-zero state, which xoshiro
  /// can neither produce nor leave.
  [[nodiscard]] static Xoshiro256 from_state(
      const std::array<std::uint64_t, 4>& state);

  friend bool operator==(const Xoshiro256&, const Xoshiro256&) = default;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace divpp::rng

#endif  // DIVPP_RNG_XOSHIRO_H
