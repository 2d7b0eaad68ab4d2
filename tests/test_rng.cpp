// Tests for the RNG substrate: determinism, stream independence, exact
// bounded sampling, and distributional sanity of every primitive.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "check/counting_generator.h"
#include "rng/distributions.h"
#include "rng/xoshiro.h"
#include "stat_util.h"
#include "stats/online_stats.h"

namespace {

using divpp::rng::Xoshiro256;

TEST(Splitmix64, ProducesKnownSequenceProperties) {
  std::uint64_t state = 0;
  const std::uint64_t first = divpp::rng::splitmix64_next(state);
  const std::uint64_t second = divpp::rng::splitmix64_next(state);
  EXPECT_NE(first, second);
  // Re-seeding reproduces the stream.
  std::uint64_t replay = 0;
  EXPECT_EQ(divpp::rng::splitmix64_next(replay), first);
  EXPECT_EQ(divpp::rng::splitmix64_next(replay), second);
}

TEST(Xoshiro256, DeterministicGivenSeed) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Xoshiro256, SeedZeroIsUsable) {
  Xoshiro256 gen(0);
  // splitmix expansion must avoid the forbidden all-zero state.
  bool any_nonzero = false;
  for (const std::uint64_t w : gen.state()) any_nonzero |= (w != 0);
  EXPECT_TRUE(any_nonzero);
  EXPECT_NE(gen(), gen());
}

TEST(Xoshiro256, JumpChangesState) {
  Xoshiro256 gen(7);
  const auto before = gen.state();
  gen.jump();
  EXPECT_NE(before, gen.state());
}

TEST(Xoshiro256, ForkProducesIndependentStreams) {
  Xoshiro256 parent(99);
  Xoshiro256 child = parent.fork();
  EXPECT_NE(parent.state(), child.state());
  int equal = 0;
  for (int i = 0; i < 200; ++i) {
    if (parent() == child()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Xoshiro256, EqualityComparesState) {
  Xoshiro256 a(5);
  Xoshiro256 b(5);
  EXPECT_EQ(a, b);
  (void)a();
  EXPECT_NE(a, b);
}

TEST(UniformBelow, StaysInRange) {
  Xoshiro256 gen(3);
  for (std::int64_t bound : {1, 2, 3, 7, 100, 1'000'000}) {
    for (int i = 0; i < 200; ++i) {
      const std::int64_t x = divpp::rng::uniform_below(gen, bound);
      EXPECT_GE(x, 0);
      EXPECT_LT(x, bound);
    }
  }
}

TEST(UniformBelow, BoundOneAlwaysZero) {
  Xoshiro256 gen(4);
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(divpp::rng::uniform_below(gen, 1), 0);
}

TEST(UniformBelow, RejectsNonPositiveBound) {
  Xoshiro256 gen(4);
  EXPECT_THROW((void)divpp::rng::uniform_below(gen, 0), std::invalid_argument);
  EXPECT_THROW((void)divpp::rng::uniform_below(gen, -3), std::invalid_argument);
}

TEST(UniformBelow, UniformityChiSquare) {
  Xoshiro256 gen(11);
  constexpr std::int64_t kBound = 10;
  constexpr std::int64_t kDraws = 100'000;
  std::vector<std::int64_t> counts(kBound, 0);
  for (std::int64_t i = 0; i < kDraws; ++i)
    ++counts[static_cast<std::size_t>(divpp::rng::uniform_below(gen, kBound))];
  const std::vector<double> expected(kBound, 1.0 / kBound);
  const double stat = divpp::stats::chi_square_statistic(counts, expected);
  EXPECT_LT(stat, divpp::stats::chi_square_critical_001(kBound - 1));
}

TEST(UniformBelow, ShiftedRangeCoversBothEnds) {
  Xoshiro256 gen(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i)
    seen.insert(-2 + divpp::rng::uniform_below(gen, 5));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(Uniform01, InHalfOpenUnitInterval) {
  Xoshiro256 gen(6);
  for (int i = 0; i < 10'000; ++i) {
    const double u = divpp::rng::uniform01(gen);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Uniform01, MeanNearHalf) {
  Xoshiro256 gen(7);
  divpp::stats::OnlineStats acc;
  for (int i = 0; i < 200'000; ++i) acc.add(divpp::rng::uniform01(gen));
  EXPECT_NEAR(acc.mean(), 0.5, 0.005);
}

TEST(Bernoulli, ExtremesAreDeterministic) {
  Xoshiro256 gen(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(divpp::rng::bernoulli(gen, 0.0));
    EXPECT_TRUE(divpp::rng::bernoulli(gen, 1.0));
    EXPECT_FALSE(divpp::rng::bernoulli(gen, -0.5));
    EXPECT_TRUE(divpp::rng::bernoulli(gen, 1.5));
  }
}

TEST(Bernoulli, FrequencyMatchesProbability) {
  Xoshiro256 gen(9);
  constexpr int kDraws = 100'000;
  int hits = 0;
  for (int i = 0; i < kDraws; ++i) {
    if (divpp::rng::bernoulli(gen, 0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

TEST(GeometricFailures, RejectsBadP) {
  Xoshiro256 gen(10);
  EXPECT_THROW((void)divpp::rng::geometric_failures(gen, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)divpp::rng::geometric_failures(gen, 1.5),
               std::invalid_argument);
}

TEST(GeometricFailures, PEqualsOneIsZero) {
  Xoshiro256 gen(11);
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(divpp::rng::geometric_failures(gen, 1.0), 0);
}

TEST(GeometricFailures, PEqualsOneConsumesNoUniform) {
  // The p == 1 outcome is deterministic, so the generator state must be
  // untouched: engines that special-case sure steps stay draw-aligned.
  Xoshiro256 gen(11);
  const Xoshiro256 before = gen;
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(divpp::rng::geometric_failures(gen, 1.0), 0);
  EXPECT_EQ(gen, before);
  EXPECT_EQ(gen(), Xoshiro256(11)());
}

TEST(GeometricFailures, TinyPClampsToDocumentedCeiling) {
  // At p = 1e-300 inversion yields ~1e302 >> int64; every draw must land
  // exactly on the documented ceiling instead of overflowing.
  Xoshiro256 gen(12);
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(divpp::rng::geometric_failures(gen, 1e-300),
              divpp::rng::kGeometricFailuresCeiling);
  // The ceiling leaves headroom for the engines' `time + skip` sums.
  EXPECT_LT(divpp::rng::kGeometricFailuresCeiling,
            std::numeric_limits<std::int64_t>::max() - (std::int64_t{1} << 40));
}

TEST(GeometricFailures, SmallestRepresentablePStaysFinite) {
  // Denormal-adjacent p: log1p(-p) is a tiny negative denominator; the
  // clamp must still kick in rather than convert an out-of-range double.
  Xoshiro256 gen(13);
  const std::int64_t v =
      divpp::rng::geometric_failures(gen, 5e-324);  // smallest denormal
  EXPECT_EQ(v, divpp::rng::kGeometricFailuresCeiling);
}

TEST(GeometricFailures, MeanMatchesClosedForm) {
  Xoshiro256 gen(12);
  const double p = 0.2;
  divpp::stats::OnlineStats acc;
  for (int i = 0; i < 200'000; ++i)
    acc.add(static_cast<double>(divpp::rng::geometric_failures(gen, p)));
  // E[failures] = (1-p)/p = 4.
  EXPECT_NEAR(acc.mean(), (1.0 - p) / p, 0.05);
}

// ---- exponential ziggurat ----------------------------------------------

/// The ziggurat's base layer ends at r; beyond it lies the tail.
constexpr double kZigguratR = 7.69711747013104972;

TEST(Exponential, ChiSquareAgainstExpOneAcrossStripsWedgesAndTail) {
  // Bins of width 0.05 up to 7.6 resolve the base strips and the wedges
  // of every layer (layer i's wedge sits just left of its edge x_i), and
  // four bins cover [7.6, r), [r, 8.5), [8.5, 10) and [10, ∞) — the tail
  // drawn as r + Exp(1).
  Xoshiro256 gen(0xe4);
  constexpr std::int64_t kDraws = 4'000'000;
  constexpr double kWidth = 0.05;
  constexpr std::size_t kStrips = 152;  // [0, 7.6)
  std::vector<double> edges;
  for (std::size_t i = 0; i <= kStrips; ++i)
    edges.push_back(static_cast<double>(i) * kWidth);
  for (const double edge : {kZigguratR, 8.5, 10.0}) edges.push_back(edge);
  std::vector<std::int64_t> hits(edges.size(), 0);  // last bin: [10, ∞)
  divpp::stats::OnlineStats acc;
  for (std::int64_t i = 0; i < kDraws; ++i) {
    const double x = divpp::rng::exponential(gen);
    ASSERT_GE(x, 0.0);
    ASSERT_TRUE(std::isfinite(x));
    acc.add(x);
    const auto bin = static_cast<std::size_t>(
        std::upper_bound(edges.begin(), edges.end(), x) - edges.begin() - 1);
    ++hits[bin];
  }
  double chi2 = 0.0;
  for (std::size_t b = 0; b < hits.size(); ++b) {
    const double upper =
        b + 1 < edges.size() ? std::exp(-edges[b + 1]) : 0.0;
    const double expected =
        (std::exp(-edges[b]) - upper) * static_cast<double>(kDraws);
    ASSERT_GT(expected, 80.0) << "bin " << b;
    const double diff = static_cast<double>(hits[b]) - expected;
    chi2 += diff * diff / expected;
  }
  EXPECT_LT(chi2, divpp::test::chi2_crit(hits.size() - 1));
  // Mean and variance of Exp(1) are both 1; 5 standard errors.
  EXPECT_NEAR(acc.mean(), 1.0, 5.0 / std::sqrt(static_cast<double>(kDraws)));
  EXPECT_NEAR(acc.variance(), 1.0,
              5.0 * std::sqrt(8.0 / static_cast<double>(kDraws)));
}

TEST(Exponential, FixedSeedConsumesAPinnedNumberOfDraws) {
  // One 64-bit word per draw on the fast path; wedge tests, tail draws
  // and redraws add the rest.  The count is a pure function of the seed.
  constexpr std::int64_t kDraws = 100'000;
  const auto consume = [] {
    divpp::check::CountingBitGenerator gen(0xe5);
    for (std::int64_t i = 0; i < kDraws; ++i)
      (void)divpp::rng::exponential(gen.generator());
    return gen.consumed();
  };
  const std::int64_t consumed = consume();
  EXPECT_EQ(consumed, consume());
  EXPECT_EQ(consumed, 103'452);
  EXPECT_GT(consumed, kDraws);
  EXPECT_LT(consumed, kDraws + kDraws / 20);
}

// ---- two_distinct_32 -------------------------------------------------------

/// Reference 32-bit Lemire draw on fresh words' low halves (the
/// rejection continuation two_distinct_32 must follow).
std::int64_t lemire32_on_fresh_words(Xoshiro256& gen, std::uint64_t bound) {
  const std::uint64_t threshold = (std::uint64_t{1} << 32) % bound;
  std::uint64_t product = 0;
  do {
    product = std::uint64_t{static_cast<std::uint32_t>(gen())} * bound;
  } while (static_cast<std::uint32_t>(product) < threshold);
  return static_cast<std::int64_t>(product >> 32);
}

TEST(TwoDistinct32, HalvesMapByLemireWithoutRejection) {
  // Neither half rejected: the pair is read off the word alone.
  Xoshiro256 gen(40);
  const Xoshiro256 before = gen;
  const std::uint64_t word = (std::uint64_t{0xC0000000} << 32) | 0x80000000U;
  const auto [a, b] =
      divpp::rng::detail::two_distinct_32_from_word(gen, word, 5);
  EXPECT_EQ(a, 2);  // ⌊0.5 · 5⌋
  EXPECT_EQ(b, 4);  // ⌊0.75 · 4⌋ = 3, shifted past a
  EXPECT_EQ(gen, before);
}

TEST(TwoDistinct32, RejectedHalvesContinueOnFreshWords) {
  // n = 5: the low half 0 is the one value a bound of 5 rejects
  // (2^32 mod 5 = 1), so the first index comes from fresh words.
  {
    Xoshiro256 gen(41);
    Xoshiro256 mirror = gen;
    const std::uint64_t word = std::uint64_t{0x80000000} << 32;
    const auto [a, b] =
        divpp::rng::detail::two_distinct_32_from_word(gen, word, 5);
    const std::int64_t expected_a = lemire32_on_fresh_words(mirror, 5);
    EXPECT_EQ(a, expected_a);
    EXPECT_EQ(b, 2 + (2 >= expected_a ? 1 : 0));  // ⌊0.5 · 4⌋, shifted
    EXPECT_EQ(gen, mirror);  // exactly the rejection's fresh words
  }
  // n = 4: the first half takes the slow path but a power-of-two bound
  // never rejects (no draw); the high half 0 is rejected by bound 3.
  {
    Xoshiro256 gen(42);
    Xoshiro256 mirror = gen;
    const std::uint64_t word = 0x40000000U;
    const auto [a, b] =
        divpp::rng::detail::two_distinct_32_from_word(gen, word, 4);
    EXPECT_EQ(a, 1);
    const std::int64_t expected_b = lemire32_on_fresh_words(mirror, 3);
    EXPECT_EQ(b, expected_b + (expected_b >= 1 ? 1 : 0));
    EXPECT_EQ(gen, mirror);
  }
}

TEST(TwoDistinct32, OrderedPairsAreUniformAtNFive) {
  // χ² over all 20 ordered pairs of distinct agents.
  Xoshiro256 gen(43);
  constexpr std::int64_t kN = 5;
  constexpr std::int64_t kDraws = 200'000;
  std::vector<std::int64_t> counts(kN * kN, 0);
  for (std::int64_t i = 0; i < kDraws; ++i) {
    const auto [a, b] = divpp::rng::two_distinct_32(gen, kN);
    ASSERT_NE(a, b);
    ASSERT_GE(a, 0);
    ASSERT_LT(a, kN);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, kN);
    ++counts[static_cast<std::size_t>(a * kN + b)];
  }
  std::vector<std::int64_t> pair_counts;
  for (std::int64_t a = 0; a < kN; ++a)
    for (std::int64_t b = 0; b < kN; ++b)
      if (a != b)
        pair_counts.push_back(counts[static_cast<std::size_t>(a * kN + b)]);
  const std::size_t cells = pair_counts.size();
  const std::vector<double> expected(cells,
                                     1.0 / static_cast<double>(cells));
  const double stat = divpp::stats::chi_square_statistic(pair_counts, expected);
  EXPECT_LT(stat, divpp::stats::chi_square_critical_001(cells - 1));
}

TEST(SampleDiscrete, RespectsWeights) {
  Xoshiro256 gen(16);
  const std::vector<double> weights = {1.0, 3.0};
  int ones = 0;
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) {
    if (divpp::rng::sample_discrete(gen, weights) == 1) ++ones;
  }
  EXPECT_NEAR(static_cast<double>(ones) / kDraws, 0.75, 0.01);
}

TEST(SampleDiscrete, ZeroWeightNeverSampled) {
  Xoshiro256 gen(17);
  const std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 1000; ++i)
    EXPECT_EQ(divpp::rng::sample_discrete(gen, weights), 1);
}

TEST(SampleDiscrete, RejectsInvalidInput) {
  Xoshiro256 gen(18);
  EXPECT_THROW((void)divpp::rng::sample_discrete(gen, std::vector<double>{}),
               std::invalid_argument);
  EXPECT_THROW((void)divpp::rng::sample_discrete(
                   gen, std::vector<double>{1.0, -1.0}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)divpp::rng::sample_discrete(gen, std::vector<double>{0.0, 0.0}),
      std::invalid_argument);
}

TEST(SampleCounts, MatchesCountProportions) {
  Xoshiro256 gen(19);
  const std::vector<std::int64_t> counts = {10, 30, 60};
  std::vector<std::int64_t> hits(3, 0);
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i)
    ++hits[static_cast<std::size_t>(
        divpp::rng::sample_counts(gen, counts, 100))];
  EXPECT_NEAR(static_cast<double>(hits[0]) / kDraws, 0.1, 0.01);
  EXPECT_NEAR(static_cast<double>(hits[1]) / kDraws, 0.3, 0.01);
  EXPECT_NEAR(static_cast<double>(hits[2]) / kDraws, 0.6, 0.01);
}

TEST(Shuffle, ProducesPermutation) {
  Xoshiro256 gen(20);
  std::vector<std::int64_t> values = {0, 1, 2, 3, 4, 5, 6, 7};
  divpp::rng::shuffle(gen, values);
  std::vector<std::int64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i)
    EXPECT_EQ(sorted[i], static_cast<std::int64_t>(i));
}

TEST(RandomPermutation, UniformOverSmallSymmetricGroup) {
  Xoshiro256 gen(21);
  // All 6 permutations of {0,1,2} should appear with roughly equal
  // frequency.
  std::map<std::vector<std::int64_t>, int> freq;
  constexpr int kDraws = 60'000;
  for (int i = 0; i < kDraws; ++i)
    ++freq[divpp::rng::random_permutation(gen, 3)];
  EXPECT_EQ(freq.size(), 6u);
  for (const auto& [perm, count] : freq)
    EXPECT_NEAR(static_cast<double>(count) / kDraws, 1.0 / 6.0, 0.01);
}

// The AliasTable tests moved to tests/test_sampling.cpp alongside the
// rest of the sampling subsystem's coverage.

}  // namespace
