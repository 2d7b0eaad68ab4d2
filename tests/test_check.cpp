// Tests for the src/check/ correctness layer: SIM_ASSERT/SIM_DCHECK
// semantics in both build modes (checked builds route failures to an
// installable handler; default builds must not even evaluate the
// operands), CountingBitGenerator pass-through bit-identity and exact
// draw accounting, the documented RNG-stream contracts ("the auto
// engine adds no draws beyond its delegate's", "batching consumes far
// fewer draws than stepping"), and — the regression anchor for the
// whole instrumentation PR — golden-stream pins: fixed-seed runs of
// every engine whose final counts, clock, and 256-bit RNG state were
// captured from the pre-instrumentation build.  Any accidental draw
// added or removed by the check layer moves the final RNG state and
// fails the pin.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "batch/collision_batch.h"
#include "check/counting_generator.h"
#include "check/invariant.h"
#include "core/count_simulation.h"
#include "core/weights.h"
#include "rng/distributions.h"
#include "rng/xoshiro.h"

namespace {

using divpp::check::CountingBitGenerator;
using divpp::check::draws_between;
using divpp::core::CountSimulation;
using divpp::core::Engine;
using divpp::core::TaggedCountSimulation;
using divpp::core::WeightMap;
using divpp::rng::Xoshiro256;

// ---- SIM_ASSERT / SIM_DCHECK build-mode semantics -------------------------

int g_evaluations = 0;

[[maybe_unused]] bool count_and_pass() {
  ++g_evaluations;
  return true;
}

[[maybe_unused]] bool count_and_fail() {
  ++g_evaluations;
  return false;
}

[[maybe_unused]] void throwing_handler(const char* /*file*/, int /*line*/,
                                       const char* message) {
  throw std::runtime_error(message);
}

#ifdef SIM_CHECKED

TEST(InvariantMacros, OnModeEvaluatesOnceAndPassesQuietly) {
  g_evaluations = 0;
  SIM_ASSERT(count_and_pass());
  EXPECT_EQ(g_evaluations, 1);
  SIM_DCHECK(count_and_pass());
  EXPECT_EQ(g_evaluations, 2);
  SIM_DCHECK_EQ(2 + 2, 4);
  SIM_DCHECK_LE(1, 2);
  bool ran = false;
  SIM_IF_CHECKED(ran = true);
  EXPECT_TRUE(ran);
}

TEST(InvariantMacros, OnModeRoutesFailuresToTheInstalledHandler) {
  const divpp::check::ScopedFailureHandler guard(&throwing_handler);
  g_evaluations = 0;
  EXPECT_THROW(SIM_ASSERT(count_and_fail()), std::runtime_error);
  EXPECT_EQ(g_evaluations, 1);
  // The comparison family formats both operands into the message.
  try {
    SIM_DCHECK_EQ(2 + 2, 5);
    FAIL() << "SIM_DCHECK_EQ(4, 5) did not fire";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos) << what;
    EXPECT_NE(what.find("4 vs 5"), std::string::npos) << what;
  }
}

TEST(InvariantMacros, ScopedHandlerRestoresThePreviousHandler) {
  divpp::check::FailureHandler before =
      divpp::check::set_failure_handler(nullptr);
  divpp::check::set_failure_handler(before);
  {
    const divpp::check::ScopedFailureHandler guard(&throwing_handler);
    EXPECT_THROW(SIM_ASSERT(false), std::runtime_error);
  }
  // Restored: set-and-read-back shows the pre-scope handler again.
  divpp::check::FailureHandler after =
      divpp::check::set_failure_handler(nullptr);
  divpp::check::set_failure_handler(after);
  EXPECT_EQ(before, after);
}

#else  // !SIM_CHECKED

TEST(InvariantMacros, OffModeDoesNotEvaluateOperands) {
  g_evaluations = 0;
  SIM_ASSERT(count_and_fail());
  SIM_DCHECK(count_and_fail());
  SIM_DCHECK_EQ(g_evaluations, 12345);
  SIM_DCHECK_NE(count_and_fail(), false);
  SIM_DCHECK_GE(count_and_fail(), true);
  SIM_DCHECK_LE(count_and_fail(), false);
  EXPECT_EQ(g_evaluations, 0);
  bool ran = false;
  SIM_IF_CHECKED(ran = true);
  EXPECT_FALSE(ran);
}

#endif  // SIM_CHECKED

// ---- CountingBitGenerator -------------------------------------------------

TEST(CountingBitGenerator, PassThroughIsBitIdentical) {
  Xoshiro256 raw(123);
  CountingBitGenerator counting(Xoshiro256(123));
  for (int i = 0; i < 1'000; ++i) ASSERT_EQ(counting(), raw());
  EXPECT_EQ(counting.generator(), raw);
  EXPECT_EQ(counting.consumed(), 1'000);
}

TEST(CountingBitGenerator, RebaseRestartsTheAuditWindow) {
  CountingBitGenerator counting(7);
  EXPECT_EQ(counting.consumed(), 0);
  for (int i = 0; i < 37; ++i) (void)counting();
  EXPECT_EQ(counting.consumed(), 37);
  counting.rebase();
  EXPECT_EQ(counting.consumed(), 0);
  (void)counting();
  EXPECT_EQ(counting.consumed(), 1);
}

TEST(CountingBitGenerator, DrawsTakenThroughTheReferenceAreAudited) {
  // Library samplers receive `generator()` as a plain Xoshiro256& — the
  // audit must count their draws exactly as a mirrored direct run does.
  CountingBitGenerator counting(11);
  Xoshiro256 mirror(11);
  for (int i = 0; i < 50; ++i)
    (void)divpp::rng::uniform_below(counting.generator(), 1'000 + i);
  for (int i = 0; i < 50; ++i) (void)divpp::rng::uniform_below(mirror, 1'000 + i);
  EXPECT_EQ(counting.generator(), mirror);
  EXPECT_GE(counting.consumed(), 50);
}

TEST(DrawsBetween, CountsForwardStepsExactly) {
  Xoshiro256 from(42);
  Xoshiro256 to = from;
  for (int i = 0; i < 257; ++i) (void)to();
  EXPECT_EQ(draws_between(from, to, 1'000), 257);
  EXPECT_EQ(draws_between(from, from, 1'000), 0);
  // Unreachable within the cap (the reverse direction needs ~2^256
  // steps): report -1 instead of walking forever.
  EXPECT_EQ(draws_between(to, from, 1'000), -1);
}

TEST(CountingBitGenerator, JumpBreaksTheAuditWindow) {
  // jump() advances 2^128 steps — the replay cap must catch it instead
  // of spinning.  This is the documented reason replica forks may only
  // happen *between* audit windows (rebase() after forking).
  CountingBitGenerator counting(9);
  counting.generator().jump();
  EXPECT_THROW((void)counting.consumed(1 << 12), std::runtime_error);
  counting.rebase();
  EXPECT_EQ(counting.consumed(), 0);
}

// ---- engine stream contracts ----------------------------------------------

TEST(RngStreamAudit, AutoEngineAddsNoDrawsBeyondItsDelegate) {
  // kAuto selects a delegate (kJump for these shapes — pinned by the
  // golden-stream tests below) and must consume *exactly* the
  // delegate's draws: selection logic may inspect n and k but never the
  // stream.
  const WeightMap weights({4.0, 1.0, 1.0, 2.0, 1.0, 3.0, 1.0, 1.0});
  for (const std::int64_t n : {50LL, 20'000LL}) {
    auto a = CountSimulation::adversarial_start(weights, n);
    auto b = CountSimulation::adversarial_start(weights, n);
    CountingBitGenerator auto_gen(0xA0 + static_cast<std::uint64_t>(n));
    CountingBitGenerator jump_gen(0xA0 + static_cast<std::uint64_t>(n));
    a.advance_with(Engine::kAuto, 4 * n, auto_gen.generator());
    b.advance_with(Engine::kJump, 4 * n, jump_gen.generator());
    EXPECT_EQ(auto_gen.generator(), jump_gen.generator()) << "n = " << n;
    EXPECT_EQ(auto_gen.consumed(), jump_gen.consumed()) << "n = " << n;
  }
}

TEST(RngStreamAudit, BatchingConsumesFarFewerDrawsThanStepping) {
  // The collision-batch engine's entire point: per-interaction draw cost
  // collapses once whole collision-free runs are sampled at once.  At
  // n = 20000 over 4n interactions the batched chain must use < 1/4 of
  // the stepped chain's draws (measured ratio is far smaller).
  const WeightMap weights({1.0, 2.0, 4.0});
  constexpr std::int64_t kN = 20'000;
  auto step_sim = CountSimulation::adversarial_start(weights, kN);
  auto batch_sim = CountSimulation::adversarial_start(weights, kN);
  CountingBitGenerator step_gen(0xB0);
  CountingBitGenerator batch_gen(0xB1);
  step_sim.advance_with(Engine::kStep, 4 * kN, step_gen.generator());
  batch_sim.advance_with(Engine::kBatch, 4 * kN, batch_gen.generator());
  const std::int64_t step_draws = step_gen.consumed();
  const std::int64_t batch_draws = batch_gen.consumed();
  EXPECT_GE(step_draws, 4 * kN);  // at least one draw per interaction
  EXPECT_LT(batch_draws, step_draws / 4);
}

TEST(RngStreamAudit, TaggedEnginesDrawDeterministically) {
  // Same seed, same engine => bit-identical draw count and final state;
  // and the tagged batched chain keeps the draw advantage over tagged
  // stepping that justifies its existence.
  const WeightMap weights({1.0, 3.0});
  constexpr std::int64_t kN = 20'000;
  const auto run = [&](Engine engine, std::uint64_t seed) {
    TaggedCountSimulation sim(
        CountSimulation::adversarial_start(weights, kN), 0, true);
    CountingBitGenerator gen(seed);
    sim.advance_with(engine, 4 * kN, gen.generator());
    return std::pair<std::int64_t, Xoshiro256>(gen.consumed(),
                                               gen.generator());
  };
  const auto [batch_a, state_a] = run(Engine::kBatch, 0xC0);
  const auto [batch_b, state_b] = run(Engine::kBatch, 0xC0);
  EXPECT_EQ(batch_a, batch_b);
  EXPECT_EQ(state_a, state_b);
  const auto [step_draws, step_state] = run(Engine::kStep, 0xC0);
  EXPECT_LT(batch_a, step_draws / 4);
}

// ---- golden-stream pins ---------------------------------------------------

struct GoldenCase {
  const char* name;
  std::int64_t dark[8];
  std::int64_t light[8];
  std::int64_t time;
  std::uint64_t state[4];
};

// Captured from the pre-instrumentation build (commit e115922 lineage):
// weights {4,1,1,2,1,3,1,1}, adversarial start, untagged seeds
// 0x5eed + n with T = 4n, tagged seed 0x7a99ed at n = 20000.  A build
// with SIM_CHECKED=OFF must reproduce every field bit-for-bit — the
// check layer is only allowed to observe, never to draw.  The jump and
// auto entries were re-captured when the jump chain was uniformised
// (an exponential gap and one thinning uniform per candidate step); the
// step entries predate that change, which pins the inlined xoshiro /
// uniform01 / uniform_below draws to the old stream.  The three batch
// entries were re-captured when Engine::kBatch began walking agent labels
// for windows its cost rule gave the walk, and re-captured again when the
// walk began drawing each ordered pair from one word and one cost model
// started pricing every window's paths on its state: the n = 50 batch run
// walks (new pair draws), while the n = 20000 batch run, all ten
// segments of the tagged batch run and the tagged auto run's segments
// after its first take the collision chain on these skewed states.  The
// untagged auto runs still match jump: before its first measured window
// auto leaves the jump chain only for a path priced below half its
// cost.  kChainGolden below keeps the collision chain's own stream
// pinned.
constexpr GoldenCase kUntaggedGolden[] = {
    {"untagged_step_n20000", {16063, 3, 2, 1, 2, 1, 1, 5},
     {3922, 0, 0, 0, 0, 0, 0, 0}, 80000,
     {0xce02b725490c27feULL, 0xc4f3c9c84d2a4a47ULL, 0x4477db49d3c591ceULL,
      0x9f97d311176b78f9ULL}},
    {"untagged_jump_n20000", {16011, 2, 1, 1, 2, 1, 1, 3},
     {3978, 0, 0, 0, 0, 0, 0, 0}, 80000,
     {0xfa860ee5fdaab41ULL, 0xda3efc9f951f01b8ULL, 0x9c01f7b0927230baULL,
      0x72054970c0c2acd6ULL}},
    {"untagged_batch_n20000", {16048, 3, 1, 3, 2, 2, 1, 2},
     {3938, 0, 0, 0, 0, 0, 0, 0}, 80000,
     {0x347af27dd821d5e9ULL, 0x2dab22e84cbdf304ULL, 0xc6769746ba1c380cULL,
      0xb1d05d75a17e8fc9ULL}},
    {"untagged_auto_n20000", {16011, 2, 1, 1, 2, 1, 1, 3},
     {3978, 0, 0, 0, 0, 0, 0, 0}, 80000,
     {0xfa860ee5fdaab41ULL, 0xda3efc9f951f01b8ULL, 0x9c01f7b0927230baULL,
      0x72054970c0c2acd6ULL}},
    {"untagged_step_n50", {33, 1, 4, 1, 2, 3, 1, 1},
     {4, 0, 0, 0, 0, 0, 0, 0}, 200,
     {0xfaa068c996937141ULL, 0x4957e019cc300f9aULL, 0x8101bbe1c091e94ULL,
      0xad37e75f3d3dd72ULL}},
    {"untagged_jump_n50", {36, 1, 2, 1, 1, 1, 2, 3},
     {3, 0, 0, 0, 0, 0, 0, 0}, 200,
     {0xc91b21b556449372ULL, 0xb82f28eb607d7555ULL, 0xb3046512328e6c8fULL,
      0x7dcd856917ae9226ULL}},
    {"untagged_batch_n50", {32, 2, 3, 1, 1, 1, 1, 1},
     {6, 0, 1, 0, 0, 0, 0, 1}, 200,
     {0x575d8f6b9ee15665ULL, 0x55f10bec1aea4854ULL, 0x270e17940ee23b40ULL,
      0x8dd903e994a58d5eULL}},
    {"untagged_auto_n50", {36, 1, 2, 1, 1, 1, 2, 3},
     {3, 0, 0, 0, 0, 0, 0, 0}, 200,
     {0xc91b21b556449372ULL, 0xb82f28eb607d7555ULL, 0xb3046512328e6c8fULL,
      0x7dcd856917ae9226ULL}},
};

constexpr GoldenCase kTaggedGolden[] = {
    {"tagged_step", {16091, 1, 2, 1, 1, 1, 1, 1},
     {3901, 0, 0, 0, 0, 0, 0, 0}, 80000,
     {0xdb58fca8fc6e8bbbULL, 0x953563dd3ba588beULL, 0x272e96b65d905446ULL,
      0x6802dc033c12677bULL}},
    {"tagged_jump", {16165, 1, 5, 1, 1, 1, 1, 2},
     {3823, 0, 0, 0, 0, 0, 0, 0}, 80000,
     {0x47bf4d80f5c3fef0ULL, 0xc6baa0fa7f62f8d2ULL, 0xad7a37af96981c85ULL,
      0x5761621d5cdf95faULL}},
    {"tagged_batch", {16066, 2, 1, 1, 1, 1, 1, 3},
     {3924, 0, 0, 0, 0, 0, 0, 0}, 80000,
     {0xdf37965fb57b860aULL, 0x6e545765e3eb2602ULL, 0x2b37181042d54f0bULL,
      0xbda12f814dd9e98dULL}},
    {"tagged_auto", {16151, 2, 1, 1, 2, 2, 1, 1},
     {3839, 0, 0, 0, 0, 0, 0, 0}, 80000,
     {0xf44527a2f1322aa4ULL, 0x3189800183f698e3ULL, 0x81077a762a065e39ULL,
      0x9dd3ee4ebe7dffbaULL}},
};

// CollisionBatcher::advance looped to T = 4n from the adversarial start
// at n = 20000 with the weights above and seed 0xc4a1.  Re-captured
// when binomial() moved from BTPE to BTRD and BINV's range shrank to
// n·p < 10 (this run's colour-0 fade thinnings reach BTRD), and when
// multivariate_hypergeometric() gained its multinomial path (43 of this
// run's colour splits took it), and again when the light colours moved
// into the per-window ledger (each advance() now removes its adopters
// uniformly and draws their colours at the close, and the collision step
// draws a colour only when its transition reads it) and the candidate
// pairs became one multivariate_hypergeometric_pairs draw (44 of this
// run's 883 candidate draws take its paired path).
constexpr GoldenCase kChainGolden = {
    "chain_n20000", {16100, 3, 1, 2, 1, 2, 1, 2}, {3888, 0, 0, 0, 0, 0, 0, 0},
    80000,
    {0xdc1f32d88451e185ULL, 0x80d42fc4d6f3335fULL, 0x27352da3d8b4d0d0ULL,
     0xe14f6d330a04b1a7ULL}};

void expect_golden(const GoldenCase& golden, const CountSimulation& sim,
                   const Xoshiro256& gen) {
  for (std::int64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(sim.dark(i), golden.dark[i]) << golden.name << " dark " << i;
    EXPECT_EQ(sim.light(i), golden.light[i]) << golden.name << " light " << i;
  }
  EXPECT_EQ(sim.time(), golden.time) << golden.name;
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(gen.state()[static_cast<std::size_t>(i)], golden.state[i])
        << golden.name << " rng word " << i;
}

TEST(GoldenStream, UntaggedEnginesReproducePreInstrumentationRuns) {
  const WeightMap weights({4.0, 1.0, 1.0, 2.0, 1.0, 3.0, 1.0, 1.0});
  const Engine engines[] = {Engine::kStep, Engine::kJump, Engine::kBatch,
                            Engine::kAuto};
  std::size_t next = 0;
  for (const std::int64_t n : {20'000LL, 50LL}) {
    for (const Engine e : engines) {
      auto sim = CountSimulation::adversarial_start(weights, n);
      Xoshiro256 gen(0x5eedULL + static_cast<std::uint64_t>(n));
      sim.advance_with(e, 4 * n, gen);
      ASSERT_LT(next, std::size(kUntaggedGolden));
      expect_golden(kUntaggedGolden[next++], sim, gen);
    }
  }
}

TEST(GoldenStream, TaggedEnginesReproducePreInstrumentationRuns) {
  const WeightMap weights({4.0, 1.0, 1.0, 2.0, 1.0, 3.0, 1.0, 1.0});
  const Engine engines[] = {Engine::kStep, Engine::kJump, Engine::kBatch,
                            Engine::kAuto};
  std::size_t next = 0;
  for (const Engine e : engines) {
    TaggedCountSimulation tagged(
        CountSimulation::adversarial_start(weights, 20'000), 0, true);
    Xoshiro256 gen(0x7a99edULL);
    tagged.advance_with(e, 4 * 20'000, gen);
    EXPECT_EQ(tagged.tagged_state().color, 0);
    EXPECT_TRUE(tagged.tagged_state().is_dark());
    ASSERT_LT(next, std::size(kTaggedGolden));
    expect_golden(kTaggedGolden[next++], tagged.counts(), gen);
  }
}

TEST(GoldenStream, CollisionChainReproducesItsDrawStream) {
  // The collision chain driven directly, with no engine choice in
  // between: CollisionBatcher::advance looped to T = 4n at n = 20000,
  // k = 8.  Engine::kBatch hands windows of this shape to the label walk, so
  // this pin is what keeps the chain's own draw stream from moving.
  const WeightMap weights({4.0, 1.0, 1.0, 2.0, 1.0, 3.0, 1.0, 1.0});
  constexpr std::int64_t kN = 20'000;
  const auto start = CountSimulation::adversarial_start(weights, kN);
  std::vector<std::int64_t> dark(start.dark_counts().begin(),
                                 start.dark_counts().end());
  std::vector<std::int64_t> light(start.light_counts().begin(),
                                  start.light_counts().end());
  divpp::batch::CollisionBatcher batcher(weights);
  Xoshiro256 gen(0xc4a1ULL);
  std::int64_t time = 0;
  while (time < 4 * kN)
    time += batcher.advance(dark, light, 4 * kN - time, gen);
  EXPECT_EQ(time, kChainGolden.time);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(dark[i], kChainGolden.dark[i]) << "dark " << i;
    EXPECT_EQ(light[i], kChainGolden.light[i]) << "light " << i;
  }
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(gen.state()[i], kChainGolden.state[i]) << "rng word " << i;
}

}  // namespace
