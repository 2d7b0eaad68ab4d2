// Tests for the shared sampler context and its bounded interning cache
// (PR 8): layout correctness against the private path, the per-engine
// bit-identity pin (shared vs private context must not change a single
// RNG draw), LRU eviction and structured admission rejection under a
// memory budget, refcount-aware eviction (in-use entries are pinned),
// and a many-thread contention run the TSan CI job executes.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "context/sampler_context.h"
#include "core/checkpoint.h"
#include "core/count_simulation.h"
#include "core/weights.h"
#include "rng/xoshiro.h"

namespace {

using divpp::context::ContextAdmissionError;
using divpp::context::ContextCacheStats;
using divpp::context::SamplerContext;
using divpp::context::SamplerContextCache;
using divpp::core::CountSimulation;
using divpp::core::Engine;
using divpp::core::TaggedCountSimulation;
using divpp::core::WeightMap;
using divpp::rng::Xoshiro256;

TEST(SamplerContext, LayoutsMatchTheDefinition) {
  const WeightMap weights({1.0, 2.5, 4.0});
  const SamplerContext context(1000, weights);
  ASSERT_EQ(context.num_colors(), 3);
  EXPECT_EQ(context.population(), 1000);
  const auto inv = context.inv_weight();
  ASSERT_EQ(inv.size(), 3u);
  EXPECT_EQ(inv[0], 1.0 / 1.0);
  EXPECT_EQ(inv[1], 1.0 / 2.5);
  EXPECT_EQ(inv[2], 1.0 / 4.0);
  EXPECT_EQ(context.max_inv_weight(), 1.0);
  const auto fade = context.fade_ratio();
  ASSERT_EQ(fade.size(), 3u);
  EXPECT_EQ(fade[0], 1.0);  // x / x == 1.0 exactly for the lightest colour
  EXPECT_EQ(fade[1], (1.0 / 2.5) / 1.0);
  EXPECT_EQ(fade[2], (1.0 / 4.0) / 1.0);
}

TEST(SamplerContext, HoldsTablesForNAndNMinusOneOnly) {
  const SamplerContext context(500, WeightMap({1.0, 2.0}));
  ASSERT_NE(context.run_length_table(500), nullptr);
  ASSERT_NE(context.run_length_table(499), nullptr);
  EXPECT_EQ(context.run_length_table(500)->population(), 500);
  EXPECT_EQ(context.run_length_table(499)->population(), 499);
  EXPECT_EQ(context.run_length_table(501), nullptr);
  EXPECT_EQ(context.run_length_table(498), nullptr);
}

TEST(SamplerContext, LayoutOnlyContextHasNoTables) {
  const SamplerContext context(WeightMap({1.0, 3.0}));
  EXPECT_EQ(context.population(), 0);
  EXPECT_EQ(context.run_length_table(100), nullptr);
  EXPECT_GT(context.memory_bytes(), 0u);
}

TEST(SamplerContext, MemoryEstimateBoundsTheActualFootprint) {
  for (const std::int64_t n : {100, 1000, 100000}) {
    const SamplerContext context(n, WeightMap({1.0, 2.0, 3.0, 4.0}));
    EXPECT_LE(context.memory_bytes(), SamplerContext::estimate_bytes(n, 4))
        << "n = " << n;
  }
}

TEST(SamplerContext, RejectsTinyPopulations) {
  EXPECT_THROW(SamplerContext(1, WeightMap({1.0})), std::invalid_argument);
}

// The tentpole pin: attaching a shared context must not change a single
// RNG draw, for every engine.  Byte-compare final v2 checkpoints of a
// shared-context run against the untouched private path.
TEST(SamplerContext, SharedContextIsBitIdenticalPerEngine) {
  const WeightMap weights({1.0, 2.0, 5.0});
  constexpr std::int64_t kN = 500;
  constexpr std::int64_t kTarget = 20000;
  SamplerContextCache cache;
  for (const Engine engine :
       {Engine::kStep, Engine::kJump, Engine::kBatch, Engine::kAuto}) {
    CountSimulation private_sim =
        CountSimulation::adversarial_start(weights, kN);
    CountSimulation shared_sim = private_sim;
    shared_sim.set_sampler_context(cache.acquire(kN, weights));
    Xoshiro256 private_gen(42);
    Xoshiro256 shared_gen(42);
    private_sim.advance_with(engine, kTarget, private_gen);
    shared_sim.advance_with(engine, kTarget, shared_gen);
    private_sim.canonicalize();
    shared_sim.canonicalize();
    EXPECT_EQ(divpp::core::to_checkpoint_v2(shared_sim, shared_gen),
              divpp::core::to_checkpoint_v2(private_sim, private_gen))
        << "engine " << divpp::core::engine_name(engine);
  }
}

// Tagged decomposition runs the batcher at population n - 1; the context
// carries that table too, so the tagged chain is pinned as well.
TEST(SamplerContext, SharedContextIsBitIdenticalForTaggedRuns) {
  const WeightMap weights({1.0, 3.0});
  constexpr std::int64_t kN = 300;
  SamplerContextCache cache;
  for (const Engine engine : {Engine::kBatch, Engine::kAuto}) {
    CountSimulation base = CountSimulation::equal_start(weights, kN);
    CountSimulation with_context = base;
    with_context.set_sampler_context(cache.acquire(kN, weights));
    TaggedCountSimulation private_tagged(base, 1, true);
    TaggedCountSimulation shared_tagged(with_context, 1, true);
    Xoshiro256 private_gen(7);
    Xoshiro256 shared_gen(7);
    private_tagged.advance_with(engine, 10000, private_gen);
    shared_tagged.advance_with(engine, 10000, shared_gen);
    private_tagged.canonicalize();
    shared_tagged.canonicalize();
    EXPECT_EQ(divpp::core::to_checkpoint_v2(shared_tagged, shared_gen),
              divpp::core::to_checkpoint_v2(private_tagged, private_gen))
        << "engine " << divpp::core::engine_name(engine);
  }
}

TEST(SamplerContext, AttachRejectsMismatchedPalette) {
  CountSimulation sim =
      CountSimulation::equal_start(WeightMap({1.0, 2.0}), 100);
  SamplerContextCache cache;
  const auto other = cache.acquire(100, WeightMap({1.0, 4.0}));
  EXPECT_THROW(sim.set_sampler_context(other), std::invalid_argument);
}

TEST(SamplerContext, AddColorDetachesTheContext) {
  const WeightMap weights({1.0, 2.0});
  CountSimulation sim = CountSimulation::equal_start(weights, 100);
  SamplerContextCache cache;
  sim.set_sampler_context(cache.acquire(100, weights));
  ASSERT_NE(sim.sampler_context(), nullptr);
  sim.add_color(3.0, 10);
  EXPECT_EQ(sim.sampler_context(), nullptr);
  // And the grown simulation still runs (private fallback).
  Xoshiro256 gen(3);
  sim.advance_with(Engine::kBatch, 5000, gen);
  EXPECT_EQ(sim.time(), 5000);
}

TEST(SamplerContextCache, HitsReturnTheSameObject) {
  SamplerContextCache cache;
  const WeightMap weights({1.0, 2.0});
  const auto a = cache.acquire(1000, weights);
  const auto b = cache.acquire(1000, weights);
  EXPECT_EQ(a.get(), b.get());
  const ContextCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.resident_bytes, a->memory_bytes());
}

TEST(SamplerContextCache, DistinctKeysAreDistinctEntries) {
  SamplerContextCache cache;
  const auto a = cache.acquire(1000, WeightMap({1.0, 2.0}));
  const auto b = cache.acquire(1000, WeightMap({1.0, 3.0}));
  const auto c = cache.acquire(2000, WeightMap({1.0, 2.0}));
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.stats().entries, 3);
  EXPECT_EQ(cache.stats().misses, 3);
}

TEST(SamplerContextCache, EvictsUnreferencedLruEntriesUnderPressure) {
  const WeightMap wa({1.0, 2.0});
  const WeightMap wb({1.0, 3.0});
  constexpr std::int64_t kN = 10000;
  // Budget fits one context comfortably, never two.
  const std::size_t budget =
      (SamplerContext::estimate_bytes(kN, 2) * 3) / 2;
  SamplerContextCache cache(budget);
  { const auto a = cache.acquire(kN, wa); }  // build A, release it
  { const auto b = cache.acquire(kN, wb); }  // must evict A for room
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.stats().entries, 1);
  { const auto a = cache.acquire(kN, wa); }  // A was evicted: a rebuild
  EXPECT_EQ(cache.stats().misses, 3);
  EXPECT_EQ(cache.stats().hits, 0);
}

TEST(SamplerContextCache, ReferencedEntriesArePinned) {
  const WeightMap wa({1.0, 2.0});
  const WeightMap wb({1.0, 3.0});
  constexpr std::int64_t kN = 10000;
  const std::size_t budget =
      (SamplerContext::estimate_bytes(kN, 2) * 3) / 2;
  SamplerContextCache cache(budget);
  auto a = cache.acquire(kN, wa);  // held — eviction must not touch it
  try {
    const auto b = cache.acquire(kN, wb);
    FAIL() << "expected ContextAdmissionError";
  } catch (const ContextAdmissionError& error) {
    EXPECT_GT(error.requested_bytes(), 0u);
    EXPECT_EQ(error.budget_bytes(), budget);
    EXPECT_EQ(error.referenced_bytes(), a->memory_bytes());
    EXPECT_NE(std::string(error.what()).find("budget"), std::string::npos);
  }
  EXPECT_EQ(cache.stats().rejections, 1);
  a.reset();  // now A is evictable and B fits
  const auto b = cache.acquire(kN, wb);
  EXPECT_EQ(b->population(), kN);
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(SamplerContextCache, OversizedRequestIsRejectedUpFront) {
  SamplerContextCache cache(1024);  // 1 KiB: no full context fits
  try {
    const auto c = cache.acquire(1000000, WeightMap({1.0, 2.0}));
    FAIL() << "expected ContextAdmissionError";
  } catch (const ContextAdmissionError& error) {
    EXPECT_GT(error.requested_bytes(), error.budget_bytes());
    EXPECT_EQ(error.budget_bytes(), 1024u);
    EXPECT_EQ(error.referenced_bytes(), 0u);
  }
  // Nothing was built or leaked into the cache.
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
}

TEST(SamplerContextCache, ClearUnreferencedKeepsHeldEntries) {
  SamplerContextCache cache;
  auto held = cache.acquire(1000, WeightMap({1.0, 2.0}));
  { const auto dropped = cache.acquire(2000, WeightMap({1.0, 2.0})); }
  cache.clear_unreferenced();
  EXPECT_EQ(cache.stats().entries, 1);
  // The held entry is still served as a hit.
  const auto again = cache.acquire(1000, WeightMap({1.0, 2.0}));
  EXPECT_EQ(again.get(), held.get());
}

// Contention: many threads acquiring a small mixed key set under a
// budget that forces constant eviction.  Deterministic per-thread
// schedules (no wall clock, no global RNG); the assertions are
// coherence, and TSan (which runs this suite in CI) is the real check.
TEST(SamplerContextCache, ParallelAcquireUnderEvictionPressureIsCoherent) {
  const std::vector<std::int64_t> populations{4000, 6000, 8000, 10000};
  const WeightMap weights({1.0, 2.0, 3.0});
  // Room for roughly two of the four contexts at a time.
  const std::size_t budget = SamplerContext::estimate_bytes(10000, 3) * 2;
  SamplerContextCache cache(budget);
  constexpr int kThreads = 8;
  constexpr int kIterations = 40;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 gen(static_cast<std::uint64_t>(1000 + t));
      for (int i = 0; i < kIterations; ++i) {
        const std::int64_t n =
            populations[static_cast<std::size_t>((t + i) %
                                                 populations.size())];
        std::shared_ptr<const SamplerContext> context;
        try {
          context = cache.acquire(n, weights);
        } catch (const ContextAdmissionError&) {
          continue;  // legal under a tiny budget; coherence checked below
        }
        ASSERT_EQ(context->population(), n);
        const auto* table = context->run_length_table(n);
        ASSERT_NE(table, nullptr);
        // Touch the shared table concurrently (the TSan target).
        std::int64_t len = table->sample(gen);
        ASSERT_GE(len, 1);
        ASSERT_LE(len, n / 2);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const ContextCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.rejections,
            std::int64_t{kThreads} * kIterations);
  EXPECT_GE(stats.misses, static_cast<std::int64_t>(populations.size()));
  EXPECT_LE(stats.entries,
            static_cast<std::int64_t>(populations.size()));
  EXPECT_LE(stats.resident_bytes, budget);
}

}  // namespace
