// E15 — google-benchmark micro-suite for the hot paths: RNG primitives
// (both jump-chain gap samplers among them), samplers (alias, Fenwick,
// linear-scan references), rule application, engine steps (agent-based
// and count-chain, plain and jump), neighbour sampling on generated
// topologies, the BatchRunner pool running tagged replicas at one
// thread and at one per hardware thread, the v2 checkpoint
// encode/decode the sweep pays at every window boundary, and one batch
// window at the sweep's shapes through run_batched and through the
// collision chain alone.
//
// The Fenwick count chain and the devirtualised agent step each have a
// retained baseline row at the same k and n: BM_CountStep vs
// BM_CountStepLinear, BM_CountJumpAdvance vs BM_CountJumpAdvanceLinear,
// BM_AgentStepComplete vs BM_AgentStepCompleteVirtual.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "batch/collision_batch.h"
#include "core/checkpoint.h"
#include "core/count_simulation.h"
#include "core/diversification.h"
#include "core/population.h"
#include "graph/topologies.h"
#include "rng/distributions.h"
#include "rng/xoshiro.h"
#include "runtime/batch_runner.h"
#include "sampling/alias.h"
#include "sampling/fenwick.h"

namespace {

using divpp::core::CountSimulation;
using divpp::core::TaggedCountSimulation;
using divpp::core::WeightMap;
using divpp::rng::Xoshiro256;

// ---------------------------------------------------------------------------
// Linear-scan count-chain baseline: a faithful copy of the pre-Fenwick hot
// path (O(k) class scans per step; O(k) propensity rebuild per active jump
// transition), kept as the baseline of the BM_*Linear rows.
// ---------------------------------------------------------------------------

struct LinearCountRef {
  std::vector<double> weights;
  std::vector<std::int64_t> dark;
  std::vector<std::int64_t> light;
  std::int64_t n = 0;
  std::int64_t total_dark = 0;
  std::int64_t time = 0;

  static LinearCountRef equal_start(std::int64_t k, std::int64_t n,
                                    double weight) {
    LinearCountRef sim;
    sim.weights.assign(static_cast<std::size_t>(k), weight);
    sim.dark.assign(static_cast<std::size_t>(k), n / k);
    for (std::int64_t i = 0; i < n % k; ++i)
      ++sim.dark[static_cast<std::size_t>(i)];
    sim.light.assign(static_cast<std::size_t>(k), 0);
    sim.n = n;
    sim.total_dark = n;
    return sim;
  }

  [[nodiscard]] std::int64_t total_light() const { return n - total_dark; }

  struct Pick {
    bool is_dark = false;
    std::int32_t color = 0;
  };

  Pick pick_class(Xoshiro256& gen, std::int64_t total,
                  const Pick* excluded) const {
    std::int64_t target = divpp::rng::uniform_below(gen, total);
    const auto k = dark.size();
    for (std::size_t i = 0; i < k; ++i) {
      std::int64_t available = dark[i];
      if (excluded != nullptr && excluded->is_dark &&
          excluded->color == static_cast<std::int32_t>(i))
        --available;
      if (target < available) return {true, static_cast<std::int32_t>(i)};
      target -= available;
    }
    for (std::size_t i = 0; i < k; ++i) {
      std::int64_t available = light[i];
      if (excluded != nullptr && !excluded->is_dark &&
          excluded->color == static_cast<std::int32_t>(i))
        --available;
      if (target < available) return {false, static_cast<std::int32_t>(i)};
      target -= available;
    }
    return {false, static_cast<std::int32_t>(k - 1)};
  }

  void apply_adopt(std::int32_t from, std::int32_t to) {
    --light[static_cast<std::size_t>(from)];
    ++dark[static_cast<std::size_t>(to)];
    ++total_dark;
  }

  void apply_fade(std::int32_t i) {
    --dark[static_cast<std::size_t>(i)];
    ++light[static_cast<std::size_t>(i)];
    --total_dark;
  }

  void step(Xoshiro256& gen) {
    const Pick initiator = pick_class(gen, n, nullptr);
    const Pick responder = pick_class(gen, n - 1, &initiator);
    if (!initiator.is_dark && responder.is_dark) {
      apply_adopt(initiator.color, responder.color);
    } else if (initiator.is_dark && responder.is_dark &&
               initiator.color == responder.color) {
      if (divpp::rng::bernoulli(
              gen, 1.0 / weights[static_cast<std::size_t>(initiator.color)]))
        apply_fade(initiator.color);
    }
    ++time;
  }

  void advance_to(std::int64_t target_time, Xoshiro256& gen) {
    const auto k = dark.size();
    std::vector<double> flip_weights(k);
    while (time < target_time) {
      const auto adopt_weight = static_cast<double>(total_light()) *
                                static_cast<double>(total_dark);
      double flip_total = 0.0;
      for (std::size_t i = 0; i < k; ++i) {
        flip_weights[i] = static_cast<double>(dark[i]) *
                          static_cast<double>(dark[i] - 1) / weights[i];
        flip_total += flip_weights[i];
      }
      const double denom =
          static_cast<double>(n) * static_cast<double>(n - 1);
      const double p_active = (adopt_weight + flip_total) / denom;
      if (!(p_active > 0.0)) {
        time = target_time;
        return;
      }
      const std::int64_t skip = divpp::rng::geometric_failures(
          gen, std::min(p_active, 1.0));
      if (time + skip >= target_time) {
        time = target_time;
        return;
      }
      time += skip;
      const double pick =
          divpp::rng::uniform01(gen) * (adopt_weight + flip_total);
      if (pick < adopt_weight) {
        const auto from = static_cast<std::int32_t>(
            divpp::rng::sample_counts(gen, light, total_light()));
        const auto to = static_cast<std::int32_t>(
            divpp::rng::sample_counts(gen, dark, total_dark));
        apply_adopt(from, to);
      } else {
        const auto faded = static_cast<std::int32_t>(
            divpp::rng::sample_discrete(gen, flip_weights));
        apply_fade(faded);
      }
      ++time;
    }
  }
};

// ---------------------------------------------------------------------------
// google-benchmark suite
// ---------------------------------------------------------------------------

void BM_Xoshiro256(benchmark::State& state) {
  Xoshiro256 gen(1);
  for (auto _ : state) benchmark::DoNotOptimize(gen());
}
BENCHMARK(BM_Xoshiro256);

void BM_UniformBelow(benchmark::State& state) {
  Xoshiro256 gen(2);
  const std::int64_t bound = state.range(0);
  for (auto _ : state)
    benchmark::DoNotOptimize(divpp::rng::uniform_below(gen, bound));
}
BENCHMARK(BM_UniformBelow)->Arg(1000)->Arg(1'000'000'000);

// The jump chain's gap draw: the inversion reference (a log and a log1p
// per draw) against the ziggurat exponential that the uniformised chain
// divides by a cached λ̄ instead.
void BM_GeometricFailures(benchmark::State& state) {
  Xoshiro256 gen(4);
  for (auto _ : state)
    benchmark::DoNotOptimize(divpp::rng::geometric_failures(gen, 0.05));
}
BENCHMARK(BM_GeometricFailures);

void BM_Exponential(benchmark::State& state) {
  Xoshiro256 gen(5);
  for (auto _ : state) benchmark::DoNotOptimize(divpp::rng::exponential(gen));
}
BENCHMARK(BM_Exponential);

void BM_AliasTableSample(benchmark::State& state) {
  Xoshiro256 gen(3);
  std::vector<double> weights(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < weights.size(); ++i)
    weights[i] = static_cast<double>(i + 1);
  const divpp::sampling::AliasTable table(weights);
  for (auto _ : state) benchmark::DoNotOptimize(table.sample(gen));
}
BENCHMARK(BM_AliasTableSample)->Arg(4)->Arg(64)->Arg(1024);

void BM_FenwickCountsSample(benchmark::State& state) {
  Xoshiro256 gen(3);
  std::vector<std::int64_t> counts(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < counts.size(); ++i)
    counts[i] = static_cast<std::int64_t>(i + 1);
  const divpp::sampling::FenwickCounts tree(counts);
  for (auto _ : state) benchmark::DoNotOptimize(tree.sample(gen));
}
BENCHMARK(BM_FenwickCountsSample)->Arg(4)->Arg(64)->Arg(1024);

// The jump chain's fade-colour draw: a propensity descent at a random
// mass position over non-dyadic weights.
void BM_FenwickPropensitiesFind(benchmark::State& state) {
  Xoshiro256 gen(3);
  std::vector<double> weights(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < weights.size(); ++i)
    weights[i] = 0.37 * static_cast<double>(i + 1);
  const divpp::sampling::FenwickPropensities tree(weights);
  const double total = tree.total();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        tree.find(divpp::rng::uniform01(gen) * total));
}
BENCHMARK(BM_FenwickPropensitiesFind)->Arg(4)->Arg(32)->Arg(1024);

// One transition's tree updates (as in a fade): a count -1 on one class,
// +1 on another, and a propensity set.  Indices and values come from a
// precomputed ring so the row times the trees, not the generator.
void BM_FenwickUpdate(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  Xoshiro256 gen(3);
  divpp::sampling::FenwickCounts counts(
      std::vector<std::int64_t>(k, std::int64_t{1} << 40));
  divpp::sampling::FenwickPropensities props(std::vector<double>(k, 1.0));
  constexpr std::size_t kRing = 4096;
  std::vector<std::int64_t> index(kRing);
  std::vector<double> value(kRing);
  for (std::size_t r = 0; r < kRing; ++r) {
    index[r] = divpp::rng::uniform_below(gen, static_cast<std::int64_t>(k));
    value[r] = divpp::rng::uniform01(gen) * 3.0;
  }
  std::size_t r = 0;
  for (auto _ : state) {
    const std::int64_t i = index[r];
    const std::int64_t j = index[(r + 1) % kRing];
    counts.add(i, -1);
    counts.add(j, +1);
    props.set(i, value[r]);
    benchmark::ClobberMemory();
    r = (r + 1) % kRing;
  }
  benchmark::DoNotOptimize(counts.total());
  benchmark::DoNotOptimize(props.total());
}
BENCHMARK(BM_FenwickUpdate)->Arg(4)->Arg(32)->Arg(1024);

void BM_LinearSampleCounts(benchmark::State& state) {
  Xoshiro256 gen(3);
  std::vector<std::int64_t> counts(static_cast<std::size_t>(state.range(0)));
  std::int64_t total = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = static_cast<std::int64_t>(i + 1);
    total += counts[i];
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(divpp::rng::sample_counts(gen, counts, total));
}
BENCHMARK(BM_LinearSampleCounts)->Arg(4)->Arg(64)->Arg(1024);

void BM_RuleApply(benchmark::State& state) {
  const divpp::core::DiversificationRule rule(WeightMap({1.0, 2.0, 4.0}));
  Xoshiro256 gen(4);
  divpp::core::AgentState me{0, divpp::core::kDark};
  const divpp::core::AgentState other{0, divpp::core::kDark};
  for (auto _ : state) {
    me.shade = divpp::core::kDark;
    benchmark::DoNotOptimize(rule.apply(me, other, gen));
  }
}
BENCHMARK(BM_RuleApply);

void BM_AgentStepComplete(benchmark::State& state) {
  const auto n = state.range(0);
  const divpp::graph::CompleteGraph graph(n);
  std::vector<std::int64_t> supports = {n / 2, n - n / 2};
  // Concrete graph type: devirtualised sampling fast path.
  auto pop = divpp::core::make_population(
      graph, supports,
      divpp::core::DiversificationRule(WeightMap({1.0, 3.0})));
  Xoshiro256 gen(5);
  for (auto _ : state) benchmark::DoNotOptimize(pop.step(gen).transition);
}
BENCHMARK(BM_AgentStepComplete)->Arg(1024)->Arg(262'144);

void BM_AgentStepCompleteVirtual(benchmark::State& state) {
  const auto n = state.range(0);
  const divpp::graph::CompleteGraph graph(n);
  const divpp::graph::Graph& base = graph;  // erase the concrete type
  std::vector<std::int64_t> supports = {n / 2, n - n / 2};
  auto pop = divpp::core::make_population(
      base, supports,
      divpp::core::DiversificationRule(WeightMap({1.0, 3.0})));
  Xoshiro256 gen(5);
  for (auto _ : state) benchmark::DoNotOptimize(pop.step(gen).transition);
}
BENCHMARK(BM_AgentStepCompleteVirtual)->Arg(1024)->Arg(262'144);

void BM_AgentStepTorus(benchmark::State& state) {
  Xoshiro256 topo_gen(6);
  const auto graph = divpp::graph::make_torus(64, 64);
  std::vector<std::int64_t> supports = {2048, 2048};
  auto pop = divpp::core::make_population(
      graph, supports,
      divpp::core::DiversificationRule(WeightMap({1.0, 3.0})));
  Xoshiro256 gen(7);
  for (auto _ : state) benchmark::DoNotOptimize(pop.step(gen).transition);
}
BENCHMARK(BM_AgentStepTorus);

void BM_CountStep(benchmark::State& state) {
  const auto k = state.range(0);
  std::vector<double> w(static_cast<std::size_t>(k), 2.0);
  auto sim = CountSimulation::equal_start(WeightMap(w), 1 << 20);
  Xoshiro256 gen(8);
  for (auto _ : state) benchmark::DoNotOptimize(sim.step(gen).transition);
}
BENCHMARK(BM_CountStep)->Arg(3)->Arg(8)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_CountStepLinear(benchmark::State& state) {
  const auto k = state.range(0);
  auto sim = LinearCountRef::equal_start(k, 1 << 20, 2.0);
  Xoshiro256 gen(8);
  for (auto _ : state) {
    sim.step(gen);
    benchmark::DoNotOptimize(sim.total_dark);
  }
}
BENCHMARK(BM_CountStepLinear)->Arg(8)->Arg(64)->Arg(256)->Arg(1024);

void BM_CountJumpAdvance(benchmark::State& state) {
  const auto k = state.range(0);
  std::vector<double> w(static_cast<std::size_t>(k), 2.0);
  auto sim = CountSimulation::equal_start(WeightMap(w), 1 << 20);
  Xoshiro256 gen(9);
  // Measure per-simulated-step cost: each iteration advances 1024 steps.
  for (auto _ : state) {
    sim.advance_to(sim.time() + 1024, gen);
    benchmark::DoNotOptimize(sim.total_dark());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_CountJumpAdvance)->Arg(8)->Arg(64)->Arg(256)->Arg(1024);

void BM_CountJumpAdvanceLinear(benchmark::State& state) {
  const auto k = state.range(0);
  auto sim = LinearCountRef::equal_start(k, 1 << 20, 2.0);
  Xoshiro256 gen(9);
  for (auto _ : state) {
    sim.advance_to(sim.time + 1024, gen);
    benchmark::DoNotOptimize(sim.total_dark);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_CountJumpAdvanceLinear)->Arg(8)->Arg(64)->Arg(256)->Arg(1024);

// The replica pool as the fairness experiments use it: 32 tagged jump
// chains (k = 32, weights cycling 1..4, n = 5·10³) of 20 sweeps each per
// iteration.  Arg 1 is one thread, Arg 0 one per hardware thread, so the
// two rows' interactions/s give the pool's scaling.
void BM_BatchRunnerTaggedReplicas(benchmark::State& state) {
  constexpr int kColors = 32;
  constexpr std::int64_t kReplicas = 32;
  constexpr std::int64_t kAgents = 5'000;
  constexpr std::int64_t kHorizon = 20 * kAgents;
  std::vector<double> w(kColors);
  for (int i = 0; i < kColors; ++i) w[static_cast<std::size_t>(i)] = 1 + i % 4;
  const CountSimulation start =
      CountSimulation::proportional_start(WeightMap(std::move(w)), kAgents);
  divpp::runtime::BatchRunner runner(static_cast<int>(state.range(0)));
  std::uint64_t seed = 15;
  for (auto _ : state) {
    const auto changes =
        runner.map(kReplicas, seed++, [&](std::int64_t r, Xoshiro256& gen) {
          TaggedCountSimulation sim(start, static_cast<int>(r % kColors),
                                    true);
          std::int64_t count = 0;
          sim.run_changes(divpp::core::Engine::kAuto, kHorizon, gen,
                          [&](std::int64_t, divpp::core::AgentState) {
                            ++count;
                          });
          return count;
        });
    benchmark::DoNotOptimize(changes.data());
  }
  state.SetItemsProcessed(state.iterations() * kReplicas * kHorizon);
  state.SetLabel(std::to_string(runner.threads()) + " threads");
}
BENCHMARK(BM_BatchRunnerTaggedReplicas)->Arg(1)->Arg(0)->UseRealTime();

// The v2 checkpoint codec as the sweep uses it: a run of the sweep's
// palette shape (weights cycling 1..4, k = 3 or 16 colours, n = 4096)
// after one 4096-interaction auto window, so the EWMA is measured and the
// blob has the sweep's ~300 bytes.
CountSimulation checkpointed_run(std::int64_t k, Xoshiro256& gen) {
  std::vector<double> w(static_cast<std::size_t>(k));
  for (std::int64_t i = 0; i < k; ++i)
    w[static_cast<std::size_t>(i)] = 1.0 + static_cast<double>(i % 4);
  auto sim = CountSimulation::proportional_start(WeightMap(std::move(w)), 4096);
  sim.run_auto(4096, gen);
  return sim;
}

void BM_CheckpointV2Encode(benchmark::State& state) {
  Xoshiro256 gen(16);
  const CountSimulation sim = checkpointed_run(state.range(0), gen);
  std::int64_t bytes = 0;
  for (auto _ : state) {
    const std::string blob = divpp::core::to_checkpoint_v2(sim, gen);
    benchmark::DoNotOptimize(blob.data());
    bytes += static_cast<std::int64_t>(blob.size());
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_CheckpointV2Encode)->Arg(3)->Arg(16);

void BM_CheckpointV2Decode(benchmark::State& state) {
  Xoshiro256 gen(16);
  const std::string blob = divpp::core::to_checkpoint_v2(
      checkpointed_run(state.range(0), gen), gen);
  for (auto _ : state) {
    const auto resumed = divpp::core::resume_run_from_checkpoint(blob);
    benchmark::DoNotOptimize(resumed.sim.time());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(blob.size()));
}
BENCHMARK(BM_CheckpointV2Decode)->Arg(3)->Arg(16);

// One 4096-interaction batch window at the sweep's shapes (weights
// cycling 1..4, proportional start warmed up for 8n interactions), once
// through run_batched — which walks agent labels or runs the collision
// chain, as its cost rule picks — and once through the chain alone.  The
// two rows per shape are the crossover data behind the rule's constants.
constexpr std::int64_t kBatchWindow = 4096;

CountSimulation warm_sweep_state(std::int64_t n, std::int64_t k,
                                 Xoshiro256& gen) {
  std::vector<double> w(static_cast<std::size_t>(k));
  for (std::int64_t i = 0; i < k; ++i)
    w[static_cast<std::size_t>(i)] = 1.0 + static_cast<double>(i % 4);
  auto sim = CountSimulation::proportional_start(WeightMap(std::move(w)), n);
  sim.advance_to(8 * n, gen);
  return sim;
}

void BM_RunBatchedWindow(benchmark::State& state) {
  Xoshiro256 gen(17);
  auto sim = warm_sweep_state(state.range(0), state.range(1), gen);
  for (auto _ : state) {
    sim.run_batched(sim.time() + kBatchWindow, gen);
    benchmark::DoNotOptimize(sim.total_dark());
  }
  state.SetItemsProcessed(state.iterations() * kBatchWindow);
}
BENCHMARK(BM_RunBatchedWindow)->ArgsProduct({{256, 4096, 16384}, {3, 16}});

void BM_CollisionBatcherAdvance(benchmark::State& state) {
  Xoshiro256 gen(17);
  const auto sim = warm_sweep_state(state.range(0), state.range(1), gen);
  std::vector<std::int64_t> dark(sim.dark_counts().begin(),
                                 sim.dark_counts().end());
  std::vector<std::int64_t> light(sim.light_counts().begin(),
                                  sim.light_counts().end());
  divpp::batch::CollisionBatcher batcher(sim.weights());
  for (auto _ : state) {
    for (std::int64_t done = 0; done < kBatchWindow;)
      done += batcher.advance(dark, light, kBatchWindow - done, gen);
    benchmark::DoNotOptimize(dark.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kBatchWindow);
}
BENCHMARK(BM_CollisionBatcherAdvance)
    ->ArgsProduct({{256, 4096, 16384}, {3, 16}});

void BM_NeighborSampleRegular(benchmark::State& state) {
  Xoshiro256 topo_gen(10);
  const auto graph =
      divpp::graph::make_random_regular(4096, 8, topo_gen);
  Xoshiro256 gen(11);
  for (auto _ : state)
    benchmark::DoNotOptimize(graph.sample_neighbor(17, gen));
}
BENCHMARK(BM_NeighborSampleRegular);

}  // namespace

BENCHMARK_MAIN();
