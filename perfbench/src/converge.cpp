// converge: the paper's time-to-solution.  Untagged runs of n = 10⁸
// agents, k = 8 colours of weight 4 (W = 32), from a skewed start with
// 10³-agent minorities, advanced by Engine::kAuto in windows of n
// interactions to a fixed horizon of 160n, with an E(0.1) membership
// check after every window.  Auto runs the collision-batch chain here, so
// batch/rng do nearly all the work; runtime and fault are not touched.
//
// Each run is single-threaded.  A pass runs nproc of them side by side
// (one per core, each on its own stream) and lasts until the last one
// finishes.  On a shared 4-vCPU host a lone run's wall time swung between
// 8.9 s and 12.9 s from one run to the next, by the state of whichever
// core it landed on; side by side the cores' states average out.
//
// The start puts all but 7·10³ agents on colour 0 and 10³ dark agents on
// each other colour.  From CountSimulation::adversarial_start (a single
// agent per minority colour) the entry time into E(0.1) hinges on each
// minority's first few adoptions: over eight seeds at n = 10⁸ it ranged
// from 187n to 337n, a tail no fixed horizon covers cheaply.  With 10³
// agents per minority it is 130n on every seed tried.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "analysis/convergence.h"
#include "batch/collision_batch.h"
#include "check/counting_generator.h"
#include "context/sampler_context.h"
#include "core/count_simulation.h"
#include "rng/xoshiro.h"
#include "workloads.h"

namespace perfbench {
namespace {

using divpp::core::CountSimulation;
using divpp::core::Engine;
using divpp::core::WeightMap;
using divpp::rng::Xoshiro256;

constexpr std::int64_t kWindows = 160;
constexpr std::int64_t kMinority = 1000;
constexpr double kDelta = 0.1;
/// Traced passes keep the state of every kSampleEvery-th window of run 0.
constexpr std::int64_t kSampleEvery = 20;
/// Collision batches per batch-probe snapshot.
constexpr std::int64_t kProbeBatches = 2000;
constexpr std::int64_t kReplayCap = std::int64_t{1} << 40;

struct RunOut {
  std::vector<double> window_ms;
  std::int64_t entered = -1;
  bool inside = false;
  std::int64_t active = 0;
};

class Converge final : public Workload {
 public:
  explicit Converge(const Config& config)
      : config_(config),
        n_(config.smoke ? 1'000'000 : 100'000'000),
        runs_(config.threads),
        weights_(std::vector<double>(8, 4.0)),
        final_hash_(static_cast<std::size_t>(runs_)) {}

  void setup() override {
    const auto k = static_cast<std::size_t>(weights_.num_colors());
    std::vector<std::int64_t> dark(k, kMinority);
    dark[0] = n_ - static_cast<std::int64_t>(k - 1) * kMinority;
    const CountSimulation start(weights_, std::move(dark),
                                std::vector<std::int64_t>(k, 0));
    context_ =
        std::make_shared<const divpp::context::SamplerContext>(n_, weights_);
    sims_.assign(static_cast<std::size_t>(runs_), start);
    for (CountSimulation& sim : sims_) sim.set_sampler_context(context_);
  }

  PassStats pass(Verdict& verdict) override {
    const bool traced = trace::enabled();
    const std::int64_t parent = trace::current_span();
    std::vector<RunOut> outs(static_cast<std::size_t>(runs_));
    PassStats stats;
    const std::int64_t start = trace::now_ns();
    {
      std::vector<std::thread> threads;
      for (int r = 0; r < runs_; ++r)
        threads.emplace_back([&, r]() {
          outs[static_cast<std::size_t>(r)] = run(r, traced, parent);
        });
      for (std::thread& thread : threads) thread.join();
    }
    stats.wall_s = seconds_since(start);
    stats.interactions = static_cast<double>(runs_ * kWindows * n_);
    stats.scenarios = runs_;
    // Window w's latency is its mean over the side-by-side runs.  Each run
    // settles on its own plateau (late windows of one pass took 80, 90
    // and 100 ms on different cores), so a median over the pooled windows
    // of all runs fell between plateaus and moved by a fifth from run to
    // run; averaging over the runs first leaves one plateau.
    stats.window_ms.assign(static_cast<std::size_t>(kWindows), 0.0);
    for (const RunOut& out : outs)
      for (std::size_t w = 0; w < out.window_ms.size(); ++w)
        stats.window_ms[w] += out.window_ms[w] / runs_;
    active_ = 0;
    std::int64_t bad = 0;
    std::string detail;
    for (int r = 0; r < runs_; ++r) {
      const RunOut& out = outs[static_cast<std::size_t>(r)];
      const CountSimulation& sim = sims_[static_cast<std::size_t>(r)];
      active_ += out.active;
      std::int64_t total = 0;
      for (const std::int64_t v : sim.dark_counts()) total += v;
      for (const std::int64_t v : sim.light_counts()) total += v;
      // Same seed, same stream: every pass (traced or not) must land on
      // the same final state — tracing never consumes a draw.
      const std::uint64_t hash = state_hash(sim);
      auto& expected = final_hash_[static_cast<std::size_t>(r)];
      const bool repeatable = !expected || *expected == hash;
      expected = hash;
      if (out.entered > 0 && out.inside && sim.min_dark() > 0 &&
          total == n_ && sim.time() == kWindows * n_ && repeatable)
        continue;
      ++bad;
      detail += " run " + std::to_string(r) + ": entered E(0.1) at window " +
                std::to_string(out.entered) + ", inside at the end " +
                std::to_string(out.inside) + ", min_dark " +
                std::to_string(sim.min_dark()) + ", agents " +
                std::to_string(total) + ", repeatable " +
                std::to_string(repeatable) + ";";
    }
    verdict.tally(runs_, bad, "converge:" + detail);
    return stats;
  }

  void verify(Verdict&) override {}

  void probe() override {
    // Batch probe: CollisionBatcher::advance on copies of the live
    // counts at the sampled windows, sharing the run's context.
    divpp::batch::CollisionBatcher batcher(context_);
    for (const Snapshot& snap : snapshots_) {
      std::vector<std::int64_t> dark = snap.dark;
      std::vector<std::int64_t> light = snap.light;
      Xoshiro256 gen = snap.gen_before;
      const Xoshiro256 before = gen;
      {
        const trace::Scope span("batch.CollisionBatcher::advance");
        for (std::int64_t b = 0; b < kProbeBatches; ++b) {
          probe_ints_ += batcher.advance(dark, light, n_, gen);
          probe_transitions_ +=
              batcher.last_outcome().adopts + batcher.last_outcome().fades;
        }
      }
      probe_batches_ += kProbeBatches;
      probe_draws_ += divpp::check::draws_between(before, gen, kReplayCap);
      // Exact draw count of the real window (replayed, not counted live).
      const trace::Scope span("check.draws_between");
      window_draws_ +=
          divpp::check::draws_between(snap.gen_before, snap.gen_after,
                                      kReplayCap);
      window_ints_ += n_;
    }
    for (int r = 0; r < 5; ++r) {
      const trace::Scope span("batch.RunLengthTable");
      const divpp::batch::RunLengthTable table(n_);
    }
  }

  void layer_metrics(const SpanTable& spans, Metrics& out) override {
    const double ints = static_cast<double>(runs_ * kWindows * n_);
    const auto batches = static_cast<double>(probe_batches_);
    out["core.advance_ns_per_int"] = {
        spans.self_ns("core.advance_with") / ints, "ns"};
    out["core.active_frac"] = {static_cast<double>(active_) / ints, "ratio"};
    out["batch.ns_per_batch"] = {
        spans.self_ns("batch.CollisionBatcher::advance") / batches, "ns"};
    out["batch.int_per_batch"] = {
        static_cast<double>(probe_ints_) / batches, "count"};
    out["batch.transitions_per_batch"] = {
        static_cast<double>(probe_transitions_) / batches, "count"};
    out["batch.run_table_build_ms"] = {
        median(spans.durations_ns("batch.RunLengthTable")) * 1e-6, "ms"};
    out["rng.draws_per_kint"] = {static_cast<double>(window_draws_) * 1e3 /
                                     static_cast<double>(window_ints_),
                                 "draws/kint"};
    out["rng.draws_per_batch"] = {
        static_cast<double>(probe_draws_) / batches, "count"};
    out["analysis.region_check_us"] = {
        mean(spans.durations_ns("analysis.in_equilibrium_region")) * 1e-3,
        "us"};
  }

 private:
  struct Snapshot {
    std::vector<std::int64_t> dark;
    std::vector<std::int64_t> light;
    Xoshiro256 gen_before;
    Xoshiro256 gen_after;
  };

  /// One single-threaded run on its own stream; run 0 of a traced pass
  /// also keeps the probe snapshots.
  RunOut run(int r, bool traced, std::int64_t parent) {
    const trace::Scope span("bench.run", parent);
    CountSimulation& sim = sims_[static_cast<std::size_t>(r)];
    Xoshiro256 gen(derive_seed(config_.seed, 1 + static_cast<std::uint64_t>(r)));
    RunOut out;
    out.window_ms.reserve(kWindows);
    const std::int64_t active_before = sim.active_transitions();
    for (std::int64_t w = 1; w <= kWindows; ++w) {
      const bool sample = traced && r == 0 && w % kSampleEvery == 0;
      if (sample)
        snapshots_.push_back({{sim.dark_counts().begin(),
                               sim.dark_counts().end()},
                              {sim.light_counts().begin(),
                               sim.light_counts().end()},
                              gen,
                              gen});
      const std::int64_t t0 = trace::now_ns();
      {
        const trace::Scope window("core.advance_with");
        sim.advance_with(Engine::kAuto, w * n_, gen);
      }
      if (sample) snapshots_.back().gen_after = gen;
      {
        const trace::Scope check("analysis.in_equilibrium_region");
        out.inside = divpp::analysis::in_equilibrium_region(sim, kDelta);
      }
      out.window_ms.push_back(
          static_cast<double>(trace::now_ns() - t0) * 1e-6);
      if (out.inside && out.entered < 0) out.entered = w;
    }
    out.active = sim.active_transitions() - active_before;
    return out;
  }

  Config config_;
  std::int64_t n_;
  int runs_;
  WeightMap weights_;
  std::shared_ptr<const divpp::context::SamplerContext> context_;
  std::vector<CountSimulation> sims_;
  /// Final-state hash of each run in the previous pass.
  std::vector<std::optional<std::uint64_t>> final_hash_;
  std::int64_t active_ = 0;
  std::vector<Snapshot> snapshots_;
  std::int64_t probe_batches_ = 0;
  std::int64_t probe_ints_ = 0;
  std::int64_t probe_transitions_ = 0;
  std::int64_t probe_draws_ = 0;
  std::int64_t window_draws_ = 0;
  std::int64_t window_ints_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_converge(const Config& config) {
  return std::make_unique<Converge>(config);
}

}  // namespace perfbench
