// fairness: Definition 1.1(2), every agent holds colour i for a w_i/W
// share of the time.  Replicas of a tagged run (k = 32, weights cycling
// 1,2,3,4 so W = 80, proportional start) are spread over a
// runtime::BatchRunner pool; each feeds its tagged agent's state changes
// (TaggedCountSimulation::run_changes) into an analysis::FairnessTracker
// window by window.  Auto picks the jump chain here, so this workload
// exercises the Fenwick samplers, the tagged decomposition and the
// unequal-weight fades, and bypasses CollisionBatcher::advance.

#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/fairness.h"
#include "batch/collision_batch.h"
#include "check/counting_generator.h"
#include "core/count_simulation.h"
#include "rng/distributions.h"
#include "rng/xoshiro.h"
#include "runtime/batch_runner.h"
#include "sampling/fenwick.h"
#include "workloads.h"

namespace perfbench {
namespace {

using divpp::core::AgentState;
using divpp::core::CountSimulation;
using divpp::core::Engine;
using divpp::core::TaggedCountSimulation;
using divpp::core::WeightMap;
using divpp::rng::Xoshiro256;

constexpr int kColors = 32;
constexpr int kClasses = 4;  // weights 1..4
/// The check pools every pass of a run (each pass draws fresh replica
/// streams) and allows kShareSigmas·√(kSojournFactor·p(1−p)/changes) +
/// kShareBias around each weight class's fair share p.  kSojournFactor
/// is measured, not modelled: over four seeds the per-pass deviations
/// (7.7·10³ changes each) had an RMS of 0.011, which this factor
/// reproduces for p = 0.2.  Single passes deviated by at most 0.024
/// (seed 1) and 0.009 (seed 2).  A 25-second run pools about eight
/// passes, where the allowance is about 0.017: under it equal shares
/// (off by 0.05 for weights 2 and 3, 0.15 for 1 and 4) fail every class.
constexpr double kShareSigmas = 4.0;
constexpr double kSojournFactor = 6.0;
constexpr double kShareBias = 0.002;
constexpr std::int64_t kSampleEvery = 500;
constexpr std::int64_t kProbeCalls = 1 << 20;
constexpr std::int64_t kReplayCap = std::int64_t{1} << 40;

WeightMap fairness_weights() {
  std::vector<double> w(kColors);
  for (int i = 0; i < kColors; ++i) w[static_cast<std::size_t>(i)] = 1 + i % 4;
  return WeightMap(std::move(w));
}

struct ReplicaOut {
  std::array<std::int64_t, kClasses> class_time{};
  std::int64_t changes = 0;
  std::int64_t active = 0;
  bool conserved = false;
  std::vector<double> window_ms;
  /// Replica 0 of a traced pass: generator states around sampled windows
  /// and the final dark counts (probe inputs).
  std::vector<std::pair<Xoshiro256, Xoshiro256>> sampled;
  std::vector<std::int64_t> final_dark;
};

class Fairness final : public Workload {
 public:
  explicit Fairness(const Config& config)
      : config_(config),
        weights_(fairness_weights()),
        n_(5'000),
        windows_(config.smoke ? 2'000 : 10'000),
        replicas_(config.smoke ? 4 : 32) {}

  void setup() override {
    runner_ = std::make_unique<divpp::runtime::BatchRunner>(config_.threads);
    // The pool starts its threads on first use; start them here.
    (void)runner_->map(config_.threads, 0,
                       [](std::int64_t r, Xoshiro256&) { return r; });
    initial_.clear();
    const CountSimulation start =
        CountSimulation::proportional_start(weights_, n_);
    for (std::int64_t r = 0; r < replicas_; ++r)
      initial_.emplace_back(start, static_cast<int>(r % kColors), true);
  }

  PassStats pass(Verdict& verdict) override {
    const bool traced = trace::enabled();
    PassStats stats;
    std::vector<ReplicaOut> outs;
    const std::uint64_t seed = derive_seed(derive_seed(config_.seed, 2),
                                           static_cast<std::uint64_t>(passes_));
    const std::int64_t start = trace::now_ns();
    {
      const trace::Scope span("runtime.BatchRunner::map");
      const std::int64_t parent = span.id();
      outs = runner_->map(replicas_, seed,
                          [&](std::int64_t r, Xoshiro256& gen) {
                            return run_replica(r, gen, traced, parent);
                          });
    }
    stats.wall_s = seconds_since(start);
    stats.interactions = static_cast<double>(replicas_ * windows_ * n_);
    stats.scenarios = replicas_;
    ++passes_;

    // Window w's latency is its mean over the replicas, as in converge.
    // A replica runs on one pool thread, and one replica's median window
    // ranged from 18 to 53 µs within a pass by the state of the vCPU it
    // ran on, so a median over the pooled windows of all replicas moved
    // with how many replicas landed on slow vCPUs.
    stats.window_ms.assign(static_cast<std::size_t>(windows_), 0.0);
    std::int64_t bad = 0;
    std::int64_t changes = 0;
    active_ = 0;
    for (ReplicaOut& out : outs) {
      for (int c = 0; c < kClasses; ++c) pooled_[c] += out.class_time[c];
      if (!out.conserved) ++bad;
      active_ += out.active;
      changes += out.changes;
      for (std::size_t w = 0; w < out.window_ms.size(); ++w)
        stats.window_ms[w] += out.window_ms[w] / static_cast<double>(replicas_);
    }
    changes_ += changes;
    horizon_ += replicas_ * windows_ * n_;
    if (traced) {
      sampled_ = outs[0].sampled;
      live_dark_ = outs[0].final_dark;
    }
    verdict.tally(replicas_, bad,
                  "fairness: replica counts not conserved or tagged agent "
                  "lost");
    verdict.check(changes >= replicas_ * windows_ / 200,
                  "fairness: tagged agents changed state only " +
                      std::to_string(changes) + " times");
    return stats;
  }

  /// Definition 1.1(2) on the occupancy pooled over every pass.
  void verify(Verdict& verdict) override {
    for (int c = 0; c < kClasses; ++c) {
      const double share =
          static_cast<double>(pooled_[c]) / static_cast<double>(horizon_);
      const double fair = (c + 1) * (kColors / kClasses) / 80.0;
      tolerance_[c] = kShareSigmas * std::sqrt(kSojournFactor * fair *
                                               (1.0 - fair) /
                                               static_cast<double>(changes_)) +
                      kShareBias;
      deviation_[c] = share - fair;
      verdict.check(std::abs(deviation_[c]) <= tolerance_[c],
                    "fairness: weight-" + std::to_string(c + 1) +
                        " colours held " + std::to_string(share) +
                        " of the time, fair share " + std::to_string(fair) +
                        ", tolerance " + std::to_string(tolerance_[c]));
    }
  }

  void describe(std::map<std::string, double>& info) const override {
    for (int c = 0; c < kClasses; ++c)
      info["share_deviation_w" + std::to_string(c + 1)] =
          deviation_[static_cast<std::size_t>(c)];
    info["tagged_changes"] = static_cast<double>(changes_);
  }

  void probe() override {
    // Fenwick find over the live k = 32 dark counts.
    {
      const divpp::sampling::FenwickCounts tree(live_dark_);
      std::vector<std::int64_t> targets(kProbeCalls);
      Xoshiro256 gen(derive_seed(config_.seed, 3));
      for (auto& t : targets)
        t = divpp::rng::uniform_below(gen, tree.total());
      std::int64_t sink = 0;
      {
        const trace::Scope span("sampling.FenwickCounts::find");
        for (const std::int64_t t : targets) sink += tree.find(t);
      }
      sink_ += sink;
    }
    // Tagged involvement over one n-interaction window.
    {
      Xoshiro256 gen(derive_seed(config_.seed, 4));
      std::vector<std::int64_t> positions;
      const trace::Scope span(
          "batch.CollisionBatcher::draw_tagged_involvement");
      for (std::int64_t i = 0; i < kProbeCalls; ++i) {
        divpp::batch::CollisionBatcher::draw_tagged_involvement(gen, n_, n_,
                                                                positions);
        sink_ += static_cast<std::int64_t>(positions.size());
      }
    }
    const trace::Scope span("check.draws_between");
    for (const auto& [before, after] : sampled_) {
      window_draws_ += divpp::check::draws_between(before, after, kReplayCap);
      window_ints_ += n_;
    }
  }

  void layer_metrics(const SpanTable& spans, Metrics& out) override {
    const double ints = static_cast<double>(replicas_ * windows_ * n_);
    const double core_ns = spans.self_ns("core.run_changes");
    out["core.advance_ns_per_int"] = {core_ns / ints, "ns"};
    out["core.active_frac"] = {static_cast<double>(active_) / ints, "ratio"};
    out["core.ns_per_transition"] = {core_ns / static_cast<double>(active_),
                                     "ns"};
    out["batch.involvement_ns"] = {
        spans.self_ns("batch.CollisionBatcher::draw_tagged_involvement") /
            static_cast<double>(kProbeCalls),
        "ns"};
    out["sampling.find_ns"] = {spans.self_ns("sampling.FenwickCounts::find") /
                                   static_cast<double>(kProbeCalls),
                               "ns"};
    out["rng.draws_per_kint"] = {static_cast<double>(window_draws_) * 1e3 /
                                     static_cast<double>(window_ints_),
                                 "draws/kint"};
    out["analysis.observe_change_ns"] = {
        mean(spans.durations_ns("analysis.FairnessTracker::observe_change")),
        "ns"};
  }

 private:
  ReplicaOut run_replica(std::int64_t r, Xoshiro256& gen, bool traced,
                         std::int64_t parent) const {
    const trace::Scope span("bench.replica", parent);
    TaggedCountSimulation sim = initial_[static_cast<std::size_t>(r)];
    const AgentState first = sim.tagged_state();
    divpp::analysis::FairnessTracker tracker(std::span(&first, 1), kColors);
    ReplicaOut out;
    out.window_ms.reserve(static_cast<std::size_t>(windows_));
    const TaggedCountSimulation::ChangeObserver on_change =
        [&](std::int64_t time, AgentState next) {
          const trace::Scope change(
              "analysis.FairnessTracker::observe_change");
          tracker.observe_change(0, time, next);
          ++out.changes;
        };
    const std::int64_t active_before = sim.counts().active_transitions();
    for (std::int64_t w = 1; w <= windows_; ++w) {
      const bool sample = traced && r == 0 && w % kSampleEvery == 0;
      const Xoshiro256 before = gen;
      const std::int64_t t0 = trace::now_ns();
      {
        const trace::Scope window("core.run_changes");
        sim.run_changes(Engine::kAuto, w * n_, gen, on_change);
      }
      out.window_ms.push_back(
          static_cast<double>(trace::now_ns() - t0) * 1e-6);
      if (sample) out.sampled.emplace_back(before, gen);
    }
    const std::int64_t horizon = windows_ * n_;
    tracker.finalize(horizon);
    for (int i = 0; i < kColors; ++i)
      out.class_time[static_cast<std::size_t>(i % kClasses)] +=
          tracker.color_time(0, i);
    out.active = sim.counts().active_transitions() - active_before;

    const CountSimulation& counts = sim.counts();
    std::int64_t total = 0;
    for (const std::int64_t v : counts.dark_counts()) total += v;
    for (const std::int64_t v : counts.light_counts()) total += v;
    const AgentState tagged = sim.tagged_state();
    const std::int64_t cell = tagged.is_dark() ? counts.dark(tagged.color)
                                               : counts.light(tagged.color);
    out.conserved = total == n_ && cell >= 1 && sim.time() == horizon;
    if (traced && r == 0)
      out.final_dark.assign(counts.dark_counts().begin(),
                            counts.dark_counts().end());
    return out;
  }

  Config config_;
  WeightMap weights_;
  std::int64_t n_;
  std::int64_t windows_;
  std::int64_t replicas_;
  std::unique_ptr<divpp::runtime::BatchRunner> runner_;
  std::vector<TaggedCountSimulation> initial_;
  std::int64_t passes_ = 0;
  /// Occupancy per weight class, tagged changes and tagged-agent time,
  /// pooled over every pass.
  std::array<std::int64_t, kClasses> pooled_{};
  std::int64_t changes_ = 0;
  std::int64_t horizon_ = 0;
  std::int64_t active_ = 0;  ///< of the last pass
  /// Pooled share minus fair share per weight class, and its allowance.
  std::array<double, kClasses> deviation_{};
  std::array<double, kClasses> tolerance_{};
  std::vector<std::pair<Xoshiro256, Xoshiro256>> sampled_;
  std::vector<std::int64_t> live_dark_;
  std::int64_t window_draws_ = 0;
  std::int64_t window_ints_ = 0;
  std::int64_t sink_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_fairness(const Config& config) {
  return std::make_unique<Fairness>(config);
}

}  // namespace perfbench
