// sweep and contained: many short scenarios through runtime::SweepRunner.
//
// sweep: in-process sweeps of 5·10⁴ mixed scenarios — populations
// cycling through n ∈ {256, 1024, 1024, 4096, 16384}, palettes
// k ∈ {3, 8, 16} (12 shared context keys), engines batch/auto/jump,
// three start kinds, target 4n, in-memory v2 checkpoints every 4096
// interactions.  It stresses the runtime, the context cache and
// checkpoint encoding; each scenario is short.  The 5·10⁴ scenarios form
// five slices of 10⁴ with the same mix, and each pass is one
// SweepRunner::run over the next slice, so a run holds two dozen passes
// of about 1.4 s rather than three of 7 s.  A window (window_ms_*) is
// 2^22 interactions of completed scenarios, pool-wide.
//
// contained: a section of traced runs only — 60 scenarios of the same
// family at target 256n under supervision: forked worker processes,
// durable checkpoint files every 2^21 interactions in a sweep directory,
// and a fixed seeded schedule of one-shot worker SIGKILLs / SIGSEGVs.
// The only load on runtime/supervisor (fork, pipe frames, reaping,
// respawn-and-resume) and fault/durable_file (fsync).  It is no
// end-to-end workload because its times follow the disk (see README).
//
// Both check every value, bit for bit, against a dedicated run_windows
// reference computed outside the timed passes.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "context/sampler_context.h"
#include "core/checkpoint.h"
#include "core/count_simulation.h"
#include "fault/durable_file.h"
#include "fault/fault.h"
#include "rng/distributions.h"
#include "rng/xoshiro.h"
#include "runtime/durable_runner.h"
#include "runtime/supervisor.h"
#include "runtime/sweep_runner.h"
#include "runtime/window_math.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using divpp::core::CountSimulation;
using divpp::core::Engine;
using divpp::core::WeightMap;
using divpp::fault::FaultKind;
using divpp::fault::FaultSchedule;
using divpp::fault::FaultSpec;
using divpp::rng::Xoshiro256;
using divpp::runtime::ScenarioOutcome;
using divpp::runtime::ScenarioSpec;
using divpp::runtime::SweepOptions;
using divpp::runtime::SweepResult;
using divpp::runtime::SweepRunner;

/// Traced passes re-run every kDecomposeEvery-th scenario as explicit
/// advance / canonicalize / encode calls to time those layers.
constexpr std::size_t kDecomposeEvery = 25;
/// sweep: scenarios per pass, and the passes that cover a run's inputs.
constexpr std::int64_t kSliceSize = 10'000;
constexpr std::int64_t kSlices = 5;
constexpr std::int64_t kSmokeSliceSize = 240;
constexpr std::int64_t kSmokeSlices = 2;
/// contained: scenarios of its single pass.
constexpr std::int64_t kContainedScenarios = 60;
/// sweep's unit of progress: 2^22 interactions of completed scenarios,
/// about 30 ms of a 4-thread pass, 43 windows per slice (2^18 at smoke
/// scale).
constexpr std::int64_t kWindowInteractions = std::int64_t{1} << 22;
constexpr std::int64_t kSmokeWindowInteractions = std::int64_t{1} << 18;

const std::int64_t kPopulations[] = {256, 1024, 4096, 16384};
/// Scenario populations cycle through this mix.  With four equal classes
/// the median scenario sits on the boundary between the 1024 and 4096
/// classes, and runtime.scenario_ms_p50 jumps between them from run to
/// run; doubling 1024 puts the median inside one class.
const std::int64_t kPopulationMix[] = {256, 1024, 1024, 4096, 16384};
const Engine kEngines[] = {Engine::kBatch, Engine::kAuto, Engine::kJump};
const ScenarioSpec::Start kStarts[] = {ScenarioSpec::Start::kProportional,
                                       ScenarioSpec::Start::kAdversarial,
                                       ScenarioSpec::Start::kEqual};

std::vector<WeightMap> palettes() {
  const auto cycling = [](int k) {
    std::vector<double> w(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) w[static_cast<std::size_t>(i)] = 1 + i % 4;
    return WeightMap(std::move(w));
  };
  return {WeightMap({1.0, 2.0, 3.0}), cycling(8), cycling(16)};
}

/// Scenarios `first` .. `first + count − 1` of the seed's family, in an
/// order shuffled by the seed.  Scenario c is combination c mod 135 of
/// (n, palette, engine, start), so any run of consecutive indices holds
/// every combination equally often (up to count mod 135 extras).  The
/// shuffle permutes indices, then builds each spec once in its final
/// slot: shuffling the specs themselves made set-up memory-latency bound
/// and its time swing by a third between otherwise equal runs.
std::vector<ScenarioSpec> make_specs(std::int64_t first, std::int64_t count,
                                     std::int64_t target_multiple,
                                     std::uint64_t seed) {
  const std::vector<WeightMap> weights = palettes();
  std::vector<std::int64_t> order(static_cast<std::size_t>(count));
  std::iota(order.begin(), order.end(), first);
  Xoshiro256 gen(derive_seed(derive_seed(seed, 5),
                             static_cast<std::uint64_t>(first)));
  for (std::int64_t i = count - 1; i > 0; --i)
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(
                  divpp::rng::uniform_below(gen, i + 1))]);
  std::vector<ScenarioSpec> specs;
  specs.reserve(static_cast<std::size_t>(count));
  for (const std::int64_t c : order) {
    std::string name = std::to_string(c);
    name.insert(0, 1, 's');
    const std::int64_t n = kPopulationMix[c % 5];
    specs.push_back(ScenarioSpec{
        .name = std::move(name),
        .n = n,
        .weights = weights[static_cast<std::size_t>((c / 5) % 3)],
        .start = kStarts[(c / 45) % 3],
        .engine = kEngines[(c / 15) % 3],
        .target_time = target_multiple * n,
        .seed = derive_seed(seed, 1000 + static_cast<std::uint64_t>(c))});
  }
  return specs;
}

CountSimulation initial_state(const ScenarioSpec& spec) {
  switch (spec.start) {
    case ScenarioSpec::Start::kAdversarial:
      return CountSimulation::adversarial_start(spec.weights, spec.n);
    case ScenarioSpec::Start::kEqual:
      return CountSimulation::equal_start(spec.weights, spec.n);
    case ScenarioSpec::Start::kProportional:
      break;
  }
  return CountSimulation::proportional_start(spec.weights, spec.n);
}

/// The scenario statistic: 53 bits of the state hash, exact as a double,
/// so "bit for bit" compares whole trajectories' end points.
double fingerprint(const CountSimulation& sim) {
  return static_cast<double>(state_hash(sim) >> 11);
}

/// When each scenario of a pass completed, and how many interactions it
/// simulated.  A window of the pass is a fixed amount of completed work,
/// pool-wide: window_ms() cuts the pass at the moments the cumulative
/// completed interactions cross each multiple of it.
class CompletionLog {
 public:
  void begin_pass(std::size_t capacity) {
    done_.assign(capacity, Completion{});
    next_.store(0);
    start_ns_ = trace::now_ns();
  }

  void record(std::int64_t interactions) {
    const std::int64_t now = trace::now_ns();
    const std::size_t slot = next_.fetch_add(1);
    if (slot < done_.size()) done_[slot] = {now, interactions};
  }

  /// Durations of the pass's whole windows; the partial last one is
  /// dropped.
  [[nodiscard]] std::vector<double> window_ms(std::int64_t volume) const {
    std::vector<Completion> done(
        done_.begin(),
        done_.begin() + static_cast<std::ptrdiff_t>(
                            std::min(next_.load(), done_.size())));
    std::sort(done.begin(), done.end(),
              [](const Completion& a, const Completion& b) {
                return a.ns < b.ns;
              });
    std::vector<double> windows;
    std::int64_t work = 0;
    std::int64_t boundary_ns = start_ns_;
    for (const Completion& c : done) {
      const std::int64_t before = work / volume;
      work += c.interactions;
      if (work / volume == before) continue;
      windows.push_back(static_cast<double>(c.ns - boundary_ns) * 1e-6);
      boundary_ns = c.ns;
    }
    return windows;
  }

 private:
  struct Completion {
    std::int64_t ns = 0;
    std::int64_t interactions = 0;
  };
  std::vector<Completion> done_;
  std::atomic<std::size_t> next_{0};
  std::int64_t start_ns_ = 0;
};

/// One-shot worker deaths on ~1% of the scenarios, alternating SIGKILL
/// and SIGSEGV, each after a checkpoint boundary that is not the last.
FaultSchedule kill_schedule(const std::vector<ScenarioSpec>& specs,
                            std::int64_t period, std::uint64_t seed,
                            std::set<std::size_t>& hit) {
  const std::size_t wanted = std::max<std::size_t>(2, specs.size() / 100);
  Xoshiro256 gen(derive_seed(seed, 6));
  std::vector<FaultSpec> faults;
  hit.clear();
  while (hit.size() < wanted) {
    const auto index = static_cast<std::size_t>(divpp::rng::uniform_below(
        gen, static_cast<std::int64_t>(specs.size())));
    const std::int64_t boundaries =
        (specs[index].target_time + period - 1) / period;
    if (boundaries < 2 || !hit.insert(index).second) continue;
    FaultSpec fault;
    fault.kind = hit.size() % 2 == 0 ? FaultKind::kKill : FaultKind::kSegv;
    fault.at_window = divpp::rng::uniform_below(gen, boundaries - 1);
    fault.replica = static_cast<std::int64_t>(index);
    faults.push_back(fault);
  }
  return FaultSchedule(std::move(faults));
}

class Sweep final : public Workload {
 public:
  Sweep(const Config& config, bool contained)
      : config_(config),
        contained_(contained),
        slice_size_(contained      ? kContainedScenarios
                    : config.smoke ? kSmokeSliceSize
                                   : kSliceSize),
        slices_(contained ? 1 : (config.smoke ? kSmokeSlices : kSlices)),
        target_multiple_(contained ? 256 : 4),
        period_(contained ? std::int64_t{1} << 21 : 4096),
        window_interactions_(config.smoke ? kSmokeWindowInteractions
                                          : kWindowInteractions),
        values_(static_cast<std::size_t>(slices_ * slice_size_),
                std::numeric_limits<double>::quiet_NaN()),
        reference_wall_s_(static_cast<std::size_t>(slices_), 0.0) {
    if (contained_) {
      dir_ = (fs::path(config.work_dir) /
              ("contained-" + std::to_string(getpid())))
                 .string();
    }
  }

  ~Sweep() override {
    std::error_code ignored;
    if (!dir_.empty()) {
      fs::remove_all(dir_, ignored);
      fs::remove_all(dir_ + "-inproc", ignored);
      fs::remove_all(dir_ + "-probe", ignored);
    }
  }

  void setup() override {
    slice_ = passes_ % slices_;
    specs_ = make_specs(slice_ * slice_size_, slice_size_, target_multiple_,
                        config_.seed);
    if (contained_) {
      faults_ = kill_schedule(specs_, period_, config_.seed, targeted_);
      fs::create_directories(dir_);
    }
    runner_ = std::make_unique<SweepRunner>(options(contained_));
  }

  PassStats pass(Verdict& verdict) override {
    // Every pass starts from an empty sweep directory.  Deleting the last
    // pass's checkpoint files is housekeeping, timed neither as set-up
    // (it would make set-up bimodal) nor as the pass.
    if (contained_) {
      fs::remove_all(dir_);
      fs::create_directories(dir_);
    }
    completions_.begin_pass(specs_.size());
    const auto statistic = [this](const CountSimulation& sim) {
      completions_.record(sim.time());
      return fingerprint(sim);
    };
    PassStats stats;
    SweepResult result;
    const std::int64_t start = trace::now_ns();
    {
      const trace::Scope span("runtime.SweepRunner::run");
      result = runner_->run(specs_, statistic);
    }
    stats.wall_s = seconds_since(start);
    last_wall_s_ = stats.wall_s;
    for (const ScenarioSpec& spec : specs_)
      stats.interactions += static_cast<double>(spec.target_time);
    stats.scenarios = slice_size_;
    stats.window_ms = completions_.window_ms(window_interactions_);
    if (!contained_) context_ = runner_->context_stats();

    const std::string what = contained_ ? "contained" : "sweep";
    std::int64_t bad = 0;
    attempts_ = 0;
    recovered_ = 0;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      const auto& report = result.scenarios[i];
      attempts_ += report.attempts;
      if (report.outcome == ScenarioOutcome::kRecovered) ++recovered_;
      const ScenarioOutcome expected = targeted_.count(i) > 0
                                           ? ScenarioOutcome::kRecovered
                                           : ScenarioOutcome::kOk;
      // Same seed, same slice: a repeated pass gives the same values.
      double& value = values_[global_index(i)];
      const bool repeat_ok = std::isnan(value) || value == report.value;
      value = report.value;
      if (report.outcome != expected || !repeat_ok) ++bad;
    }
    verdict.tally(slice_size_, bad,
                  what + ": scenarios quarantined, rejected, recovered "
                         "without a scheduled kill, or not repeatable");
    verdict.check(result.quarantined == 0 && result.rejected == 0,
                  what + ": quarantined or rejected scenarios");
    if (contained_)
      verdict.check(recovered_ == static_cast<std::int64_t>(targeted_.size()),
                    "contained: " + std::to_string(recovered_) +
                        " recovered, " + std::to_string(targeted_.size()) +
                        " targeted");
    // The pool joins here, so a later fork starts from a parent without
    // worker threads.
    runner_.reset();
    ++passes_;
    return stats;
  }

  void verify(Verdict& verdict) override {
    std::int64_t wrong = 0;
    reference_ms_.clear();
    for (std::int64_t slice = 0; slice < std::min(passes_, slices_);
         ++slice) {
      const std::vector<ScenarioSpec> specs = make_specs(
          slice * slice_size_, slice_size_, target_multiple_, config_.seed);
      const std::vector<double> reference = reference_pass(slice, specs);
      for (std::size_t i = 0; i < specs.size(); ++i)
        if (values_[static_cast<std::size_t>(slice * slice_size_) + i] !=
            reference[i])
          ++wrong;
    }
    verdict.tally(0, wrong + probe_mismatches_,
                  std::string(contained_ ? "contained" : "sweep") +
                      ": values differ from the dedicated run_windows "
                      "reference");
  }

  void probe() override {
    if (contained_) {
      probe_in_process();
      probe_wire();
      probe_durable_files();
    } else {
      probe_decomposed();
      const std::vector<WeightMap> weights = palettes();
      for (const std::int64_t n : kPopulations)
        for (const WeightMap& w : weights) {
          const trace::Scope span("context.SamplerContext");
          const divpp::context::SamplerContext context(n, w);
        }
    }
  }

  void layer_metrics(const SpanTable& spans, Metrics& out) override {
    if (contained_) {
      out["runtime.supervised_overhead"] = {
          last_wall_s_ / in_process_wall_s_ - 1.0, "ratio"};
      out["runtime.frame_roundtrip_us"] = {
          spans.self_ns("runtime.wire_roundtrip") * 1e-3 /
              static_cast<double>(slice_size_),
          "us"};
      out["runtime.attempts_per_scenario"] = {
          static_cast<double>(attempts_) / static_cast<double>(slice_size_),
          "ratio"};
      out["runtime.recovered"] = {static_cast<double>(recovered_), "count"};
      const std::vector<double> writes =
          spans.durations_ns("fault.write_durable");
      out["fault.write_durable_us_p50"] = {quantile(writes, 0.50) * 1e-3,
                                           "us"};
      out["fault.write_durable_us_p99"] = {quantile(writes, 0.99) * 1e-3,
                                           "us"};
      out["fault.read_durable_us"] = {
          mean(spans.durations_ns("fault.read_durable")) * 1e-3, "us"};
      return;
    }
    out["core.canonicalize_us"] = {
        mean(spans.durations_ns("core.canonicalize")) * 1e-3, "us"};
    out["core.ckpt_encode_us"] = {
        mean(spans.durations_ns("core.to_checkpoint_v2")) * 1e-3, "us"};
    out["core.ckpt_decode_us"] = {
        mean(spans.durations_ns("core.resume_run_from_checkpoint")) * 1e-3,
        "us"};
    out["core.ckpt_bytes"] = {static_cast<double>(ckpt_bytes_) /
                                  static_cast<double>(ckpt_count_),
                              "bytes"};
    out["context.build_ms"] = {
        mean(spans.durations_ns("context.SamplerContext")) * 1e-6, "ms"};
    out["context.hits"] = {static_cast<double>(context_.hits), "count"};
    out["context.misses"] = {static_cast<double>(context_.misses), "count"};
    out["context.resident_bytes"] = {
        static_cast<double>(context_.resident_bytes), "bytes"};
    out["runtime.scenario_ms_p50"] = {quantile(reference_ms_, 0.50), "ms"};
    out["runtime.scenario_ms_p99"] = {quantile(reference_ms_, 0.99), "ms"};
    // The traced pass ran the last slice; compare with its reference.
    out["runtime.sweep_overhead"] = {
        last_wall_s_ /
                reference_wall_s_[static_cast<std::size_t>(slice_)] -
            1.0,
        "ratio"};
  }

  void describe(std::map<std::string, double>& info) const override {
    info["scenarios_covered"] =
        static_cast<double>(std::min(passes_, slices_) * slice_size_);
  }

 private:
  [[nodiscard]] std::size_t global_index(std::size_t i) const {
    return static_cast<std::size_t>(slice_ * slice_size_) + i;
  }

  [[nodiscard]] SweepOptions options(bool supervised) const {
    SweepOptions options;
    options.threads = config_.threads;
    options.checkpoint_period = period_;
    // Explicit schedules only: a null schedule would fall back to
    // DIVPP_FAULT_SPEC from the environment.
    options.faults = supervised ? &faults_ : &no_faults_;
    if (contained_) options.sweep_dir = dir_;
    options.supervision.enabled = supervised;
    options.supervision.workers = config_.threads;
    return options;
  }

  /// The dedicated reference of one slice: raw threads drain the spec
  /// list, each scenario a solo run_windows with private tables and
  /// in-memory checkpoints — no cache, no admission queue, no recovery
  /// wrapper.  Returns the values; records per-scenario and slice times.
  std::vector<double> reference_pass(std::int64_t slice,
                                     const std::vector<ScenarioSpec>& specs) {
    std::vector<double> values(specs.size(), 0.0);
    std::vector<double> times_ms(specs.size(), 0.0);
    std::atomic<std::size_t> next{0};
    const std::int64_t start = trace::now_ns();
    std::vector<std::thread> workers;
    for (int t = 0; t < config_.threads; ++t)
      workers.emplace_back([&]() {
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= specs.size()) return;
          const std::int64_t t0 = trace::now_ns();
          const ScenarioSpec& spec = specs[i];
          CountSimulation sim = initial_state(spec);
          Xoshiro256 gen(spec.seed);
          divpp::runtime::DurableRunConfig run;
          run.engine = spec.engine;
          run.target_time = spec.target_time;
          run.checkpoint_period = period_;
          std::string latest;
          run.on_checkpoint = [&latest](const std::string& blob) {
            latest = blob;
          };
          (void)divpp::runtime::run_windows(sim, gen, run);
          values[i] = fingerprint(sim);
          times_ms[i] = static_cast<double>(trace::now_ns() - t0) * 1e-6;
        }
      });
    for (std::thread& worker : workers) worker.join();
    reference_wall_s_[static_cast<std::size_t>(slice)] = seconds_since(start);
    reference_ms_.insert(reference_ms_.end(), times_ms.begin(),
                         times_ms.end());
    return values;
  }

  /// run_windows spelled out as its public calls, on a sample of the
  /// last pass's scenarios, so each layer gets its own span.
  void probe_decomposed() {
    for (std::size_t i = 0; i < specs_.size(); i += kDecomposeEvery) {
      const ScenarioSpec& spec = specs_[i];
      CountSimulation sim = initial_state(spec);
      Xoshiro256 gen(spec.seed);
      std::string blob;
      for (std::int64_t now = 0; now < spec.target_time;) {
        const std::int64_t next = divpp::runtime::next_window_boundary(
            now, period_, spec.target_time);
        {
          const trace::Scope span("core.advance_with");
          sim.advance_with(spec.engine, next, gen);
        }
        {
          const trace::Scope span("core.canonicalize");
          sim.canonicalize();
        }
        {
          const trace::Scope span("core.to_checkpoint_v2");
          blob = divpp::core::to_checkpoint_v2(sim, gen);
        }
        ckpt_bytes_ += static_cast<std::int64_t>(blob.size());
        ++ckpt_count_;
        now = next;
      }
      const trace::Scope span("core.resume_run_from_checkpoint");
      const auto resumed = divpp::core::resume_run_from_checkpoint(blob);
      const double value = values_[global_index(i)];
      if (fingerprint(sim) != value || fingerprint(resumed.sim) != value ||
          !(resumed.gen == gen))
        ++probe_mismatches_;
    }
  }

  /// The same durable sweep in-process and fault-free: the baseline of
  /// runtime.supervised_overhead.
  void probe_in_process() {
    SweepOptions options = this->options(false);
    options.sweep_dir = dir_ + "-inproc";
    fs::remove_all(options.sweep_dir);
    SweepRunner runner(options);
    const std::int64_t start = trace::now_ns();
    SweepResult result;
    {
      const trace::Scope span("runtime.SweepRunner::run");
      result = runner.run(specs_, [](const CountSimulation& sim) {
        return fingerprint(sim);
      });
    }
    in_process_wall_s_ = seconds_since(start);
    for (std::size_t i = 0; i < specs_.size(); ++i)
      if (result.scenarios[i].value != values_[i]) ++probe_mismatches_;
  }

  void probe_wire() {
    namespace wire = divpp::runtime::wire;
    const trace::Scope span("runtime.wire_roundtrip");
    std::string buffer;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      wire::append_frame(buffer, wire::encode_run(i, false, specs_[i]));
      const auto payload = wire::take_frame(buffer);
      const auto command = wire::decode_run(payload.value_or(""));
      if (command.index != i || command.spec.seed != specs_[i].seed)
        ++probe_mismatches_;
    }
  }

  /// Reads back the checkpoint files the supervised pass left, and
  /// rewrites them durably into a probe directory.
  void probe_durable_files() {
    const std::string probe_dir = dir_ + "-probe";
    fs::remove_all(probe_dir);
    fs::create_directories(probe_dir);
    std::size_t done = 0;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      const std::string path =
          divpp::runtime::scenario_checkpoint_path(dir_, i);
      if (!fs::exists(path)) continue;
      std::string payload;
      {
        const trace::Scope span("fault.read_durable");
        payload = divpp::fault::read_durable(path);
      }
      const trace::Scope span("fault.write_durable");
      divpp::fault::write_durable(
          (fs::path(probe_dir) / ("probe_" + std::to_string(done))).string(),
          payload);
      ++done;
    }
  }

  Config config_;
  bool contained_;
  std::int64_t slice_size_;
  std::int64_t slices_;
  std::int64_t target_multiple_;
  std::int64_t period_;
  std::int64_t window_interactions_;
  std::string dir_;
  std::int64_t passes_ = 0;
  std::int64_t slice_ = 0;  ///< slice of the last setup()
  std::vector<ScenarioSpec> specs_;
  FaultSchedule faults_;
  FaultSchedule no_faults_;
  std::set<std::size_t> targeted_;
  std::unique_ptr<SweepRunner> runner_;
  CompletionLog completions_;
  /// Last value of every scenario of every slice, NaN before it ran.
  std::vector<double> values_;
  std::vector<double> reference_ms_;
  std::vector<double> reference_wall_s_;  ///< per slice
  double last_wall_s_ = 0.0;
  double in_process_wall_s_ = 0.0;
  divpp::context::ContextCacheStats context_{};
  std::int64_t attempts_ = 0;
  std::int64_t recovered_ = 0;
  std::int64_t ckpt_bytes_ = 0;
  std::int64_t ckpt_count_ = 0;
  std::int64_t probe_mismatches_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_sweep(const Config& config, bool contained) {
  return std::make_unique<Sweep>(config, contained);
}

}  // namespace perfbench
