#include "runtime/sweep_runner.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/checkpoint.h"
#include "fault/durable_file.h"
#include "io/json.h"
#include "io/record.h"
#include "rng/xoshiro.h"
#include "runtime/durable_runner.h"
#include "runtime/supervisor.h"

namespace divpp::runtime {

namespace {

using Clock = std::chrono::steady_clock;

/// Manifest status word.  kDrained (and never-started) persists as
/// "pending": both mean "unfinished work resume() must run".
const char* manifest_status(ScenarioOutcome outcome) {
  return outcome == ScenarioOutcome::kDrained ? "pending"
                                              : scenario_outcome_name(outcome);
}

core::CountSimulation initial_state(const ScenarioSpec& spec) {
  switch (spec.start) {
    case ScenarioSpec::Start::kProportional:
      return core::CountSimulation::proportional_start(spec.weights, spec.n);
    case ScenarioSpec::Start::kAdversarial:
      return core::CountSimulation::adversarial_start(spec.weights, spec.n);
    case ScenarioSpec::Start::kEqual:
      return core::CountSimulation::equal_start(spec.weights, spec.n);
  }
  throw std::invalid_argument("ScenarioSpec: unknown start kind");
}

/// Ceiling of the exponential backoff between a scenario's attempts.
constexpr double kBackoffCapMs = 100.0;

/// The latest *valid* checkpoint: the file when a path is set, else the
/// in-memory copy.  A torn or corrupt checkpoint is detected
/// (DurableFileError / invalid_argument), never loaded — nullopt then
/// sends the attempt back to a from-scratch start on the same stream.
std::optional<core::ResumedRun> latest_valid_checkpoint(
    const std::string& path, const std::string& latest) {
  std::string blob = latest;
  if (!path.empty()) {
    try {
      blob = fault::read_durable(path);
    } catch (const fault::DurableFileError&) {
      blob.clear();
    }
  }
  if (blob.empty()) return std::nullopt;
  try {
    return core::resume_run_from_checkpoint(blob);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

void ensure_directory(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) return;
  throw std::runtime_error("SweepRunner: cannot create sweep_dir '" + path +
                           "': " + std::strerror(errno));
}

}  // namespace

const char* scenario_outcome_name(ScenarioOutcome outcome) {
  switch (outcome) {
    case ScenarioOutcome::kOk: return "ok";
    case ScenarioOutcome::kRecovered: return "recovered";
    case ScenarioOutcome::kQuarantined: return "quarantined";
    case ScenarioOutcome::kRejected: return "rejected";
    case ScenarioOutcome::kDrained: return "drained";
  }
  return "unknown";
}

std::optional<ScenarioOutcome> parse_settled_outcome(std::string_view name) {
  for (const ScenarioOutcome outcome :
       {ScenarioOutcome::kOk, ScenarioOutcome::kRecovered,
        ScenarioOutcome::kQuarantined, ScenarioOutcome::kRejected})
    if (name == scenario_outcome_name(outcome)) return outcome;
  return std::nullopt;
}

std::string scenario_checkpoint_path(const std::string& sweep_dir,
                                     std::size_t index) {
  if (sweep_dir.empty()) return {};
  return sweep_dir + "/scenario_" + std::to_string(index) + ".ckpt";
}

std::string scenario_result_json(const ScenarioSpec& spec, double value) {
  io::Json json;
  json.set("scenario", spec.name)
      .set("n", spec.n)
      .set("k", spec.weights.num_colors())
      .set("engine", core::engine_name(spec.engine))
      .set("target", spec.target_time)
      .set("seed", static_cast<std::int64_t>(spec.seed))
      .set("value", value);
  return json.to_string();
}

void execute_scenario(const ScenarioSpec& spec, std::size_t index,
                      const SweepOptions& options,
                      const SweepStatistic& statistic, bool resuming,
                      context::SamplerContextCache& cache,
                      const std::function<bool()>& should_stop,
                      const std::function<void()>& on_boundary,
                      ScenarioReport& report) {
  report.name = spec.name;
  const std::string path = scenario_checkpoint_path(options.sweep_dir, index);
  try {
    // Shared immutables first: admission is the only failure that is a
    // *decision* (budget) rather than an accident, hence its own outcome.
    std::shared_ptr<const context::SamplerContext> shared;
    try {
      shared = cache.acquire(spec.n, spec.weights);
    } catch (const context::ContextAdmissionError& error) {
      report.outcome = ScenarioOutcome::kRejected;
      report.error = error.what();
      return;
    }

    // The recovery loop: capped exponential backoff between attempts,
    // each retry resuming from the latest valid checkpoint, quarantine
    // after max_retries.  A resumed sweep's first attempt also resumes,
    // continuing a drained scenario where it parked.
    std::string latest;  // in-memory fallback checkpoint
    bool parked = false;
    double value = 0.0;
    // A resumed sweep's report may still hold the manifest's counts.
    report.resumes = 0;
    report.error.clear();
    for (int attempt = 0;; ++attempt) {
      report.attempts = attempt + 1;
      try {
        std::optional<core::ResumedRun> resumed;
        if (attempt > 0 || resuming) {
          resumed = latest_valid_checkpoint(path, latest);
          if (resumed.has_value()) ++report.resumes;
        }
        core::CountSimulation sim = resumed.has_value()
                                        ? std::move(resumed->sim)
                                        : initial_state(spec);
        rng::Xoshiro256 gen =
            resumed.has_value() ? resumed->gen : rng::Xoshiro256(spec.seed);
        // Attach the shared tables.  Without this the batch engine
        // lazily builds identical private ones — bit-identical by the
        // pin in test_context, just slower and per-scenario.
        sim.set_sampler_context(shared);

        DurableRunConfig config;
        config.engine = spec.engine;
        config.target_time = spec.target_time;
        config.checkpoint_period = options.checkpoint_period;
        config.checkpoint_path = path;
        config.on_checkpoint = [&latest,
                                &on_boundary](const std::string& blob) {
          latest = blob;
          if (on_boundary) on_boundary();
        };
        config.deadline_seconds = options.scenario_deadline_seconds;
        config.faults = options.faults;
        config.replica = static_cast<std::int64_t>(index);
        config.should_stop = should_stop;
        run_windows(sim, gen, config);

        // Stopped by a drain at a durable boundary, or finished.
        parked = sim.time() < spec.target_time;
        if (!parked) value = statistic(sim);
        break;
      } catch (const std::exception& error) {
        report.error = error.what();
        if (attempt >= options.max_retries) {
          // Quarantine keeps its last checkpoint for post-mortem.
          report.outcome = ScenarioOutcome::kQuarantined;
          return;
        }
        const double delay_ms = std::min(
            kBackoffCapMs,
            options.backoff_initial_ms *
                static_cast<double>(std::int64_t{1} << std::min(attempt, 40)));
        if (delay_ms > 0)
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(delay_ms));
      }
    }

    if (parked) {
      report.outcome = ScenarioOutcome::kDrained;
      return;
    }
    report.value = value;
    report.outcome = report.attempts == 1 ? ScenarioOutcome::kOk
                                          : ScenarioOutcome::kRecovered;
    report.json = scenario_result_json(spec, value);
    if (options.cleanup_on_success && !path.empty())
      std::remove(path.c_str());
  } catch (const std::exception& error) {
    // Callers must not see throws; an unexpected failure outside the
    // recovery loop quarantines just this scenario.
    report.outcome = ScenarioOutcome::kQuarantined;
    report.error = error.what();
  } catch (...) {
    report.outcome = ScenarioOutcome::kQuarantined;
    report.error = "unknown error";
  }
}

SweepRunner::SweepRunner(SweepOptions options)
    : options_(std::move(options)),
      cache_(options_.context_budget_bytes),
      pool_(options_.threads) {
  if (options_.checkpoint_period <= 0)
    throw std::invalid_argument("SweepRunner: checkpoint_period must be > 0");
  if (options_.max_retries < 0)
    throw std::invalid_argument("SweepRunner: negative max_retries");
  if (options_.backoff_initial_ms < 0)
    throw std::invalid_argument("SweepRunner: negative backoff");
  if (options_.scenario_deadline_seconds < 0)
    throw std::invalid_argument("SweepRunner: negative deadline");
  if (options_.supervision.enabled) {
    if (options_.sweep_dir.empty())
      throw std::invalid_argument(
          "SweepRunner: supervision needs a sweep_dir — respawn-and-resume "
          "requires checkpoints that survive process death");
    if (options_.supervision.workers < 0)
      throw std::invalid_argument("SweepRunner: negative supervision workers");
    if (options_.supervision.heartbeat_period_seconds < 0 ||
        options_.supervision.hang_timeout_seconds < 0)
      throw std::invalid_argument("SweepRunner: negative supervision timing");
    if (options_.supervision.crash_loop_k < 1)
      throw std::invalid_argument("SweepRunner: crash_loop_k must be >= 1");
  }
}

SweepResult SweepRunner::run(const std::vector<ScenarioSpec>& specs,
                             const Statistic& statistic) {
  return execute(specs, statistic, /*resuming=*/false);
}

SweepResult SweepRunner::resume(const std::vector<ScenarioSpec>& specs,
                                const Statistic& statistic) {
  if (options_.sweep_dir.empty())
    throw std::invalid_argument(
        "SweepRunner::resume: needs a sweep_dir (in-memory sweeps leave "
        "nothing to resume from)");
  return execute(specs, statistic, /*resuming=*/true);
}

void SweepRunner::request_drain() {
  drain_.store(true, std::memory_order_relaxed);
}

std::string SweepRunner::manifest_path() const {
  return options_.sweep_dir + "/sweep.manifest";
}

SweepResult SweepRunner::execute(const std::vector<ScenarioSpec>& specs,
                                 const Statistic& statistic, bool resuming) {
  if (!statistic)
    throw std::invalid_argument("SweepRunner: empty statistic");
  for (const ScenarioSpec& spec : specs) {
    if (spec.n < 2)
      throw std::invalid_argument("SweepRunner: scenario '" + spec.name +
                                  "' has n < 2");
    if (spec.target_time < 0)
      throw std::invalid_argument("SweepRunner: scenario '" + spec.name +
                                  "' has a negative target");
  }
  const auto start = Clock::now();
  drain_.store(false, std::memory_order_relaxed);
  if (!options_.sweep_dir.empty()) ensure_directory(options_.sweep_dir);

  const std::size_t count = specs.size();
  std::vector<ScenarioReport> reports(count);
  for (std::size_t i = 0; i < count; ++i) reports[i].name = specs[i].name;
  std::vector<char> finished(count, 0);  // recorded done in the manifest
  if (resuming) load_manifest(specs, reports, finished);

  if (options_.supervision.enabled) {
    // Process-isolated path: fan unfinished scenarios out to forked
    // worker processes.  pool_ is never submitted to, so this process
    // stays single-threaded — a precondition for safe fork().
    run_supervised(options_, specs, statistic, resuming, reports, finished);
  } else {
    run_in_process(specs, statistic, resuming, reports, finished);
  }

  SweepResult out;
  out.drain_requested = drain_.load(std::memory_order_relaxed);
  for (const ScenarioReport& report : reports) {
    switch (report.outcome) {
      case ScenarioOutcome::kOk: ++out.completed; break;
      case ScenarioOutcome::kRecovered:
        ++out.completed;
        ++out.recovered;
        break;
      case ScenarioOutcome::kQuarantined: ++out.quarantined; break;
      case ScenarioOutcome::kRejected: ++out.rejected; break;
      case ScenarioOutcome::kDrained: ++out.drained; break;
    }
  }
  out.scenarios = std::move(reports);
  out.wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(Clock::now() -
                                                                start)
          .count();
  if (!options_.sweep_dir.empty()) write_manifest(specs, out.scenarios);
  return out;
}

void SweepRunner::run_in_process(const std::vector<ScenarioSpec>& specs,
                                 const Statistic& statistic, bool resuming,
                                 std::vector<ScenarioReport>& reports,
                                 const std::vector<char>& finished) {
  const std::size_t count = specs.size();
  std::vector<char> settled(count, 0);  // report written by a worker
  const std::function<bool()> should_stop = [this] {
    return drain_.load(std::memory_order_relaxed);
  };
  parallel_for(pool_, static_cast<std::int64_t>(count),
               [&](std::int64_t claimed) {
                 const auto i = static_cast<std::size_t>(claimed);
                 if (finished[i] != 0 || should_stop()) return;
                 execute_scenario(specs[i], i, options_, statistic, resuming,
                                  cache_, should_stop,
                                  /*on_boundary=*/nullptr, reports[i]);
                 settled[i] = 1;
               });

  for (std::size_t i = 0; i < count; ++i) {
    if (finished[i] == 0 && settled[i] == 0) {
      // Claimed after the drain request, so never started.
      // attempts == 0 records that no attempt ran.
      reports[i].outcome = ScenarioOutcome::kDrained;
      reports[i].attempts = 0;
    }
  }
}

void SweepRunner::write_manifest(
    const std::vector<ScenarioSpec>& specs,
    const std::vector<ScenarioReport>& reports) const {
  io::RecordWriter out;
  out.word("divpp-sweep-v1").integer(specs.size()).end_line();
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const ScenarioReport& report = reports[i];
    out.word("scenario").integer(i).word(manifest_status(report.outcome));
    out.integer(report.attempts).integer(report.resumes);
    out.hex_double(report.value).quoted(report.name).quoted(report.error);
    out.end_line();
  }
  out.word("end").end_line();
  fault::write_durable(manifest_path(), out.take());
}

void SweepRunner::load_manifest(const std::vector<ScenarioSpec>& specs,
                                std::vector<ScenarioReport>& reports,
                                std::vector<char>& finished) const {
  const std::string text = fault::read_durable(manifest_path());
  std::vector<std::string> lines;
  for (std::size_t begin = 0; begin < text.size();) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  if (lines.size() != specs.size() + 2)
    throw std::invalid_argument(
        "sweep manifest: expected " + std::to_string(specs.size()) +
        " scenarios, found " +
        std::to_string(lines.size() < 2 ? 0 : lines.size() - 2));
  const std::string header =
      "divpp-sweep-v1 " + std::to_string(specs.size());
  if (lines.front() != header)
    throw std::invalid_argument("sweep manifest: bad header '" +
                                lines.front() + "'");
  if (lines.back() != "end")
    throw std::invalid_argument("sweep manifest: missing end marker");

  for (std::size_t i = 0; i < specs.size(); ++i) {
    io::RecordReader in(lines[i + 1],
                        "sweep manifest line " + std::to_string(i + 2));
    in.keyword("scenario");
    in.keyword(std::to_string(i));
    const std::string status(in.token("status"));
    const int attempts = static_cast<int>(in.int64("attempts", 0, INT_MAX));
    const int resumes = static_cast<int>(in.int64("resumes", 0, INT_MAX));
    const double value = in.real("value");
    const std::string name = in.quoted("name");
    const std::string error = in.quoted("error");
    in.expect_end();
    if (name != specs[i].name)
      throw std::invalid_argument(
          "sweep manifest: scenario " + std::to_string(i) + " is '" + name +
          "' on disk but '" + specs[i].name +
          "' in the specs — refusing to resume a different sweep");

    ScenarioReport& report = reports[i];
    report.attempts = attempts;
    report.resumes = resumes;
    report.error = error;
    if (status == "pending") continue;  // resume() re-runs it
    const std::optional<ScenarioOutcome> settled =
        parse_settled_outcome(status);
    if (!settled.has_value()) in.fail("unknown status '" + status + "'");
    report.outcome = *settled;
    if (report.outcome == ScenarioOutcome::kOk ||
        report.outcome == ScenarioOutcome::kRecovered) {
      report.value = value;  // hexfloat round-trip: bit-identical
      report.json = scenario_result_json(specs[i], value);
    }
    finished[i] = 1;
  }
}

}  // namespace divpp::runtime
