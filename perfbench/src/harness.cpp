#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "rng/xoshiro.h"

namespace perfbench {
namespace {

/// Set-ups run untimed on each CPU before the timed ones.  A process's
/// first few set-ups take up to three times as long as later ones (cold
/// caches, fresh pages, and after a pass an evicted working set), and
/// counting them moved the median from run to run.
constexpr int kSetupWarmups = 2;
/// Set-ups timed on each CPU in one round.
constexpr int kSetupRepeats = 5;

Metric ms(double value) { return {value, "ms"}; }

/// Restarts the process's peak-RSS watermark at its current RSS, so the
/// next peak_rss_mib() covers one pass, not the references computed
/// after earlier passes.  Best effort: without /proc the watermark spans
/// the whole process.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// Peak resident set (MiB) of this process since the last reset.
double peak_rss_mib() {
  long kib = 0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) kib = std::stol(line.substr(6));
  if (kib == 0) {
    rusage self{};
    getrusage(RUSAGE_SELF, &self);
    kib = self.ru_maxrss;
  }
  return static_cast<double>(kib) / 1024.0;
}

double timed_setup(Workload& workload) {
  const std::int64_t start = trace::now_ns();
  workload.setup();
  return seconds_since(start);
}

/// One round of set-up timing: the mean over the CPUs this process may
/// use of the median set-up time with the calling thread pinned to that
/// CPU.  Set-up is single-threaded, and on the shared 4-vCPU host it ran
/// 1.5 times as long on one pair of vCPUs as on the other, the slow pair
/// changing from one second to the next; unpinned, a run's figure was
/// one of two values by where its main thread happened to sit.  Ends
/// with one more set-up under the original affinity, since threads a
/// set-up starts inherit its affinity and the next pass uses that
/// set-up's inputs.
double setup_round(Workload& workload, int& samples) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  const bool pinnable = sched_getaffinity(0, sizeof allowed, &allowed) == 0;
  std::vector<double> medians;
  for (int cpu = 0; cpu < (pinnable ? CPU_SETSIZE : 1); ++cpu) {
    if (pinnable) {
      if (!CPU_ISSET(cpu, &allowed)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      (void)sched_setaffinity(0, sizeof one, &one);
    }
    for (int i = 0; i < kSetupWarmups; ++i) workload.setup();
    std::vector<double> times;
    for (int i = 0; i < kSetupRepeats; ++i)
      times.push_back(timed_setup(workload));
    medians.push_back(median(times));
    samples += kSetupRepeats;
  }
  if (pinnable) (void)sched_setaffinity(0, sizeof allowed, &allowed);
  workload.setup();
  return mean(medians);
}

/// One traced pass (trace 1 of the section) plus the probes of
/// `workload` (trace 2); returns their spans.
SpanTable traced_pass(Workload& workload, Verdict& verdict, double& wall_s) {
  trace::enable(true);
  (void)trace::begin_trace();
  {
    const trace::Scope root("bench.pass");
    wall_s = workload.pass(verdict).wall_s;
  }
  (void)trace::begin_trace();
  {
    const trace::Scope root("bench.probe");
    workload.probe();
  }
  trace::enable(false);
  return SpanTable(trace::take());
}

}  // namespace

void Verdict::check(bool ok, const std::string& what) {
  if (!ok) errors.push_back(what);
}

void Verdict::tally(std::int64_t units, std::int64_t bad,
                    const std::string& what) {
  attempted += units;
  failed += bad;
  if (bad > 0)
    errors.push_back(what + ": " + std::to_string(bad) + " of " +
                     std::to_string(units) + " failed");
}

SpanTable::SpanTable(std::vector<trace::Span> spans)
    : spans_(std::move(spans)), self_(trace::self_times(spans_)) {}

double SpanTable::self_ns(const std::string& name) const {
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (name == spans_[i].name) total += static_cast<double>(self_[i]);
  return total;
}

std::vector<double> SpanTable::durations_ns(const std::string& name) const {
  std::vector<double> out;
  for (const trace::Span& span : spans_)
    if (name == span.name)
      out.push_back(static_cast<double>(span.duration_ns()));
  return out;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"converge", "fairness",
                                                 "sweep"};
  return names;
}

RunResult run_untraced(const std::string& name, const Config& config) {
  RunResult result;
  auto workload = make_workload(name, config);
  int setup_samples = 0;
  std::vector<double> setups;  // one per round, a round before each pass

  std::vector<double> peaks;
  std::vector<double> walls;
  std::vector<double> ns_per_int;
  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> p95s;
  double windows = 0.0;
  const std::int64_t start = trace::now_ns();
  for (;;) {
    setups.push_back(setup_round(*workload, setup_samples));
    reset_peak_rss();
    // Only the pass's figures are kept, not its window samples: those of
    // a fairness pass take 2.5 MB, and holding them made each later
    // pass's peak RSS higher, so peak_rss_mib followed the pass count.
    const PassStats pass = workload->pass(result.verdict);
    peaks.push_back(peak_rss_mib());
    walls.push_back(pass.wall_s);
    ns_per_int.push_back(pass.wall_s * 1e9 / pass.interactions);
    rates.push_back(static_cast<double>(pass.scenarios) / pass.wall_s);
    p50s.push_back(quantile(pass.window_ms, 0.50));
    p95s.push_back(quantile(pass.window_ms, 0.95));
    windows += static_cast<double>(pass.window_ms.size());
    // Stop before a pass that would overrun the time budget.
    if (seconds_since(start) + pass.wall_s > config.seconds) break;
  }
  workload->verify(result.verdict);
  workload->describe(result.info);

  // Each figure is the median over passes of that pass's figure.  Many
  // short passes spread over the run follow a shared host's load more
  // evenly than a few long ones; the fastest pass scattered about twice
  // as much from run to run as the median.
  Metrics& m = result.metrics;
  m["setup_s"] = {median(setups), "s"};
  m["wall_s"] = {median(walls), "s"};
  m["ns_per_int"] = {median(ns_per_int), "ns"};
  m["scenarios_per_s"] = {median(rates), "1/s"};
  m["window_ms_p50"] = ms(median(p50s));
  m["window_ms_p95"] = ms(median(p95s));
  m["peak_rss_mib"] = {median(peaks), "MiB"};
  result.info["passes"] = static_cast<double>(walls.size());
  result.info["wall_s_min"] = min_of(walls);
  result.info["wall_s_max"] = max_of(walls);
  result.info["window_ms_p50_min"] = min_of(p50s);
  result.info["window_ms_p50_max"] = max_of(p50s);
  result.info["setup_samples"] = setup_samples;
  result.info["window_samples_per_pass"] =
      windows / static_cast<double>(walls.size());
  return result;
}

RunResult run_traced(const std::string& name, const Config& config) {
  RunResult result;
  // Each workload object is destroyed before the next starts: the
  // contained workload forks, which needs a parent without pool threads.
  {
    auto workload = make_workload(name, config);
    workload->setup();
    const double untraced_s = workload->pass(result.verdict).wall_s;
    workload->setup();
    double traced_s = 0.0;
    const SpanTable table = traced_pass(*workload, result.verdict, traced_s);
    workload->verify(result.verdict);
    workload->describe(result.info);
    workload->layer_metrics(table, result.metrics);
    result.metrics["trace.overhead"] = {traced_s / untraced_s - 1.0,
                                        "ratio"};
    result.spans = table.spans();
    result.info["traced_pass_s"] = traced_s;
    result.info["untraced_pass_s"] = untraced_s;
  }
  Config smoke = config;
  smoke.smoke = true;
  std::vector<std::string> others = workload_names();
  others.emplace_back("contained");
  for (const std::string& other : others) {
    if (other == name) continue;
    auto workload = make_workload(other, smoke);
    workload->setup();
    double wall_s = 0.0;
    const SpanTable table = traced_pass(*workload, result.verdict, wall_s);
    workload->verify(result.verdict);
    Metrics metrics;
    workload->layer_metrics(table, metrics);
    for (auto& [key, metric] : metrics) result.metrics.emplace(key, metric);
    result.spans.insert(result.spans.end(), table.spans().begin(),
                        table.spans().end());
  }
  return result;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double min_of(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double max_of(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(trace::now_ns() - start_ns) * 1e-9;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
  return divpp::rng::splitmix64_next(state);
}

}  // namespace perfbench
