#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

/// \file harness.h
/// The measurement loop shared by every workload: timed set-ups, passes
/// repeated for the run's time budget, output checks, and the traced
/// run that turns spans into per-layer metrics.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Inputs every workload receives.
struct Config {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool smoke = false;   ///< seconds-scale sizes for the self-test
  int threads = 1;      ///< nproc: the pool / worker ceiling
  std::string work_dir; ///< scratch directory inside the checkout
};

/// Output checks.  Every unit of work a pass completes counts as one
/// attempt; a wrong, quarantined or rejected unit counts as failed.
struct Verdict {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;

  /// Records a whole-run check; a false `ok` fails the run.
  void check(bool ok, const std::string& what);
  /// Records `units` attempts of which `bad` failed.
  void tally(std::int64_t units, std::int64_t bad, const std::string& what);
  [[nodiscard]] bool correct() const { return errors.empty(); }
};

/// What one pass measured.
struct PassStats {
  double wall_s = 0.0;          ///< from start until all its work is done
  double interactions = 0.0;    ///< simulated in the pass
  std::int64_t scenarios = 0;   ///< independent runs completed
  std::vector<double> window_ms;  ///< latency of each unit of progress
};

/// Spans of one traced section with their self times.
class SpanTable {
 public:
  explicit SpanTable(std::vector<trace::Span> spans);

  [[nodiscard]] const std::vector<trace::Span>& spans() const {
    return spans_;
  }
  /// Σ self time (ns) of spans with exactly this name.
  [[nodiscard]] double self_ns(const std::string& name) const;
  /// Durations (ns) of spans with exactly this name.
  [[nodiscard]] std::vector<double> durations_ns(
      const std::string& name) const;

 private:
  std::vector<trace::Span> spans_;
  std::vector<std::int64_t> self_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs of one pass (timed as setup_s).
  virtual void setup() = 0;
  /// Runs one pass on the inputs of the last setup() and checks it.
  /// When tracing is on, also keeps the snapshots probe() needs.
  virtual PassStats pass(Verdict& verdict) = 0;
  /// Traced runs only: runs the layer probes (tracing is on) after the
  /// traced pass.
  virtual void probe() = 0;
  /// Checks against references computed outside the timed passes.
  virtual void verify(Verdict& verdict) = 0;
  /// Traced runs only, after verify(): derives the per-layer metrics
  /// from the spans of the traced pass and the probes.
  virtual void layer_metrics(const SpanTable& spans, Metrics& out) = 0;
  /// After verify(): facts stamped next to the metrics (not metrics).
  virtual void describe(std::map<std::string, double>& /*info*/) const {}
};

/// Builds the named workload, or the traced-only "contained" section.
/// \throws std::invalid_argument on an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      const Config& config);

/// The workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

struct RunResult {
  Verdict verdict;
  Metrics metrics;
  /// Free-form facts stamped next to the metrics (sample counts, ...).
  std::map<std::string, double> info;
  std::vector<trace::Span> spans;  ///< traced runs only
};

/// The end-to-end run: untraced passes for config.seconds.  Each metric
/// is the median over passes (set-up: over the set-up rounds that
/// precede the passes).
[[nodiscard]] RunResult run_untraced(const std::string& workload,
                                     const Config& config);

/// The traced run: the named workload at full scale (one untraced and
/// one traced pass, for trace.overhead), then every other workload and
/// the "contained" section at smoke scale, so each traced run reports
/// every per-layer metric.
[[nodiscard]] RunResult run_traced(const std::string& workload,
                                   const Config& config);

// ---- small statistics helpers --------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 on an empty input.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& values);
/// Smallest / largest element; 0 on an empty input.
[[nodiscard]] double min_of(const std::vector<double>& values);
[[nodiscard]] double max_of(const std::vector<double>& values);

/// Seconds elapsed since `start_ns` (trace::now_ns clock).
[[nodiscard]] double seconds_since(std::int64_t start_ns);

/// A 64-bit seed for stream `stream` of the run seed (splitmix64).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H
