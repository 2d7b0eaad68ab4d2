#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

/// \file trace.h
/// In-memory span recorder for the benchmark's traced runs.
///
/// A span brackets one call the benchmark makes into a library module.
/// Its name starts with the layer ("core.advance_with",
/// "runtime.SweepRunner::run"), so per-layer figures are sums over name
/// prefixes.  Spans nest per thread through a thread-local "current
/// span"; work fanned out to other threads names its parent explicitly.
/// Every span carries the id of the trace (one workload pass or probe)
/// it belongs to.
///
/// Recording is off unless enable() was called: an untraced run pays one
/// relaxed atomic load per Scope.  Spans stay in per-thread buffers until
/// take() collects them.  Forked worker processes record into their own
/// copies, which are lost with them, so spans are only placed on the
/// benchmark's side of a process boundary.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::trace {

struct Span {
  const char* name = "";  ///< string literal, "<layer>.<call>"
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1 for a root span
  std::int64_t trace = 0;
  int thread = 0;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - begin_ns; }
};

/// Nanoseconds on the steady clock since the first call in the process.
[[nodiscard]] std::int64_t now_ns();

void enable(bool on);
[[nodiscard]] bool enabled();

/// Starts a new trace; spans opened afterwards carry its id.
std::int64_t begin_trace();

/// The innermost open span on this thread, or -1.
[[nodiscard]] std::int64_t current_span();

/// RAII span.  A no-op while recording is disabled.
class Scope {
 public:
  explicit Scope(const char* name) : Scope(name, current_span()) {}
  /// For work running on another thread than its parent span.
  Scope(const char* name, std::int64_t parent);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::int64_t id() const { return span_.id; }

 private:
  Span span_;
  std::int64_t saved_current_ = -1;
  bool active_ = false;
};

/// Moves every recorded span out of the per-thread buffers.
[[nodiscard]] std::vector<Span> take();

/// Self time of each span: its duration minus the union of its children's
/// intervals (clipped to the span).  Indexed like `spans`.
[[nodiscard]] std::vector<std::int64_t> self_times(
    const std::vector<Span>& spans);

/// Writes one JSON object per span per line.
void write_jsonl(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench::trace

#endif  // PERFBENCH_TRACE_H
