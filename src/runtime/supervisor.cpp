#include "runtime/supervisor.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <span>
#include <stdexcept>
#include <utility>

#include "context/sampler_context.h"
#include "io/record.h"
#include "runtime/thread_pool.h"

namespace divpp::runtime {

namespace {

using Clock = std::chrono::steady_clock;

/// Frames larger than this mean a corrupt stream, not a big payload:
/// the largest legitimate frame is a run command whose weights line
/// grows ~25 bytes per colour.
constexpr std::size_t kMaxFrameBytes = std::size_t{64} << 20;

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("supervisor: " + what);
}

const char* start_name(ScenarioSpec::Start start) {
  switch (start) {
    case ScenarioSpec::Start::kProportional: return "proportional";
    case ScenarioSpec::Start::kAdversarial: return "adversarial";
    case ScenarioSpec::Start::kEqual: return "equal";
  }
  return "?";
}

ScenarioSpec::Start parse_start(std::string_view name) {
  if (name == "proportional") return ScenarioSpec::Start::kProportional;
  if (name == "adversarial") return ScenarioSpec::Start::kAdversarial;
  if (name == "equal") return ScenarioSpec::Start::kEqual;
  fail("unknown start '" + std::string(name) + "'");
}

ScenarioOutcome parse_outcome(std::string_view name) {
  if (name == "ok") return ScenarioOutcome::kOk;
  if (name == "recovered") return ScenarioOutcome::kRecovered;
  if (name == "quarantined") return ScenarioOutcome::kQuarantined;
  if (name == "rejected") return ScenarioOutcome::kRejected;
  // kDrained cannot come off the wire: workers get no should_stop.
  fail("unknown outcome '" + std::string(name) + "'");
}

// ---- low-level I/O ---------------------------------------------------

/// EINTR-retried full write; false on any other error (EPIPE when the
/// peer died — SIGPIPE is ignored for the supervision window).
bool write_all(int fd, const char* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

bool write_frame(int fd, std::string_view payload) {
  std::string framed;
  wire::append_frame(framed, payload);
  return write_all(fd, framed.data(), framed.size());
}

/// EINTR-retried full read; false on EOF or error.
bool read_exact(int fd, char* out, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, out + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    got += static_cast<std::size_t>(n);
  }
  return true;
}

/// Blocking frame read (worker side).  nullopt on EOF/error — the
/// parent is gone and the worker should exit.
std::optional<std::string> read_frame_blocking(int fd) {
  char header[4];
  if (!read_exact(fd, header, sizeof header)) return std::nullopt;
  std::size_t size = 0;
  for (int i = 3; i >= 0; --i)
    size = (size << 8) | static_cast<unsigned char>(header[i]);
  if (size > kMaxFrameBytes) return std::nullopt;
  std::string payload(size, '\0');
  if (size > 0 && !read_exact(fd, payload.data(), size)) return std::nullopt;
  return payload;
}

// ---- exit-status classification --------------------------------------

/// Names without strsignal(3) (not MT-safe; also keeps the text stable
/// across libcs for the tests).
std::string signal_desc(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGKILL: return "SIGKILL";
    case SIGBUS: return "SIGBUS";
    case SIGILL: return "SIGILL";
    case SIGFPE: return "SIGFPE";
    case SIGTERM: return "SIGTERM";
    default: return "signal " + std::to_string(sig);
  }
}

std::string classify_status(int status) {
  if (WIFSIGNALED(status))
    return "worker killed by " + signal_desc(WTERMSIG(status));
  if (WIFEXITED(status)) {
    const int code = WEXITSTATUS(status);
    if (code == 0) return "worker exited cleanly mid-scenario";
    return "worker exited with status " + std::to_string(code);
  }
  return "worker ended with unrecognised wait status";
}

// ---- worker process ---------------------------------------------------

std::string encode_heartbeat(std::size_t index) {
  return "hb " + std::to_string(index);
}

/// The forked worker's main loop: read a command frame, run the
/// scenario through the shared execute_scenario, report, repeat.  Exits
/// with _exit (never returns into the parent's stack): atexit handlers
/// and static destructors belong to the parent image.
[[noreturn]] void worker_main(int cmd_fd, int out_fd,
                              const SweepOptions& options,
                              const SweepStatistic& statistic) {
  // Inherited by fork, never serialised: options, statistic, and (via
  // options.faults) the fault schedule.
  context::SamplerContextCache cache(
      options.context_budget_bytes > 0
          ? options.context_budget_bytes
          : context::SamplerContextCache::kDefaultBudgetBytes);
  const std::chrono::duration<double> heartbeat_gap(
      options.supervision.heartbeat_period_seconds);

  const auto send = [out_fd](const std::string& payload) {
    // A failed send means the parent died; nothing left to work for.
    if (!write_frame(out_fd, payload)) ::_exit(0);
  };

  for (;;) {
    const std::optional<std::string> frame = read_frame_blocking(cmd_fd);
    if (!frame.has_value() || *frame == "quit") ::_exit(0);
    wire::RunCommand command;
    try {
      command = wire::decode_run(*frame);
    } catch (const std::exception&) {
      ::_exit(3);  // protocol violation; the parent classifies the exit
    }
    send(encode_heartbeat(command.index));  // liveness on pickup
    auto last_heartbeat = Clock::now();

    ScenarioReport report;
    execute_scenario(
        command.spec, command.index, options, statistic, command.resuming,
        cache, /*should_stop=*/nullptr,
        /*on_boundary=*/
        [&] {
          const auto now = Clock::now();
          if (now - last_heartbeat < heartbeat_gap) return;
          last_heartbeat = now;
          send(encode_heartbeat(command.index));
        },
        report);
    send(wire::encode_result(command.index, report));
  }
}

// ---- parent-side worker bookkeeping -----------------------------------

struct WorkerProc {
  pid_t pid = -1;
  int cmd_fd = -1;  ///< parent writes command frames
  int out_fd = -1;  ///< parent reads worker frames (non-blocking)
  bool alive = false;
  std::ptrdiff_t scenario = -1;  ///< index being run, -1 when idle
  std::string buffer;            ///< unparsed bytes off out_fd
  Clock::time_point last_heard;
  Clock::time_point dispatched;
  std::string kill_reason;  ///< set when the watchdog SIGKILLed it
};

WorkerProc spawn_worker(const SweepOptions& options,
                        const SweepStatistic& statistic,
                        const std::vector<WorkerProc>& existing) {
  int cmd[2] = {-1, -1};
  int out[2] = {-1, -1};
  if (::pipe(cmd) != 0)
    throw std::runtime_error(std::string("supervisor: pipe: ") +
                             std::strerror(errno));
  if (::pipe(out) != 0) {
    const int saved = errno;
    ::close(cmd[0]);
    ::close(cmd[1]);
    throw std::runtime_error(std::string("supervisor: pipe: ") +
                             std::strerror(saved));
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    const int saved = errno;
    ::close(cmd[0]);
    ::close(cmd[1]);
    ::close(out[0]);
    ::close(out[1]);
    throw std::runtime_error(std::string("supervisor: fork: ") +
                             std::strerror(saved));
  }
  if (pid == 0) {
    // Worker: keep only this worker's ends.  Closing the siblings'
    // descriptors matters — an inherited write end would keep a dead
    // sibling's pipe open and mask its EOF from the parent.
    ::close(cmd[1]);
    ::close(out[0]);
    for (const WorkerProc& other : existing) {
      if (other.cmd_fd >= 0) ::close(other.cmd_fd);
      if (other.out_fd >= 0) ::close(other.out_fd);
    }
    worker_main(cmd[0], out[1], options, statistic);
  }
  ::close(cmd[0]);
  ::close(out[1]);
  (void)::fcntl(out[0], F_SETFL, O_NONBLOCK);
  WorkerProc worker;
  worker.pid = pid;
  worker.cmd_fd = cmd[1];
  worker.out_fd = out[0];
  worker.alive = true;
  worker.last_heard = Clock::now();
  return worker;
}

/// Non-blocking drain of a worker's out pipe into its buffer.
/// \returns true when the pipe hit EOF (the worker is dead).
bool drain_pipe(WorkerProc& worker) {
  for (;;) {
    char chunk[4096];
    const ssize_t n = ::read(worker.out_fd, chunk, sizeof chunk);
    if (n > 0) {
      worker.buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return true;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
    return true;  // unexpected read error: treat as death
  }
}

std::string format_seconds(double seconds) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.3f", seconds);
  return std::string(buffer) + "s";
}

}  // namespace

namespace wire {

void append_frame(std::string& out, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes)
    fail("frame payload too large (" + std::to_string(payload.size()) +
         " bytes)");
  char header[4];
  const std::size_t size = payload.size();
  for (int i = 0; i < 4; ++i)
    header[i] = static_cast<char>((size >> (8 * i)) & 0xffU);
  out.append(header, sizeof header);
  out.append(payload);
}

std::optional<std::string> take_frame(std::string& buffer) {
  if (buffer.size() < 4) return std::nullopt;
  std::size_t size = 0;
  for (int i = 3; i >= 0; --i)
    size = (size << 8) | static_cast<unsigned char>(buffer[i]);
  if (size > kMaxFrameBytes)
    fail("frame size " + std::to_string(size) + " exceeds the limit");
  if (buffer.size() < 4 + size) return std::nullopt;
  std::string payload = buffer.substr(4, size);
  buffer.erase(0, 4 + size);
  return payload;
}

std::string encode_run(std::size_t index, bool resuming,
                       const ScenarioSpec& spec) {
  const std::span<const double> weights = spec.weights.weights();
  io::RecordWriter out;
  out.word("run").integer(index).word(resuming ? "1" : "0").integer(spec.n);
  out.word(start_name(spec.start)).word(core::engine_name(spec.engine));
  out.integer(spec.target_time).integer(spec.seed).quoted(spec.name);
  out.integer(weights.size());
  // Hexfloats: the palette must round-trip bit-exactly or the worker's
  // run would be a different simulation.
  for (const double weight : weights) out.hex_double(weight);
  return out.take();
}

RunCommand decode_run(const std::string& payload) {
  io::RecordReader in(payload, "supervisor");
  in.keyword("run");
  RunCommand command;
  command.index = static_cast<std::size_t>(in.uint64("scenario index"));
  command.resuming = in.accept("1");
  if (!command.resuming) in.keyword("0");
  command.spec.n = in.int64("population");
  command.spec.start = parse_start(in.token("start"));
  command.spec.engine = core::parse_engine(std::string(in.token("engine")));
  command.spec.target_time = in.int64("target time");
  command.spec.seed = in.uint64("seed");
  command.spec.name = in.quoted("name");
  // No reserve: a forged count fails on the first missing token, not
  // as a huge allocation.
  const std::int64_t colors = in.int64("colour count", 1);
  std::vector<double> weights;
  for (std::int64_t i = 0; i < colors; ++i)
    weights.push_back(in.real("weight"));
  command.spec.weights = core::WeightMap(std::move(weights));
  in.expect_end();
  return command;
}

std::string encode_result(std::size_t index, const ScenarioReport& report) {
  io::RecordWriter out;
  out.word("res").integer(index).word(scenario_outcome_name(report.outcome));
  out.integer(report.attempts).integer(report.resumes);
  out.hex_double(report.value).quoted(report.error);
  return out.take();
}

ResultFrame decode_result(const std::string& payload) {
  io::RecordReader in(payload, "supervisor");
  in.keyword("res");
  ResultFrame result;
  result.index = static_cast<std::size_t>(in.uint64("scenario index"));
  ScenarioReport& report = result.report;
  report.outcome = parse_outcome(in.token("outcome"));
  report.attempts = static_cast<int>(in.int64("attempts", 0, INT_MAX));
  report.resumes = static_cast<int>(in.int64("resumes", 0, INT_MAX));
  report.value = in.real("value");
  report.error = in.quoted("error");
  in.expect_end();
  return result;
}

}  // namespace wire

void SweepSupervisor::run(const std::vector<ScenarioSpec>& specs,
                          const SweepStatistic& statistic, bool resuming,
                          std::vector<ScenarioReport>& reports,
                          const std::vector<char>& finished) {
  if (!statistic) fail("empty statistic");
  const std::size_t count = specs.size();
  std::deque<std::size_t> queue;
  for (std::size_t i = 0; i < count; ++i)
    if (i >= finished.size() || finished[i] == 0) queue.push_back(i);
  std::size_t outstanding = queue.size();
  if (outstanding == 0) return;

  // SIGPIPE would kill the parent on a write to a just-died worker;
  // ignore it for the supervision window (workers inherit the ignore,
  // which they want too).  Restored on every exit path below.
  struct sigaction ignore_pipe {};
  struct sigaction old_pipe {};
  ignore_pipe.sa_handler = SIG_IGN;
  ::sigaction(SIGPIPE, &ignore_pipe, &old_pipe);

  const int pool_size =
      options_.supervision.workers > 0 ? options_.supervision.workers
                                       : ThreadPool::hardware_threads();
  const double hang_timeout = options_.supervision.hang_timeout_seconds;
  const double deadline = options_.scenario_deadline_seconds;
  // Grace before the preemptive deadline kill: a healthy worker's
  // cooperative deadline check (at its next boundary) should win.
  const double deadline_grace = std::max(
      0.25, 2.0 * options_.supervision.heartbeat_period_seconds);
  const int crash_loop_k = options_.supervision.crash_loop_k;

  std::vector<WorkerProc> workers;
  std::vector<int> kills(count, 0);  // successive worker deaths per scenario

  const auto shutdown_workers = [&workers, &old_pipe] {
    for (WorkerProc& worker : workers) {
      if (!worker.alive) continue;
      (void)write_frame(worker.cmd_fd, "quit");
      ::close(worker.cmd_fd);
    }
    for (WorkerProc& worker : workers) {
      if (!worker.alive) continue;
      int status = 0;
      (void)::waitpid(worker.pid, &status, 0);
      ::close(worker.out_fd);
      worker.alive = false;
    }
    ::sigaction(SIGPIPE, &old_pipe, nullptr);
  };

  // Fills a report for a result frame off the wire.  Prior worker
  // deaths count as attempts, and upgrade a clean completion to
  // kRecovered — the scenario as a whole did not finish first try.
  const auto record_result = [&](WorkerProc& worker,
                                 const std::string& payload) {
    wire::ResultFrame result = wire::decode_result(payload);
    const std::size_t index = result.index;
    if (static_cast<std::ptrdiff_t>(index) != worker.scenario)
      fail("result for scenario " + std::to_string(index) +
           " from a worker running " + std::to_string(worker.scenario));
    ScenarioReport& report = reports[index];
    report = std::move(result.report);
    report.name = specs[index].name;
    if (kills[index] > 0 && report.outcome == ScenarioOutcome::kOk)
      report.outcome = ScenarioOutcome::kRecovered;
    report.attempts += kills[index];
    if (report.outcome == ScenarioOutcome::kOk ||
        report.outcome == ScenarioOutcome::kRecovered)
      report.json = scenario_result_json(specs[index], report.value);
    worker.scenario = -1;
    --outstanding;
  };

  const auto process_frames = [&](WorkerProc& worker) {
    worker.last_heard = Clock::now();
    for (;;) {
      const std::optional<std::string> frame = wire::take_frame(worker.buffer);
      if (!frame.has_value()) return;
      if (frame->rfind("hb ", 0) == 0) continue;
      if (frame->rfind("res ", 0) == 0) {
        record_result(worker, *frame);
        continue;
      }
      fail("unrecognised worker frame '" + *frame + "'");
    }
  };

  // A dead worker: reap, classify, blame its scenario (if any) and
  // either redispatch-from-checkpoint or quarantine on a crash loop.
  const auto handle_death = [&](WorkerProc& worker) {
    int status = 0;
    (void)::waitpid(worker.pid, &status, 0);
    ::close(worker.cmd_fd);
    ::close(worker.out_fd);
    worker.alive = false;
    if (worker.scenario < 0) return;  // died idle: just replace it
    const std::size_t index = static_cast<std::size_t>(worker.scenario);
    worker.scenario = -1;
    const std::string why = worker.kill_reason.empty()
                                ? classify_status(status)
                                : worker.kill_reason;
    ++kills[index];
    if (kills[index] >= crash_loop_k) {
      ScenarioReport& report = reports[index];
      report.name = specs[index].name;
      report.outcome = ScenarioOutcome::kQuarantined;
      report.attempts = kills[index];
      report.error = "crash loop: " + std::to_string(kills[index]) +
                     " successive workers died on this scenario; last: " +
                     why + " (checkpoint kept)";
      --outstanding;
      return;
    }
    // Redispatch resumes from the latest durable checkpoint; pushed to
    // the front so recovery does not starve behind fresh work.
    queue.push_front(index);
  };

  try {
    while (outstanding > 0) {
      // Compact: drop dead workers (their fds are closed already).
      std::erase_if(workers,
                    [](const WorkerProc& worker) { return !worker.alive; });

      // Keep the pool at min(pool_size, scenarios still outstanding).
      const std::size_t want = std::min<std::size_t>(
          static_cast<std::size_t>(pool_size), outstanding);
      while (workers.size() < want)
        workers.push_back(spawn_worker(options_, statistic, workers));

      // Dispatch queued scenarios to idle workers.  A failed dispatch
      // means the worker died between scenarios; handle it and retry.
      for (WorkerProc& worker : workers) {
        if (!worker.alive || worker.scenario >= 0 || queue.empty()) continue;
        const std::size_t index = queue.front();
        // First dispatch follows the manifest-level resume flag; any
        // redispatch after a worker death resumes from the checkpoint.
        const bool resume_this = resuming || kills[index] > 0;
        if (!write_frame(worker.cmd_fd,
                         wire::encode_run(index, resume_this,
                                          specs[index]))) {
          (void)drain_pipe(worker);
          process_frames(worker);
          handle_death(worker);
          continue;
        }
        queue.pop_front();
        worker.scenario = static_cast<std::ptrdiff_t>(index);
        worker.dispatched = worker.last_heard = Clock::now();
        worker.kill_reason.clear();
      }

      // Poll timeout: the nearest watchdog or deadline expiry.
      const auto now = Clock::now();
      double timeout_s = 0.5;
      for (const WorkerProc& worker : workers) {
        if (!worker.alive || worker.scenario < 0) continue;
        const double silent =
            std::chrono::duration<double>(now - worker.last_heard).count();
        const double running =
            std::chrono::duration<double>(now - worker.dispatched).count();
        if (hang_timeout > 0)
          timeout_s = std::min(timeout_s, hang_timeout - silent);
        if (deadline > 0)
          timeout_s =
              std::min(timeout_s, deadline + deadline_grace - running);
      }
      const int timeout_ms =
          timeout_s <= 0 ? 0
                         : static_cast<int>(std::ceil(timeout_s * 1000.0));

      std::vector<pollfd> fds;
      std::vector<std::size_t> fd_owner;
      for (std::size_t w = 0; w < workers.size(); ++w) {
        if (!workers[w].alive) continue;
        fds.push_back(pollfd{workers[w].out_fd, POLLIN, 0});
        fd_owner.push_back(w);
      }
      const int ready = ::poll(fds.data(),
                               static_cast<nfds_t>(fds.size()), timeout_ms);
      if (ready < 0 && errno != EINTR)
        throw std::runtime_error(std::string("supervisor: poll: ") +
                                 std::strerror(errno));

      for (std::size_t f = 0; f < fds.size(); ++f) {
        if (fds[f].revents == 0) continue;
        WorkerProc& worker = workers[fd_owner[f]];
        const bool dead = drain_pipe(worker);
        process_frames(worker);  // results beat death-blame: drain first
        if (dead) handle_death(worker);
      }

      // Watchdog: SIGKILL wedged or over-deadline workers.  Their EOF
      // arrives on the next poll and goes through handle_death.
      const auto after = Clock::now();
      for (WorkerProc& worker : workers) {
        if (!worker.alive || worker.scenario < 0 ||
            !worker.kill_reason.empty())
          continue;
        const double silent =
            std::chrono::duration<double>(after - worker.last_heard).count();
        const double running =
            std::chrono::duration<double>(after - worker.dispatched).count();
        if (hang_timeout > 0 && silent >= hang_timeout) {
          worker.kill_reason = "watchdog: worker silent for " +
                               format_seconds(silent) + " (hang timeout " +
                               format_seconds(hang_timeout) + ")";
          (void)::kill(worker.pid, SIGKILL);
        } else if (deadline > 0 && running >= deadline + deadline_grace) {
          worker.kill_reason = "wall-clock deadline " +
                               format_seconds(deadline) +
                               " exceeded after " + format_seconds(running) +
                               " (preemptive kill)";
          (void)::kill(worker.pid, SIGKILL);
        }
      }
    }
  } catch (...) {
    shutdown_workers();
    throw;
  }
  shutdown_workers();
}

}  // namespace divpp::runtime
