// perfbench: the repository's benchmark driver binary.
//
//   perfbench --workload <converge|fairness|sweep> --seed <n>
//             --seconds <s> --trace <0|1> [--scale full|smoke]
//             [--work-dir DIR] [--out-dir DIR] [--git-sha SHA]
//
// Prints a provenance line, then as its last line one JSON object with
// the keys correct / attempted / failed / metrics.  --trace 0 reports the
// end-to-end metrics of untraced passes; --trace 1 reports the per-layer
// metrics of a traced run.  The full result, with provenance, and (traced
// runs) the recorded spans are also written under --out-dir.

#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "harness.h"
#include "io/args.h"
#include "io/json.h"
#include "workloads.h"

namespace perfbench {

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Config& config) {
  if (name == "converge") return make_converge(config);
  if (name == "fairness") return make_fairness(config);
  if (name == "sweep") return make_sweep(config, false);
  if (name == "contained") return make_sweep(config, true);
  throw std::invalid_argument("perfbench: unknown workload '" + name + "'");
}

}  // namespace perfbench

namespace {

namespace fs = std::filesystem;
using perfbench::Config;
using perfbench::RunResult;

/// Why this build must not be timed, or nullptr when it may be.
const char* build_problem() {
#if defined(SIM_CHECKED)
  return "SIM_CHECKED invariant layer compiled in";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#elif !defined(NDEBUG) || !defined(__OPTIMIZE__)
  return "unoptimized or assert-enabled build (need -O2/-O3 -DNDEBUG)";
#elif !defined(DIVPP_FAULTS) || !DIVPP_FAULTS
  return "fault-injection hooks compiled out (the contained section of "
         "traced runs needs them)";
#else
  return nullptr;
#endif
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

std::string filesystem_of(const std::string& path) {
  struct statfs info{};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: return "0x" + [&] {
      char hex[32];
      std::snprintf(hex, sizeof hex, "%lx",
                    static_cast<unsigned long>(info.f_type));
      return std::string(hex);
    }();
  }
}

divpp::io::Json provenance(const Config& config, const std::string& sha) {
  divpp::io::Json out;
  out.set("nproc", nproc());
  out.set("cpu", cpu_model());
  out.set("compiler", std::string("g++ ") + __VERSION__);
  out.set("flags", PERFBENCH_CXX_FLAGS);
  out.set("build_type", PERFBENCH_BUILD_TYPE);
  out.set("git_sha", sha);
  out.set("seed", static_cast<std::int64_t>(config.seed));
  out.set("sweep_dir_fs", filesystem_of(config.work_dir));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const divpp::io::Args args(argc, argv);
    if (const char* problem = build_problem()) {
      std::cerr << "perfbench: refusing to time this build: " << problem
                << "\n";
      return 2;
    }
    const std::string workload = args.get_string("workload", "");
    const auto& names = perfbench::workload_names();
    if (std::find(names.begin(), names.end(), workload) == names.end())
      throw std::invalid_argument("--workload must be one of converge, "
                                  "fairness, sweep");
    const std::string scale = args.get_string("scale", "full");
    if (scale != "full" && scale != "smoke")
      throw std::invalid_argument("--scale must be full or smoke");
    Config config;
    config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    config.seconds = args.get_double("seconds", 10.0);
    config.smoke = scale == "smoke";
    config.threads = nproc();
    config.work_dir = args.get_string("work-dir", ".bench_build/work");
    const std::string out_dir =
        args.get_string("out-dir", ".bench_build/results");
    const bool traced = args.get_int("trace", 0) != 0;
    fs::create_directories(config.work_dir);
    fs::create_directories(out_dir);

    // Scheduled worker segfaults must not write core files.
    const rlimit no_core{0, 0};
    setrlimit(RLIMIT_CORE, &no_core);

    const divpp::io::Json stamp =
        provenance(config, args.get_string("git-sha", "unknown"));
    const RunResult run = traced
                              ? perfbench::run_traced(workload, config)
                              : perfbench::run_untraced(workload, config);

    divpp::io::Json metrics;
    for (const auto& [name, metric] : run.metrics) {
      divpp::io::Json entry;
      entry.set("value", metric.value);
      entry.set("unit", metric.unit);
      metrics.set(name, entry);
    }
    divpp::io::Json result;
    result.set("correct", run.verdict.correct());
    result.set("attempted", run.verdict.attempted);
    result.set("failed", run.verdict.failed);
    result.set("metrics", metrics);

    divpp::io::Json info;
    for (const auto& [name, value] : run.info) info.set(name, value);
    divpp::io::Json record;
    record.set("workload", workload);
    record.set("trace", traced);
    record.set("scale", scale);
    record.set("provenance", stamp);
    record.set("info", info);
    record.set("result", result);
    const std::string stem =
        (fs::path(out_dir) / (workload + "-seed" + std::to_string(config.seed) +
                              (traced ? "-trace" : "") +
                              (config.smoke ? "-smoke" : "")))
            .string();
    std::ofstream(stem + ".json") << record.to_string() << "\n";
    if (traced) perfbench::trace::write_jsonl(stem + ".spans.jsonl", run.spans);

    for (const std::string& error : run.verdict.errors)
      std::cerr << "perfbench: check failed: " << error << "\n";
    divpp::io::Json header;
    header.set("provenance", stamp);
    header.set("info", info);
    std::cout << header.to_string() << "\n" << result.to_string() << "\n";
    return run.verdict.correct() ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
