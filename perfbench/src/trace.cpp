#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace perfbench::trace {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::int64_t> g_next_span{0};
std::atomic<std::int64_t> g_trace{0};

struct Buffer {
  std::vector<Span> spans;
  std::int64_t current = -1;
  int thread = 0;
};

// Buffers outlive their threads (pool threads may exit before take()).
std::mutex g_registry_mutex;
std::vector<std::unique_ptr<Buffer>> g_registry;

Buffer& local_buffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    g_registry.push_back(std::make_unique<Buffer>());
    buffer = g_registry.back().get();
    buffer->thread = static_cast<int>(g_registry.size()) - 1;
  }
  return *buffer;
}

}  // namespace

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::int64_t begin_trace() { return g_trace.fetch_add(1) + 1; }

std::int64_t current_span() {
  return enabled() ? local_buffer().current : -1;
}

Scope::Scope(const char* name, std::int64_t parent) {
  if (!enabled()) return;
  active_ = true;
  Buffer& buffer = local_buffer();
  span_.name = name;
  span_.id = g_next_span.fetch_add(1);
  span_.parent = parent;
  span_.trace = g_trace.load(std::memory_order_relaxed);
  span_.thread = buffer.thread;
  saved_current_ = buffer.current;
  buffer.current = span_.id;
  span_.begin_ns = now_ns();
}

Scope::~Scope() {
  if (!active_) return;
  span_.end_ns = now_ns();
  Buffer& buffer = local_buffer();
  buffer.current = saved_current_;
  buffer.spans.push_back(span_);
}

std::vector<Span> take() {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const auto& buffer : g_registry) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::int64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    const auto it = index.find(span.parent);
    if (it != index.end())
      children[it->second].emplace_back(span.begin_ns, span.end_ns);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t reach = spans[i].begin_ns;
    for (auto [begin, end] : intervals) {
      begin = std::max(begin, reach);
      end = std::min(end, spans[i].end_ns);
      if (end > begin) {
        covered += end - begin;
        reach = end;
      }
    }
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

void write_jsonl(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("trace: cannot write " + path);
  for (const Span& span : spans) {
    out << "{\"name\":\"" << span.name << "\",\"id\":" << span.id
        << ",\"parent\":" << span.parent << ",\"trace\":" << span.trace
        << ",\"thread\":" << span.thread << ",\"begin_ns\":" << span.begin_ns
        << ",\"end_ns\":" << span.end_ns << "}\n";
  }
}

}  // namespace perfbench::trace
