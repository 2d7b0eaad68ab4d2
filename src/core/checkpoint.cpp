#include "core/checkpoint.h"

#include <array>
#include <cerrno>
#include <charconv>
#include <limits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace divpp::core {

namespace {

constexpr const char* kRunHeaderV2 = "divpp-run-v2";

// Size-field caps: a corrupted or hostile size must fail as
// invalid_argument, never as a multi-gigabyte allocation (the payload
// for a genuine palette of this size would be far larger than any blob
// the writers produce).
constexpr std::int64_t kMaxColors = 1 << 20;
constexpr std::int64_t kMaxPendingEvents = 1 << 20;

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("checkpoint: " + what);
}

std::string next_token(std::istringstream& in, const char* what) {
  std::string token;
  if (!(in >> token))
    fail(std::string("truncated input (expected ") + what + ")");
  return token;
}

/// Sections are fixed-order and appear exactly once, so a duplicated,
/// missing, or reordered section always trips the next keyword check.
void expect_keyword(std::istringstream& in, const char* keyword) {
  const std::string token =
      next_token(in, (std::string("'") + keyword + "' section").c_str());
  if (token != keyword)
    fail("expected '" + std::string(keyword) + "' section, got '" + token +
         "' (sections are fixed-order, exactly once)");
}

void expect_end_of_input(std::istringstream& in) {
  std::string token;
  if (in >> token) fail("trailing garbage after checkpoint body: '" + token + "'");
}

/// Full-token double parse — decimal or C99 hexfloat (v2 writes
/// hexfloats for bit-exact round trips; hand-written blobs may be
/// decimal).
/// Rejects partially consumed tokens and non-finite values, including
/// the overflow-to-infinity strtod produces for out-of-range decimals.
double parse_double(const std::string& token, const char* what) {
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (token.empty() || end != token.c_str() + token.size())
    fail(std::string("malformed ") + what + " '" + token + "'");
  if (!std::isfinite(value))
    fail(std::string(what) + " must be finite, got '" + token + "'");
  return value;
}

std::int64_t parse_int(const std::string& token, const char* what) {
  std::int64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec == std::errc::result_out_of_range)
    fail(std::string(what) + " overflows int64: '" + token + "'");
  if (ec != std::errc{} || ptr != token.data() + token.size())
    fail(std::string("malformed ") + what + " '" + token + "'");
  return value;
}

std::uint64_t parse_hex_word(const std::string& token, const char* what) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value, 16);
  if (ec != std::errc{} || ptr != token.data() + token.size() ||
      token.size() > 16)
    fail(std::string("malformed ") + what + " '" + token + "'");
  return value;
}

double read_double(std::istringstream& in, const char* what) {
  return parse_double(next_token(in, what), what);
}

std::int64_t read_int(std::istringstream& in, const char* what) {
  return parse_int(next_token(in, what), what);
}

std::vector<double> read_doubles(std::istringstream& in, std::size_t count,
                                 const char* what) {
  std::vector<double> values(count);
  for (double& v : values) v = read_double(in, what);
  return values;
}

std::vector<std::int64_t> read_counts(std::istringstream& in,
                                      std::size_t count, const char* what) {
  std::vector<std::int64_t> values(count);
  for (std::int64_t& v : values) {
    v = read_int(in, what);
    if (v < 0)
      fail(std::string("negative ") + what + " " + std::to_string(v));
  }
  return values;
}

std::int64_t read_sized(std::istringstream& in, const char* what,
                        std::int64_t min, std::int64_t max) {
  const std::int64_t value = read_int(in, what);
  if (value < min || value > max)
    fail(std::string(what) + " out of range [" + std::to_string(min) + ", " +
         std::to_string(max) + "]: " + std::to_string(value));
  return value;
}

/// C99 hexfloat rendering — the shortest representation that is
/// guaranteed bit-exact through any conforming strtod.
std::string hex_double(double value) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", value);
  return buf;
}

std::string hex_word(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// The parsed (not yet constructed) payload of a v2 blob.
struct ParsedV2 {
  std::vector<double> weights;
  std::int64_t time = 0;
  std::vector<std::int64_t> dark;
  std::vector<std::int64_t> light;
  std::int64_t active_transitions = 0;
  double ewma = -1.0;
  std::vector<std::pair<std::int64_t, std::int64_t>> events;  // (time, handle)
  std::int64_t next_handle = 0;
  std::array<std::uint64_t, 4> rng_state{};
  std::optional<AgentState> tagged;
};

ParsedV2 parse_v2(const std::string& text) {
  std::istringstream in(text);
  const std::string header = next_token(in, "header");
  if (header != kRunHeaderV2)
    fail("bad header (expected " + std::string(kRunHeaderV2) + ", got '" +
         header + "')");
  ParsedV2 out;
  expect_keyword(in, "k");
  const std::int64_t k = read_sized(in, "colour count", 1, kMaxColors);
  expect_keyword(in, "weights");
  out.weights = read_doubles(in, static_cast<std::size_t>(k), "weight");
  expect_keyword(in, "time");
  out.time = read_sized(in, "time", 0,
                        std::numeric_limits<std::int64_t>::max());
  expect_keyword(in, "dark");
  out.dark = read_counts(in, static_cast<std::size_t>(k), "dark count");
  expect_keyword(in, "light");
  out.light = read_counts(in, static_cast<std::size_t>(k), "light count");
  expect_keyword(in, "active_transitions");
  out.active_transitions =
      read_sized(in, "active_transitions", 0,
                 std::numeric_limits<std::int64_t>::max());
  expect_keyword(in, "ewma");
  out.ewma = read_double(in, "ewma");
  if (out.ewma != -1.0 && !(out.ewma >= 0.0 && out.ewma <= 1.0))
    fail("ewma must be -1 (unmeasured) or an active fraction in [0, 1]");
  expect_keyword(in, "events");
  const std::int64_t num_events =
      read_sized(in, "event count", 0, kMaxPendingEvents);
  out.events.reserve(static_cast<std::size_t>(num_events));
  for (std::int64_t e = 0; e < num_events; ++e) {
    expect_keyword(in, "event");
    const std::int64_t when = read_int(in, "event time");
    const std::int64_t handle = read_int(in, "event handle");
    if (when < out.time)
      fail("pending event time " + std::to_string(when) +
           " is before the checkpoint clock " + std::to_string(out.time));
    if (!out.events.empty() && when < out.events.back().first)
      fail("pending events out of firing order");
    if (handle < 0) fail("negative event handle");
    for (const auto& [t, h] : out.events)
      if (h == handle) fail("duplicate event handle " + std::to_string(handle));
    out.events.emplace_back(when, handle);
  }
  expect_keyword(in, "next_handle");
  out.next_handle = read_sized(in, "next_handle", 0,
                               std::numeric_limits<std::int64_t>::max());
  for (const auto& [t, h] : out.events)
    if (h >= out.next_handle)
      fail("event handle " + std::to_string(h) +
           " not below next_handle " + std::to_string(out.next_handle));
  expect_keyword(in, "rng");
  for (std::uint64_t& word : out.rng_state)
    word = parse_hex_word(next_token(in, "rng state word"), "rng state word");
  expect_keyword(in, "tagged");
  const std::string tag = next_token(in, "tagged state");
  if (tag != "none") {
    const std::int64_t color = parse_int(tag, "tagged colour");
    if (color < 0 || color >= k) fail("tagged colour out of range");
    const std::string shade = next_token(in, "tagged shade");
    if (shade != "dark" && shade != "light")
      fail("tagged shade must be 'dark' or 'light', got '" + shade + "'");
    out.tagged = AgentState{static_cast<ColorId>(color),
                            shade == "dark" ? kDark : kLight};
  }
  expect_keyword(in, "end");
  expect_end_of_input(in);
  return out;
}

}  // namespace

/// Private-state bridge for the v2 format (friend of CountSimulation):
/// v2 round-trips the clock, the auto-engine EWMA, the transition
/// counter, and the pending-event schedule, which have no public
/// setters by design.
struct CheckpointAccess {
  static std::string write_v2(const CountSimulation& sim,
                              const rng::Xoshiro256& gen,
                              const AgentState* tagged) {
    std::ostringstream out;
    out << kRunHeaderV2 << "\n";
    out << "k " << sim.num_colors() << "\n";
    out << "weights";
    for (const double w : sim.weights().weights()) out << " " << hex_double(w);
    out << "\n";
    out << "time " << sim.time_ << "\n";
    out << "dark";
    for (const std::int64_t c : sim.dark_) out << " " << c;
    out << "\n";
    out << "light";
    for (const std::int64_t c : sim.light_) out << " " << c;
    out << "\n";
    out << "active_transitions " << sim.active_transitions_ << "\n";
    out << "ewma " << hex_double(sim.active_ewma_) << "\n";
    out << "events " << sim.pending_events_.size() << "\n";
    for (const auto& event : sim.pending_events_)
      out << "event " << event.time << " " << event.handle << "\n";
    out << "next_handle " << sim.next_event_handle_ << "\n";
    out << "rng";
    for (const std::uint64_t word : gen.state()) out << " " << hex_word(word);
    out << "\n";
    if (tagged != nullptr) {
      out << "tagged " << tagged->color << " "
          << (tagged->is_dark() ? "dark" : "light") << "\n";
    } else {
      out << "tagged none\n";
    }
    out << "end\n";
    return out.str();
  }

  static CountSimulation restore(ParsedV2&& parsed) {
    CountSimulation sim(WeightMap(std::move(parsed.weights)),
                        std::move(parsed.dark), std::move(parsed.light));
    sim.time_ = parsed.time;
    sim.active_transitions_ = parsed.active_transitions;
    sim.active_ewma_ = parsed.ewma;
    sim.next_event_handle_ = parsed.next_handle;
    sim.pending_events_.reserve(parsed.events.size());
    for (const auto& [when, handle] : parsed.events) {
      // Actions are code; a restored event carries a placeholder until
      // the caller re-attaches one (rebind_scheduled_event).
      sim.pending_events_.push_back(CountSimulation::PendingEvent{
          when, handle, [handle](CountSimulation&) {
            throw std::logic_error(
                "checkpoint resume: pending event " + std::to_string(handle) +
                " fired before rebind_scheduled_event re-attached its "
                "action");
          }});
    }
    return sim;
  }
};

std::string to_checkpoint_v2(const CountSimulation& sim,
                             const rng::Xoshiro256& gen) {
  return CheckpointAccess::write_v2(sim, gen, nullptr);
}

std::string to_checkpoint_v2(const TaggedCountSimulation& sim,
                             const rng::Xoshiro256& gen) {
  const AgentState tagged = sim.tagged_state();
  return CheckpointAccess::write_v2(sim.counts(), gen, &tagged);
}

bool checkpoint_v2_is_tagged(const std::string& text) {
  return parse_v2(text).tagged.has_value();
}

ResumedRun resume_run_from_checkpoint(const std::string& text) {
  ParsedV2 parsed = parse_v2(text);
  if (parsed.tagged.has_value())
    fail("blob is a tagged run (use resume_tagged_run_from_checkpoint)");
  rng::Xoshiro256 gen = rng::Xoshiro256::from_state(parsed.rng_state);
  return ResumedRun{CheckpointAccess::restore(std::move(parsed)), gen};
}

ResumedTaggedRun resume_tagged_run_from_checkpoint(const std::string& text) {
  ParsedV2 parsed = parse_v2(text);
  if (!parsed.tagged.has_value())
    fail("blob is an untagged run (use resume_run_from_checkpoint)");
  const AgentState tagged = *parsed.tagged;
  rng::Xoshiro256 gen = rng::Xoshiro256::from_state(parsed.rng_state);
  return ResumedTaggedRun{
      TaggedCountSimulation(CheckpointAccess::restore(std::move(parsed)),
                            tagged.color, tagged.is_dark()),
      gen};
}

}  // namespace divpp::core
