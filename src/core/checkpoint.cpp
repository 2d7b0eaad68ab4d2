#include "core/checkpoint.h"

#include <array>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "io/record.h"

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

}  // namespace

/// Private-state bridge for the v2 format (friend of CountSimulation):
/// v2 round-trips the clock, the auto-engine EWMA, the transition
/// counter, and the pending-event schedule, which have no public
/// setters by design.
struct CheckpointAccess {
  static std::string write_v2(const CountSimulation& sim,
                              const rng::Xoshiro256& gen,
                              const AgentState* tagged) {
    io::RecordWriter out;
    out.word(kRunHeaderV2).end_line();
    out.word("k").integer(sim.num_colors()).end_line();
    out.word("weights");
    for (const double w : sim.weights().weights()) out.hex_double(w);
    out.end_line();
    out.word("time").integer(sim.time_).end_line();
    out.word("dark");
    for (const std::int64_t c : sim.dark_) out.integer(c);
    out.end_line();
    out.word("light");
    for (const std::int64_t c : sim.light_) out.integer(c);
    out.end_line();
    out.word("active_transitions").integer(sim.active_transitions_).end_line();
    out.word("ewma").hex_double(sim.active_ewma_).end_line();
    out.word("events").integer(sim.pending_events_.size()).end_line();
    for (const auto& event : sim.pending_events_)
      out.word("event").integer(event.time).integer(event.handle).end_line();
    out.word("next_handle").integer(sim.next_event_handle_).end_line();
    out.word("rng");
    for (const std::uint64_t word : gen.state()) out.hex_word(word);
    out.end_line().word("tagged");
    if (tagged != nullptr) {
      out.integer(tagged->color).word(tagged->is_dark() ? "dark" : "light");
    } else {
      out.word("none");
    }
    out.end_line().word("end").end_line();
    return out.take();
  }

  /// A restored v2 blob, tagged or not.
  struct Restored {
    CountSimulation sim;
    rng::Xoshiro256 gen;
    std::optional<AgentState> tagged;
  };

  static Restored read_v2(const std::string& text) {
    // Sections are fixed-order and appear exactly once, so a duplicated,
    // missing, or reordered section always trips the next keyword check.
    io::RecordReader in(text, "checkpoint");
    in.keyword(kRunHeaderV2);
    in.keyword("k");
    const auto k =
        static_cast<std::size_t>(in.int64("colour count", 1, kMaxColors));
    in.keyword("weights");
    std::vector<double> weights(k);  // WeightMap rejects NaN, inf and < 1
    for (double& w : weights) w = in.real("weight");
    in.keyword("time");
    const std::int64_t time = in.int64("time", 0);
    in.keyword("dark");
    std::vector<std::int64_t> dark(k), light(k);
    for (std::int64_t& c : dark) c = in.int64("dark count", 0);
    in.keyword("light");
    for (std::int64_t& c : light) c = in.int64("light count", 0);
    CountSimulation sim(WeightMap(std::move(weights)), std::move(dark),
                        std::move(light));
    sim.time_ = time;
    in.keyword("active_transitions");
    sim.active_transitions_ = in.int64("active_transitions", 0);
    in.keyword("ewma");
    sim.active_ewma_ = in.real("ewma");
    if (sim.active_ewma_ != -1.0 &&
        !(sim.active_ewma_ >= 0.0 && sim.active_ewma_ <= 1.0))
      fail("ewma must be -1 (unmeasured) or an active fraction in [0, 1]");
    in.keyword("events");
    const std::int64_t num_events =
        in.int64("event count", 0, kMaxPendingEvents);
    auto& events = sim.pending_events_;  // grows only as events parse
    for (std::int64_t e = 0; e < num_events; ++e) {
      in.keyword("event");
      const std::int64_t when = in.int64("event time");
      const std::int64_t handle = in.int64("event handle", 0);
      if (when < time)
        fail("pending event time " + std::to_string(when) +
             " is before the checkpoint clock " + std::to_string(time));
      if (!events.empty() && when < events.back().time)
        fail("pending events out of firing order");
      for (const auto& event : events)
        if (event.handle == handle)
          fail("duplicate event handle " + std::to_string(handle));
      // Actions are code; a restored event carries a placeholder until
      // the caller re-attaches one (rebind_scheduled_event).
      events.push_back(CountSimulation::PendingEvent{
          when, handle, [handle](CountSimulation&) {
            throw std::logic_error(
                "checkpoint resume: pending event " + std::to_string(handle) +
                " fired before rebind_scheduled_event re-attached its "
                "action");
          }});
    }
    in.keyword("next_handle");
    sim.next_event_handle_ = in.int64("next_handle", 0);
    for (const auto& event : events)
      if (event.handle >= sim.next_event_handle_)
        fail("event handle " + std::to_string(event.handle) +
             " not below next_handle " +
             std::to_string(sim.next_event_handle_));
    in.keyword("rng");
    std::array<std::uint64_t, 4> rng_state{};
    for (std::uint64_t& word : rng_state) word = in.hex_word("rng state word");
    in.keyword("tagged");
    std::optional<AgentState> tagged;
    if (!in.accept("none")) {
      const auto color = static_cast<ColorId>(
          in.int64("tagged colour", 0, static_cast<std::int64_t>(k) - 1));
      const bool is_dark = in.accept("dark");
      if (!is_dark) in.keyword("light");
      tagged = AgentState{color, is_dark ? kDark : kLight};
    }
    in.keyword("end");
    in.expect_end();
    return Restored{std::move(sim), rng::Xoshiro256::from_state(rng_state),
                    tagged};
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
  return CheckpointAccess::read_v2(text).tagged.has_value();
}

ResumedRun resume_run_from_checkpoint(const std::string& text) {
  CheckpointAccess::Restored run = CheckpointAccess::read_v2(text);
  if (run.tagged.has_value())
    fail("blob is a tagged run (use resume_tagged_run_from_checkpoint)");
  return ResumedRun{std::move(run.sim), run.gen};
}

ResumedTaggedRun resume_tagged_run_from_checkpoint(const std::string& text) {
  CheckpointAccess::Restored run = CheckpointAccess::read_v2(text);
  if (!run.tagged.has_value())
    fail("blob is an untagged run (use resume_run_from_checkpoint)");
  return ResumedTaggedRun{TaggedCountSimulation(std::move(run.sim),
                                                run.tagged->color,
                                                run.tagged->is_dark()),
                          run.gen};
}

}  // namespace divpp::core
