// Tests for the v2 checkpoint format (complete resumable run, hexfloat
// doubles, RNG state, pending events): lossless round trips after every
// engine, bit-identical resume, a pinned byte-for-byte blob, encoding
// that ignores the global locale, and a corruption corpus in which every
// field is corrupted or truncated in turn and must be rejected with
// std::invalid_argument.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <locale>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/count_simulation.h"
#include "core/weights.h"
#include "rng/xoshiro.h"

namespace {

using divpp::core::CountSimulation;
using divpp::core::Engine;
using divpp::core::WeightMap;
using divpp::rng::Xoshiro256;

std::string mutate(const std::string& blob, const std::string& find,
                   const std::string& replace) {
  const std::size_t pos = blob.find(find);
  EXPECT_NE(pos, std::string::npos) << "corpus out of date: '" << find << "'";
  std::string out = blob;
  out.replace(pos, find.size(), replace);
  return out;
}

TEST(CheckpointV2, RoundTripIsByteIdenticalAfterAnyEngine) {
  for (const Engine engine : {Engine::kStep, Engine::kJump, Engine::kBatch,
                              Engine::kAuto}) {
    auto sim = CountSimulation::adversarial_start(WeightMap({1.0, 2.0, 3.5}),
                                                  300);
    Xoshiro256 gen(23);
    sim.advance_with(engine, 3000, gen);
    const std::string blob = divpp::core::to_checkpoint_v2(sim, gen);
    auto resumed = divpp::core::resume_run_from_checkpoint(blob);
    EXPECT_EQ(resumed.sim.time(), sim.time());
    EXPECT_EQ(resumed.sim.active_transitions(), sim.active_transitions());
    EXPECT_EQ(resumed.gen.state(), gen.state());
    EXPECT_EQ(divpp::core::to_checkpoint_v2(resumed.sim, resumed.gen), blob)
        << divpp::core::engine_name(engine);
  }
}

TEST(CheckpointV2, HexfloatsRoundTripBitExactly) {
  // Weights chosen to be unrepresentable in short decimal, and an EWMA
  // populated by a real auto-engine window: all must survive the text
  // round trip bit-for-bit, not just to within an epsilon.
  const double w0 = 1.0 + 1.0 / 3.0;
  const double w1 = 2.0 + 1e-13;
  CountSimulation sim(WeightMap({w0, w1}), {40, 30}, {20, 10});
  Xoshiro256 gen(17);
  sim.advance_with(Engine::kAuto, 5000, gen);
  const std::string blob = divpp::core::to_checkpoint_v2(sim, gen);
  auto resumed = divpp::core::resume_run_from_checkpoint(blob);
  EXPECT_EQ(std::memcmp(resumed.sim.weights().weights().data(),
                        sim.weights().weights().data(), 2 * sizeof(double)),
            0);
  EXPECT_EQ(resumed.sim.active_fraction_estimate(),
            sim.active_fraction_estimate());
  EXPECT_EQ(divpp::core::to_checkpoint_v2(resumed.sim, resumed.gen), blob);
}

TEST(CheckpointV2, ReadersAcceptDecimalDoubles) {
  CountSimulation sim(WeightMap({2.5, 3.0}), {4, 4}, {1, 1});
  Xoshiro256 gen(1);
  std::string blob = divpp::core::to_checkpoint_v2(sim, gen);
  // A hand-written blob may use decimal instead of hexfloat.
  const std::size_t pos = blob.find("weights ");
  ASSERT_NE(pos, std::string::npos);
  const std::size_t end = blob.find('\n', pos);
  blob.replace(pos, end - pos, "weights 2.5 3.0");
  const auto resumed = divpp::core::resume_run_from_checkpoint(blob);
  EXPECT_EQ(resumed.sim.weights().weight(0), 2.5);
  EXPECT_EQ(resumed.sim.weights().weight(1), 3.0);
}

TEST(CheckpointV2, PendingEventsRoundTripAndRebind) {
  auto sim = CountSimulation::equal_start(WeightMap({1.0, 2.0}), 100);
  Xoshiro256 gen(11);
  const std::int64_t h1 = sim.schedule_event(
      500, [](CountSimulation& s) { s.add_agents(0, 1, true); });
  const std::int64_t h2 = sim.schedule_event(
      900, [](CountSimulation& s) { s.add_agents(1, 2, false); });
  const std::string blob = divpp::core::to_checkpoint_v2(sim, gen);

  // The schedule round-trips; an event firing unrebound is an error,
  // never a silent no-op.
  {
    auto unbound = divpp::core::resume_run_from_checkpoint(blob);
    EXPECT_EQ(unbound.sim.pending_event_schedule(),
              sim.pending_event_schedule());
    EXPECT_THROW(unbound.sim.advance_with(Engine::kStep, 600, unbound.gen),
                 std::logic_error);
  }

  // Rebound events make the resumed run bit-identical to the original.
  auto resumed = divpp::core::resume_run_from_checkpoint(blob);
  EXPECT_TRUE(resumed.sim.rebind_scheduled_event(
      h1, [](CountSimulation& s) { s.add_agents(0, 1, true); }));
  EXPECT_TRUE(resumed.sim.rebind_scheduled_event(
      h2, [](CountSimulation& s) { s.add_agents(1, 2, false); }));
  EXPECT_FALSE(
      resumed.sim.rebind_scheduled_event(777, [](CountSimulation&) {}));
  sim.advance_with(Engine::kStep, 1000, gen);
  resumed.sim.advance_with(Engine::kStep, 1000, resumed.gen);
  EXPECT_EQ(divpp::core::to_checkpoint_v2(resumed.sim, resumed.gen),
            divpp::core::to_checkpoint_v2(sim, gen));
}

TEST(CheckpointV2, TaggedRoundTripAndKindMismatch) {
  using divpp::core::TaggedCountSimulation;
  TaggedCountSimulation tagged(
      CountSimulation::equal_start(WeightMap({1.0, 2.0}), 100), 1, true);
  Xoshiro256 gen(31);
  tagged.advance_with(Engine::kBatch, 2000, gen);
  const std::string blob = divpp::core::to_checkpoint_v2(tagged, gen);
  EXPECT_TRUE(divpp::core::checkpoint_v2_is_tagged(blob));
  auto resumed = divpp::core::resume_tagged_run_from_checkpoint(blob);
  EXPECT_EQ(resumed.sim.tagged_state(), tagged.tagged_state());
  EXPECT_EQ(divpp::core::to_checkpoint_v2(resumed.sim, resumed.gen), blob);
  // Kind mismatches are rejected, both ways.
  EXPECT_THROW((void)divpp::core::resume_run_from_checkpoint(blob),
               std::invalid_argument);
  CountSimulation plain = CountSimulation::equal_start(WeightMap({1.0}), 10);
  const std::string untagged = divpp::core::to_checkpoint_v2(plain, gen);
  EXPECT_FALSE(divpp::core::checkpoint_v2_is_tagged(untagged));
  EXPECT_THROW((void)divpp::core::resume_tagged_run_from_checkpoint(untagged),
               std::invalid_argument);
}

/// A small deterministic v2 blob with pending events, for field surgery.
std::string corpus_blob() {
  CountSimulation sim(WeightMap({1.0, 2.0}), {3, 4}, {2, 1});
  (void)sim.schedule_event(100, [](CountSimulation&) {});
  (void)sim.schedule_event(200, [](CountSimulation&) {});
  Xoshiro256 gen(47);
  return divpp::core::to_checkpoint_v2(sim, gen);
}

std::string replace_line(const std::string& blob, const std::string& prefix,
                         const std::string& line) {
  const std::size_t pos = blob.find(prefix);
  EXPECT_NE(pos, std::string::npos) << prefix;
  const std::size_t end = blob.find('\n', pos);
  std::string out = blob;
  out.replace(pos, end - pos, line);
  return out;
}

TEST(CheckpointV2, RejectsEveryTruncation) {
  const std::string blob = corpus_blob();
  // Cut at every line boundary (and a few mid-token points): every
  // proper prefix must be rejected.
  for (std::size_t cut = blob.find('\n'); cut != std::string::npos;
       cut = blob.find('\n', cut + 1)) {
    if (cut + 1 == blob.size()) break;  // the full blob is valid
    EXPECT_THROW(
        (void)divpp::core::resume_run_from_checkpoint(blob.substr(0, cut)),
        std::invalid_argument)
        << "prefix of " << cut << " bytes was accepted";
  }
  for (const std::size_t cut : {std::size_t{0}, std::size_t{5}}) {
    EXPECT_THROW(
        (void)divpp::core::resume_run_from_checkpoint(blob.substr(0, cut)),
        std::invalid_argument);
  }
}

TEST(CheckpointV2, RejectsEveryCorruptedField) {
  const std::string blob = corpus_blob();
  const struct {
    const char* find;
    const char* replace;
    const char* why;
  } kMutations[] = {
      {"divpp-run-v2", "divpp-run-v9", "unknown version"},
      {"k 2", "k 0", "empty palette"},
      {"k 2", "k -2", "negative palette"},
      {"k 2", "k 4294967296", "palette over the size cap"},
      {"k 2", "k 99999999999999999999", "palette count overflow"},
      {"0x1p+0", "inf", "non-finite weight"},
      {"0x1p+0", "-inf", "negative non-finite weight"},
      {"0x1p+0", "nan", "NaN weight"},
      {"0x1p+0", "1e999", "overflowing decimal weight"},
      {"0x1p+0", "wibble", "malformed weight"},
      {"time 0", "time -1", "negative clock"},
      {"time 0", "time 0.5", "fractional clock"},
      {"time 0", "time 99999999999999999999999", "clock overflows int64"},
      {"dark 3 4", "dark -3 4", "negative dark count"},
      {"dark 3 4", "light 3 4", "reordered sections"},
      {"light 2 1", "light 2 1.5", "fractional light count"},
      {"active_transitions 0", "active_transitions -1",
       "negative transition counter"},
      {"ewma -0x1p+0", "ewma 2.0", "ewma above 1"},
      {"ewma -0x1p+0", "ewma -0.5", "ewma below 0 but not the sentinel"},
      {"events 2", "events -1", "negative event count"},
      {"events 2", "events 3", "declared events exceed the body"},
      {"event 100 0", "event 300 0", "events out of firing order"},
      {"event 100 0", "event -5 0", "event before the clock"},
      {"event 200 1", "event 200 0", "duplicate event handle"},
      {"event 200 1", "event 200 7", "handle not below next_handle"},
      {"next_handle 2", "next_handle -1", "negative next_handle"},
      {"tagged none", "tagged 5 dark", "tagged colour out of range"},
      {"tagged none", "tagged 0 gray", "unknown tagged shade"},
      {"end", "fin", "missing end marker"},
  };
  for (const auto& m : kMutations) {
    EXPECT_THROW((void)divpp::core::resume_run_from_checkpoint(
                     mutate(blob, m.find, m.replace)),
                 std::invalid_argument)
        << m.why;
  }
  // RNG state: malformed words and the forbidden all-zero state.
  EXPECT_THROW((void)divpp::core::resume_run_from_checkpoint(
                   replace_line(blob, "rng ", "rng xyz 1 2 3")),
               std::invalid_argument);
  EXPECT_THROW((void)divpp::core::resume_run_from_checkpoint(
                   replace_line(blob, "rng ", "rng 0 0 0 0")),
               std::invalid_argument);
  // Trailing garbage after a structurally complete blob.
  EXPECT_THROW(
      (void)divpp::core::resume_run_from_checkpoint(blob + "stray"),
      std::invalid_argument);
}

/// Makes the global C++ locale group thousands with ',' for its
/// lifetime; the previous global locale comes back on destruction.
class GroupingGlobalLocale {
 public:
  GroupingGlobalLocale()
      : previous_(std::locale::global(
            std::locale(std::locale::classic(), new Grouping))) {}
  ~GroupingGlobalLocale() { std::locale::global(previous_); }
  GroupingGlobalLocale(const GroupingGlobalLocale&) = delete;
  GroupingGlobalLocale& operator=(const GroupingGlobalLocale&) = delete;

 private:
  struct Grouping : std::numpunct<char> {
    char do_thousands_sep() const override { return ','; }
    std::string do_grouping() const override { return "\3"; }
  };
  std::locale previous_;
};

TEST(CheckpointV2, EncodingIgnoresTheGlobalLocale) {
  // Counts and clock past 999, so a locale-aware writer would emit
  // "time 12,345" and then refuse its own blob.
  auto sim = CountSimulation::equal_start(WeightMap({1.0, 2.0}), 20000);
  Xoshiro256 gen(5);
  sim.advance_with(Engine::kAuto, 12345, gen);
  const std::string classic = divpp::core::to_checkpoint_v2(sim, gen);
  const GroupingGlobalLocale grouping;
  EXPECT_EQ(divpp::core::to_checkpoint_v2(sim, gen), classic);
  const auto resumed = divpp::core::resume_run_from_checkpoint(classic);
  EXPECT_EQ(resumed.sim.time(), 12345);
  EXPECT_EQ(resumed.gen.state(), gen.state());
}

// A tagged v2 blob as stored on disk: C99 "%a" hexfloats (non-dyadic
// weights, the unmeasured EWMA -1), two pending events, 16-digit RNG
// words.  Being a literal, it fails a writer and reader that drift
// together.
constexpr const char* kPinnedTaggedBlob =
    "divpp-run-v2\n"
    "k 3\n"
    "weights 0x1.5555555555555p+0 0x1.199999999999ap+0 "
    "0x1.00000000000e1p+1\n"
    "time 0\n"
    "dark 1200 340 56\n"
    "light 7 0 3\n"
    "active_transitions 0\n"
    "ewma -0x1p+0\n"
    "events 2\n"
    "event 5000 0\n"
    "event 12000 1\n"
    "next_handle 2\n"
    "rng 42b0ec0160ca2407 fd8dc81796e3864b 8464660dee828cfc "
    "68240b122982a98d\n"
    "tagged 2 light\n"
    "end\n";

TEST(CheckpointV2, WriterAndReaderMatchThePinnedBlob) {
  using divpp::core::TaggedCountSimulation;
  CountSimulation counts(WeightMap({1.0 + 1.0 / 3.0, 1.1, 2.0 + 1e-13}),
                         {1200, 340, 56}, {7, 0, 3});
  (void)counts.schedule_event(5000, [](CountSimulation&) {});
  (void)counts.schedule_event(12000, [](CountSimulation&) {});
  const TaggedCountSimulation tagged(std::move(counts), 2, false);
  const Xoshiro256 gen(2021);
  EXPECT_EQ(divpp::core::to_checkpoint_v2(tagged, gen), kPinnedTaggedBlob);

  const auto resumed =
      divpp::core::resume_tagged_run_from_checkpoint(kPinnedTaggedBlob);
  EXPECT_EQ(resumed.sim.tagged_state(), tagged.tagged_state());
  EXPECT_EQ(resumed.sim.counts().pending_event_schedule(),
            tagged.counts().pending_event_schedule());
  EXPECT_EQ(resumed.sim.counts().active_fraction_estimate(),
            tagged.counts().active_fraction_estimate());
  EXPECT_EQ(std::memcmp(resumed.sim.counts().weights().weights().data(),
                        tagged.counts().weights().weights().data(),
                        3 * sizeof(double)),
            0);
  EXPECT_EQ(resumed.gen.state(), gen.state());
  EXPECT_EQ(divpp::core::to_checkpoint_v2(resumed.sim, resumed.gen),
            kPinnedTaggedBlob);
}

}  // namespace
