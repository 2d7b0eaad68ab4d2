#include "core/count_simulation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "batch/collision_batch.h"
#include "check/invariant.h"
#include "context/sampler_context.h"
#include "rng/distributions.h"

namespace divpp::core {

Engine parse_engine(const std::string& name) {
  if (name == "step") return Engine::kStep;
  if (name == "jump") return Engine::kJump;
  if (name == "batch") return Engine::kBatch;
  if (name == "auto") return Engine::kAuto;
  throw std::invalid_argument("parse_engine: unknown engine '" + name +
                              "' (valid: step|jump|batch|auto)");
}

const char* engine_name(Engine engine) {
  switch (engine) {
    case Engine::kStep: return "step";
    case Engine::kJump: return "jump";
    case Engine::kBatch: return "batch";
    case Engine::kAuto: return "auto";
  }
  throw std::logic_error("engine_name: unknown engine");
}

CountSimulation::CountSimulation(WeightMap weights,
                                 std::vector<std::int64_t> dark,
                                 std::vector<std::int64_t> light)
    : weights_(std::move(weights)), dark_(std::move(dark)),
      light_(std::move(light)) {
  validate();
  n_ = std::accumulate(dark_.begin(), dark_.end(), std::int64_t{0}) +
       std::accumulate(light_.begin(), light_.end(), std::int64_t{0});
  if (n_ < 2)
    throw std::invalid_argument("CountSimulation: need at least two agents");
  rebuild_derived();
}

void CountSimulation::rebuild_derived() {
  const auto k = dark_.size();
  total_dark_ = std::accumulate(dark_.begin(), dark_.end(), std::int64_t{0});
  dark_tree_.assign(dark_);
  light_tree_.assign(light_);
  inv_weight_.resize(k);
  dark_ge2_ = 0;
  std::vector<double> flips(k);
  for (std::size_t i = 0; i < k; ++i) {
    inv_weight_[i] = 1.0 / weights_.weights()[i];
    flips[i] = static_cast<double>(dark_[i]) *
               static_cast<double>(dark_[i] - 1) * inv_weight_[i];
    if (dark_[i] >= 2) ++dark_ge2_;
  }
  flip_tree_.assign(flips);
  SIM_IF_CHECKED(check_invariants());
}

void CountSimulation::check_invariants() const {
#ifdef SIM_CHECKED
  const auto k = static_cast<std::size_t>(weights_.num_colors());
  SIM_DCHECK_EQ(dark_.size(), k);
  SIM_DCHECK_EQ(light_.size(), k);
  std::int64_t sum_dark = 0;
  std::int64_t sum_light = 0;
  std::int64_t ge2 = 0;
  for (std::size_t i = 0; i < k; ++i) {
    SIM_DCHECK_GE(dark_[i], 0);
    SIM_DCHECK_GE(light_[i], 0);
    sum_dark += dark_[i];
    sum_light += light_[i];
    if (dark_[i] >= 2) ++ge2;
    // Derived sampling state in lockstep with the raw counts.
    SIM_DCHECK_EQ(dark_tree_.get(static_cast<std::int64_t>(i)), dark_[i]);
    SIM_DCHECK_EQ(light_tree_.get(static_cast<std::int64_t>(i)), light_[i]);
    // Flip propensity f_i = A_i (A_i − 1) / w_i is recomputed exactly on
    // every dark change, so the leaf must match to the last bit.
    const double expected_flip = static_cast<double>(dark_[i]) *
                                 static_cast<double>(dark_[i] - 1) *
                                 inv_weight_[i];
    SIM_DCHECK_EQ(flip_tree_.get(static_cast<std::int64_t>(i)),
                  expected_flip);
  }
  SIM_DCHECK_EQ(sum_dark + sum_light, n_);          // count conservation
  SIM_DCHECK_EQ(sum_dark, total_dark_);
  SIM_DCHECK_EQ(sum_dark, dark_tree_.total());
  SIM_DCHECK_EQ(sum_light, light_tree_.total());
  SIM_DCHECK_EQ(ge2, dark_ge2_);
  // Each tree is a pure function of its leaves: every internal node is
  // exactly the sum of its children, so the flip total has no drift to
  // bound.
  dark_tree_.check_invariants();
  light_tree_.check_invariants();
  flip_tree_.check_invariants();
  SIM_DCHECK_GE(time_, 0);
  // Event queue: sorted by firing time, nothing already in the past.
  for (std::size_t e = 0; e < pending_events_.size(); ++e) {
    SIM_DCHECK_GE(pending_events_[e].time, time_);
    if (e > 0)
      SIM_DCHECK_GE(pending_events_[e].time, pending_events_[e - 1].time);
  }
#endif  // SIM_CHECKED
}

void CountSimulation::validate() const {
  const auto k = static_cast<std::size_t>(weights_.num_colors());
  if (dark_.size() != k || light_.size() != k)
    throw std::invalid_argument(
        "CountSimulation: count vectors must match the palette size");
  for (std::size_t i = 0; i < k; ++i) {
    if (dark_[i] < 0 || light_[i] < 0)
      throw std::invalid_argument("CountSimulation: negative count");
  }
}

CountSimulation CountSimulation::proportional_start(WeightMap weights,
                                                    std::int64_t n) {
  const std::int64_t k = weights.num_colors();
  if (n < std::max<std::int64_t>(2, k))
    throw std::invalid_argument("proportional_start: need n >= max(2, k)");
  // Largest-remainder apportionment with a floor of one agent per colour.
  std::vector<std::int64_t> supports(static_cast<std::size_t>(k), 1);
  std::int64_t assigned = k;
  std::vector<std::pair<double, ColorId>> remainders;
  for (ColorId i = 0; i < k; ++i) {
    const double exact = weights.fair_share(i) * static_cast<double>(n);
    const auto extra = static_cast<std::int64_t>(std::floor(exact)) - 1;
    if (extra > 0) {
      supports[static_cast<std::size_t>(i)] += extra;
      assigned += extra;
    }
    remainders.emplace_back(exact - std::floor(exact), i);
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::size_t cursor = 0;
  while (assigned < n) {
    const ColorId i = remainders[cursor % remainders.size()].second;
    ++supports[static_cast<std::size_t>(i)];
    ++assigned;
    ++cursor;
  }
  // The one-agent floor can overshoot when n is barely above k; shave the
  // excess off the best-supported colours.
  while (assigned > n) {
    const auto it = std::max_element(supports.begin(), supports.end());
    if (*it <= 1)
      throw std::invalid_argument("proportional_start: n too small for k");
    --*it;
    --assigned;
  }
  return CountSimulation(std::move(weights), std::move(supports),
                         std::vector<std::int64_t>(static_cast<std::size_t>(k),
                                                   0));
}

CountSimulation CountSimulation::adversarial_start(WeightMap weights,
                                                   std::int64_t n) {
  const std::int64_t k = weights.num_colors();
  if (n < k + 1)
    throw std::invalid_argument("adversarial_start: need n >= k + 1");
  std::vector<std::int64_t> supports(static_cast<std::size_t>(k), 1);
  supports[0] = n - (k - 1);
  return CountSimulation(std::move(weights), std::move(supports),
                         std::vector<std::int64_t>(static_cast<std::size_t>(k),
                                                   0));
}

CountSimulation CountSimulation::equal_start(WeightMap weights,
                                             std::int64_t n) {
  const std::int64_t k = weights.num_colors();
  if (n < std::max<std::int64_t>(2, k))
    throw std::invalid_argument("equal_start: need n >= max(2, k)");
  std::vector<std::int64_t> supports(static_cast<std::size_t>(k), n / k);
  for (std::int64_t i = 0; i < n % k; ++i)
    ++supports[static_cast<std::size_t>(i)];
  return CountSimulation(std::move(weights), std::move(supports),
                         std::vector<std::int64_t>(static_cast<std::size_t>(k),
                                                   0));
}

std::int64_t CountSimulation::dark(ColorId i) const {
  if (i < 0 || i >= num_colors())
    throw std::out_of_range("CountSimulation::dark: colour out of range");
  return dark_[static_cast<std::size_t>(i)];
}

std::int64_t CountSimulation::light(ColorId i) const {
  if (i < 0 || i >= num_colors())
    throw std::out_of_range("CountSimulation::light: colour out of range");
  return light_[static_cast<std::size_t>(i)];
}

std::int64_t CountSimulation::support(ColorId i) const {
  return dark(i) + light(i);
}

std::vector<std::int64_t> CountSimulation::supports() const {
  std::vector<std::int64_t> out(dark_.size());
  for (std::size_t i = 0; i < dark_.size(); ++i) out[i] = dark_[i] + light_[i];
  return out;
}

std::int64_t CountSimulation::min_dark() const noexcept {
  return *std::min_element(dark_.begin(), dark_.end());
}

double CountSimulation::active_probability() const noexcept {
  const double denom =
      static_cast<double>(n_) * static_cast<double>(n_ - 1);
  const double adopt = static_cast<double>(total_light()) *
                       static_cast<double>(total_dark_);
  return (adopt + flip_tree_.total()) / denom;
}

namespace {

/// The tagged decomposition draws involvement positions one window chunk
/// at a time so the position buffer stays bounded: a chunk is 2²²
/// interactions, and at most n·2¹⁶ of them, so it holds 2·chunk/n <= 2¹⁷
/// positions in expectation at every n (the 2²² chunk alone would put
/// them all into the buffer at n = 2).  Chunking is exact: involvement
/// indicators are i.i.d. per interaction, so Binomial counts over
/// disjoint chunks compose.
constexpr std::int64_t kTaggedInvolvementChunk = 1 << 22;

// ---- window cost model -----------------------------------------------
// One pure function prices the three exact paths of a window in ns per
// interaction; Engine::kBatch runs the cheaper of the walk and the chain,
// Engine::kAuto the cheapest of all three.  Its inputs are n, k, the
// window, the dark counts and the auto engine's active-fraction estimate,
// all of which a v2 checkpoint restores, so a window's draws never depend
// on a timing and a resumed run makes the same choices.
//
// The constants are least-squares fits (relative error) to e15's
// BM_JumpWindow, BM_RunBatchedWindow (its label-walk rows) and
// BM_CollisionBatcherAdvance rows: 4096-interaction windows at
// n ∈ {256, 4096, 16384}, k ∈ {3, 16} on a balanced, a skewed and an
// all-dark adversarial state, run with random interleaving on a 4-vCPU
// Xeon (g++ 12, Release).  Only the ordering of the predictions matters.
// The jump and chain fits use n >= 4096: at n = 256 a 4096-interaction
// window is 16n, so the state it starts from says little about the
// window, and the chain never competes there.
//
// The jump chain pays a roughly constant cost per active transition
// (exponential gap, thinning uniform, class picks, three tree updates of
// depth log2 k), so it is priced at that cost times the active fraction.
constexpr double kJumpNsPerTransition = 40.0;
constexpr double kJumpNsPerTreeLevel = 5.5;
/// The label walk pays per interaction one word for its pair and two label
/// loads; an adopt (probability L·A / n(n−1)) adds the stores and a
/// mispredicted branch, and a same-colour dark pair (probability
/// Σ A_i(A_i − 1) / n(n−1)) adds the fade test and its coin; the
/// labelling pass costs a little per agent per window.
constexpr double kWalkNsPerInteraction = 6.2;
constexpr double kWalkNsPerAdopt = 26.0;
constexpr double kWalkNsPerSameDarkPair = 8.0;
constexpr double kWalkNsPerAgent = 0.5;
/// The collision chain pays a per-batch cost over the expected
/// collision-free stretch E[ℓ] = √(πn/8), clamped by the window.  A batch
/// walks the dark colours for its candidate pairs and its adopters' new
/// colours, in index order until the draws run out, so its cost grows
/// with the effective number of dark colours D = A² / Σ A_i² (13.3 on the
/// balanced k = 16 state, about 1 when one colour holds most dark
/// agents), plus a little per colour for the O(k) passes.
constexpr double kChainNsPerBatch = 380.0;
constexpr double kChainNsPerColor = 27.0;
constexpr double kChainNsPerDarkColor = 250.0;
/// Before auto has measured a window, its active fraction is the
/// single-step probability, which can sit far from the window's own
/// fraction: 1.7× above it on the sweep's adversarial starts at n <= 1024
/// (one window of up to 4n interactions), and 1.2× below it on an
/// all-dark start whose dominant colour has weight 4.  So an unmeasured
/// auto window leaves the jump chain only for a path priced below this
/// fraction of the jump chain's cost.
constexpr double kUnmeasuredSwitchRatio = 0.5;
/// The walk's label array holds one uint16 per agent (colour << 1 | light),
/// so it serves at most 2^15 colours, and it is capped at 2^20 agents
/// (2 MiB of scratch) — far above any n where it beats the chain.
constexpr std::int64_t kLabelWalkMaxPopulation = std::int64_t{1} << 20;
constexpr std::int64_t kLabelWalkMaxColors = std::int64_t{1} << 15;
/// Per-window EWMA decay of the measured active-transition fraction:
/// new_estimate = (1 − λ)·old + λ·measured with λ = 0.5, so a regime
/// change (an adversary event, a phase transition) is absorbed within a
/// couple of windows while single-window noise is halved.
constexpr double kAutoEwmaDecay = 0.5;
/// Windows shorter than this contribute nothing to the EWMA: a handful
/// of interactions (event splitting can produce 1-interaction windows)
/// measures a fraction of essentially 0 or 1 and would whipsaw the
/// estimate — and the engine choice for such a window is irrelevant
/// anyway.
constexpr std::int64_t kAutoEwmaMinWindow = 256;
constexpr double kPiOver8 = 0.39269908169872414;
/// The jump chain's rate slack s: candidate steps run at p̄ = min(1, s·p)
/// and p̄ is re-derived when p leaves [p̄/s², p̄].  At s = 9/8 at most
/// 1 − 1/s² ≈ 21% of candidates are thinned away; on the tagged k = 32,
/// n = 5000 fairness run 11% were, with ~1.04 derivations per call.
constexpr double kRateSlack = 9.0 / 8.0;

/// Predicted ns per interaction of each exact path over one window.
struct PathCosts {
  double jump = 0.0;
  double walk = 0.0;  ///< +inf above the walk's population or palette cap
  double chain = 0.0;
};

/// The window cost model (see the constants above): a pure function of
/// the population, the dark counts, the window length and the active
/// fraction that prices the jump chain.
PathCosts predict_path_costs(std::int64_t n, std::span<const std::int64_t> dark,
                             std::int64_t total_dark, std::int64_t window,
                             double active_fraction) noexcept {
  const auto k = static_cast<double>(dark.size());
  const double pairs = static_cast<double>(n) * static_cast<double>(n - 1);
  const auto a = static_cast<double>(total_dark);
  double square_sum = 0.0;  // Σ A_i²
  for (const std::int64_t d : dark)
    square_sum += static_cast<double>(d) * static_cast<double>(d);
  PathCosts cost;
  cost.jump = (kJumpNsPerTransition + kJumpNsPerTreeLevel * std::log2(k)) *
              active_fraction;
  cost.walk = std::numeric_limits<double>::infinity();
  if (n <= kLabelWalkMaxPopulation &&
      static_cast<std::int64_t>(dark.size()) <= kLabelWalkMaxColors) {
    const double adopt = (static_cast<double>(n) - a) * a / pairs;
    const double same_dark = (square_sum - a) / pairs;
    cost.walk = kWalkNsPerInteraction + kWalkNsPerAdopt * adopt +
                kWalkNsPerSameDarkPair * same_dark +
                kWalkNsPerAgent * static_cast<double>(n) /
                    static_cast<double>(window);
  }
  const double dark_colors = square_sum > 0.0 ? a * a / square_sum : 0.0;
  const double stretch =
      std::min(std::sqrt(kPiOver8 * static_cast<double>(n)),
               static_cast<double>(window));
  cost.chain = (kChainNsPerBatch + kChainNsPerColor * k +
                kChainNsPerDarkColor * dark_colors) /
               stretch;
  return cost;
}

/// The label walk's agent array: scratch, rebuilt from the counts at the
/// start of every walked window, so it is no part of any simulation's
/// value (copies and checkpoints never see it).  One per thread, at most
/// kLabelWalkMaxPopulation entries.
thread_local std::vector<std::uint16_t> t_labels;

}  // namespace

CountSimulation::ClassPick CountSimulation::pick_class(
    rng::Xoshiro256& gen, std::int64_t total, const ClassPick* excluded) const {
  // Single uniform draw over the eligible agents, mapped dark-block-first.
  std::int64_t target = rng::uniform_below(gen, total);
  // The same mapping as a linear scan, found in O(log k) by tree descent.
  const std::int64_t ex_dark =
      (excluded != nullptr && excluded->dark) ? excluded->color : -1;
  const std::int64_t dark_avail = total_dark_ - (ex_dark >= 0 ? 1 : 0);
  if (target < dark_avail)
    return {true,
            static_cast<ColorId>(dark_tree_.find_excluding(target, ex_dark))};
  target -= dark_avail;
  const std::int64_t ex_light =
      (excluded != nullptr && !excluded->dark) ? excluded->color : -1;
  const std::int64_t light_avail = total_light() - (ex_light >= 0 ? 1 : 0);
  if (target >= light_avail)
    throw std::logic_error("CountSimulation::pick_class: inconsistent totals");
  return {false,
          static_cast<ColorId>(light_tree_.find_excluding(target, ex_light))};
}

void CountSimulation::on_dark_changed(std::size_t i) noexcept {
  const std::int64_t d = dark_[i];
  flip_tree_.set(static_cast<std::int64_t>(i),
                 static_cast<double>(d) * static_cast<double>(d - 1) *
                     inv_weight_[i]);
}

void CountSimulation::apply_adopt(ColorId from, ColorId to) noexcept {
  const auto f = static_cast<std::size_t>(from);
  const auto t = static_cast<std::size_t>(to);
  // The adopting light initiator always lives in the counts, so a
  // violation means a sampler or tree descent returned an out-of-support
  // category.  (No check on dark_[to]: under the tagged hold-out the
  // responder may be the excluded tagged agent, whose cell reads 0.)
  SIM_ASSERT(light_[f] >= 1);
  ++active_transitions_;
  --light_[f];
  light_tree_.add(from, -1);
  ++dark_[t];
  dark_tree_.add(to, +1);
  if (dark_[t] == 2) ++dark_ge2_;
  on_dark_changed(t);
  ++total_dark_;
}

void CountSimulation::apply_fade(ColorId i) noexcept {
  const auto c = static_cast<std::size_t>(i);
  // The fading dark agent always lives in the counts (its pair partner
  // may be the held-out tagged agent, so >= 2 would over-assert).
  SIM_ASSERT(dark_[c] >= 1);
  ++active_transitions_;
  --dark_[c];
  dark_tree_.add(i, -1);
  if (dark_[c] == 1) --dark_ge2_;
  on_dark_changed(c);
  ++light_[c];
  light_tree_.add(i, +1);
  --total_dark_;
}

void CountSimulation::shift_agent(ColorId i, bool dark_shade,
                                  std::int64_t delta) noexcept {
  const auto c = static_cast<std::size_t>(i);
  n_ += delta;
  if (dark_shade) {
    const bool had_two = dark_[c] >= 2;
    dark_[c] += delta;
    dark_tree_.add(i, delta);
    total_dark_ += delta;
    dark_ge2_ += (dark_[c] >= 2 ? 1 : 0) - (had_two ? 1 : 0);
    on_dark_changed(c);
  } else {
    light_[c] += delta;
    light_tree_.add(i, delta);
  }
  SIM_IF_CHECKED(check_invariants());
}

CountStepOutcome CountSimulation::step(rng::Xoshiro256& gen) {
  const ClassPick initiator = pick_class(gen, n_, nullptr);
  const ClassPick responder = pick_class(gen, n_ - 1, &initiator);
  CountStepOutcome outcome;
  if (!initiator.dark && responder.dark) {
    apply_adopt(initiator.color, responder.color);
    outcome = {Transition::kAdopt, initiator.color, responder.color};
  } else if (initiator.dark && responder.dark &&
             initiator.color == responder.color) {
    const double w = weights_.weight(initiator.color);
    if (rng::bernoulli(gen, 1.0 / w)) {
      apply_fade(initiator.color);
      outcome = {Transition::kFade, initiator.color, initiator.color};
    }
  }
  ++time_;
  return outcome;
}

void CountSimulation::advance_with(Engine engine, std::int64_t target_time,
                                   rng::Xoshiro256& gen) {
  if (target_time < time_)
    throw std::invalid_argument("advance_with: target time is in the past");
  drive(engine, target_time, gen);
}

std::int64_t CountSimulation::schedule_event(std::int64_t when,
                                             EventAction action) {
  if (when < time_)
    throw std::invalid_argument(
        "schedule_event: event time is in the past");
  if (!action)
    throw std::invalid_argument("schedule_event: empty action");
  const std::int64_t handle = next_event_handle_++;
  // Insert keeping (time, registration order) — the vector stays small
  // (an adversary script), so linear insertion is fine.
  auto it = pending_events_.end();
  while (it != pending_events_.begin() && std::prev(it)->time > when) --it;
  pending_events_.insert(it, PendingEvent{when, handle, std::move(action)});
  return handle;
}

std::vector<std::pair<std::int64_t, std::int64_t>>
CountSimulation::pending_event_schedule() const {
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  out.reserve(pending_events_.size());
  for (const PendingEvent& event : pending_events_)
    out.emplace_back(event.time, event.handle);
  return out;
}

bool CountSimulation::rebind_scheduled_event(std::int64_t handle,
                                             EventAction action) {
  if (!action)
    throw std::invalid_argument("rebind_scheduled_event: empty action");
  for (PendingEvent& event : pending_events_) {
    if (event.handle == handle) {
      event.action = std::move(action);
      return true;
    }
  }
  return false;
}

void CountSimulation::canonicalize() { rebuild_derived(); }

void CountSimulation::set_sampler_context(
    std::shared_ptr<const context::SamplerContext> context) {
  if (context != nullptr && !(context->weights() == weights_))
    throw std::invalid_argument(
        "set_sampler_context: context palette does not match the "
        "simulation's");
  sampler_context_ = std::move(context);
  // Rebuilt lazily on the next batched window, from the context when one
  // is attached.  The batcher holds no trajectory state (per-window
  // scratch plus a deterministic table), so dropping it changes nothing
  // observable.
  batcher_.reset();
}

bool CountSimulation::cancel_scheduled_event(std::int64_t handle) noexcept {
  for (auto it = pending_events_.begin(); it != pending_events_.end(); ++it) {
    if (it->handle == handle) {
      pending_events_.erase(it);
      return true;
    }
  }
  return false;
}

void CountSimulation::drive(Engine engine, std::int64_t target_time,
                            rng::Xoshiro256& gen) {
  SIM_IF_CHECKED(check_invariants());
  while (!pending_events_.empty() &&
         pending_events_.front().time <= target_time) {
    PendingEvent event = std::move(pending_events_.front());
    pending_events_.erase(pending_events_.begin());
    if (event.time < time_)
      throw std::invalid_argument(
          "drive: a scheduled event's time has already passed (was the "
          "simulation advanced with bare step() calls?)");
    if (event.time > time_) advance_core(engine, event.time, gen);
    // Window/event alignment: every engine must stop exactly at the
    // event's interaction index — a batch that overshoots would apply
    // interactions the event was scheduled to precede.
    SIM_DCHECK_EQ(time_, event.time);
    event.action(*this);
  }
  if (time_ < target_time) advance_core(engine, target_time, gen);
  SIM_DCHECK_EQ(time_, target_time);
  SIM_IF_CHECKED(check_invariants());
}

void CountSimulation::advance_core(Engine engine, std::int64_t target_time,
                                   rng::Xoshiro256& gen) {
  switch (engine) {
    case Engine::kStep: step_to(target_time, gen); return;
    case Engine::kJump: jump_to(target_time, gen); return;
    case Engine::kBatch:
      run_path(window_path(engine, target_time - time_), target_time, gen);
      return;
    case Engine::kAuto: auto_to(target_time, gen); return;
  }
  throw std::logic_error("advance_core: unknown engine");
}

void CountSimulation::run_path(WindowPath path, std::int64_t target_time,
                               rng::Xoshiro256& gen) {
  switch (path) {
    case WindowPath::kJump: jump_to(target_time, gen); return;
    case WindowPath::kLabelWalk: run_label_walk(target_time, gen); return;
    case WindowPath::kCollisionChain:
      run_collision_chain(target_time, gen);
      return;
  }
  throw std::logic_error("run_path: unknown path");
}

void CountSimulation::step_to(std::int64_t target_time,
                              rng::Xoshiro256& gen) {
  while (time_ < target_time) (void)step(gen);
}

void CountSimulation::jump_to(std::int64_t target_time,
                              rng::Xoshiro256& gen) {
  const double denom = static_cast<double>(n_) * static_cast<double>(n_ - 1);
  // Uniformisation: candidate steps arrive at a cached rate p̄ >= p
  // (here as the candidate weight p̄·denom), each accepted with
  // probability p/p̄, so every step is active with probability p exactly.
  // p̄ = min(1, s·p) is re-derived only when p leaves [p̄/s², p̄], which
  // makes the log1p in λ̄ a per-regime cost, not a per-transition one.
  // p̄ lives in this call only: a window boundary resets it, so a run
  // resumed at a boundary replays the same draws.
  double candidate_weight = 0.0;  // p̄·denom; 0 forces the first derivation
  double lambda = 0.0;            // −log1p(−p̄), read only while p̄ < 1
  while (time_ < target_time) {
    // Absorption is decided on exact integers (an adopt needs a light and
    // a dark agent; a fade needs two same-colour dark agents) so rounding
    // in the propensities can never mis-detect it at huge n.
    if (is_absorbed()) {
      time_ = target_time;
      return;
    }
    // Propensities are maintained incrementally: the adopt weight is a
    // product of running totals and the flip total is the tree's root —
    // no O(k) rebuild per active transition.  Not absorbed means an adopt
    // pair or a positive flip leaf, so the weight is positive.
    const auto adopt_weight = static_cast<double>(total_light()) *
                              static_cast<double>(total_dark_);
    const double weight = adopt_weight + flip_tree_.total();
    SIM_ASSERT(weight > 0.0);
    if (weight > candidate_weight ||
        weight * (kRateSlack * kRateSlack) < candidate_weight) {
      candidate_weight = std::min(kRateSlack * weight, denom);
      if (candidate_weight < denom)
        lambda = -std::log1p(-candidate_weight / denom);
    }
    // Candidates until one is accepted.  The gap before each is
    // geometric(p̄), drawn as ⌊E/λ̄⌋ (none when p̄ == 1: every step is a
    // candidate); by memorylessness we may stop at the window edge
    // without bias, and the negated test also stops on the inf or NaN of
    // a λ̄ that underflowed to 0.  One uniform both thins the candidate
    // and, scaled to the candidate weight, picks which transition fired.
    double pick = 0.0;
    for (;;) {
      if (candidate_weight < denom) {
        const double gap = rng::exponential(gen) / lambda;
        if (!(gap < static_cast<double>(target_time - time_))) {
          time_ = target_time;
          return;
        }
        time_ += static_cast<std::int64_t>(gap);
      }
      pick = rng::uniform01(gen) * candidate_weight;
      if (pick < weight) break;
      // A rejected candidate is a no-op step.
      if (++time_ == target_time) return;
    }
    // A branch is only eligible when its exact integer precondition
    // holds; the propensity draw decides between them when both are live.
    const bool do_adopt =
        total_light() > 0 && (dark_ge2_ == 0 || pick < adopt_weight);
    if (do_adopt) {
      const auto from =
          static_cast<ColorId>(light_tree_.find(
              rng::uniform_below(gen, total_light())));
      const auto to = static_cast<ColorId>(
          dark_tree_.find(rng::uniform_below(gen, total_dark_)));
      apply_adopt(from, to);
    } else {
      const auto faded = static_cast<ColorId>(
          flip_tree_.find(std::max(pick - adopt_weight, 0.0)));
      apply_fade(faded);
    }
    ++time_;
  }
}

void CountSimulation::run_collision_chain(std::int64_t target_time,
                                          rng::Xoshiro256& gen) {
  if (!batcher_.has_value() || batcher_->num_colors() != num_colors()) {
    if (sampler_context_ != nullptr &&
        sampler_context_->weights() == weights_) {
      batcher_.emplace(sampler_context_);
    } else {
      batcher_.emplace(weights_);
    }
  }
  // One window of collision batches; the batcher decides absorption on
  // exact integers before every batch and never overruns the window
  // (event alignment in drive() depends on this).
  batcher_->run_window(dark_, light_, target_time - time_, gen);
  const batch::CollisionBatcher::Outcome& out = batcher_->last_outcome();
  SIM_DCHECK_EQ(out.interactions, target_time - time_);
  time_ = target_time;
  active_transitions_ += out.adopts + out.fades;
  rebuild_derived();
}

void CountSimulation::run_label_walk(std::int64_t target_time,
                                     rng::Xoshiro256& gen) {
  // Absorbed: every further interaction is a no-op, decided without a
  // draw, like the chain's per-batch test.
  if (is_absorbed()) {
    time_ = target_time;
    return;
  }
  // The scheduler itself over one label per agent, colour << 1 | light:
  // the dark block, then the light block.  Any fixed order will do — the
  // scheduler picks uniformly — but it must be a function of the counts
  // alone so the window's draws replay.
  std::vector<std::uint16_t>& labels = t_labels;
  labels.clear();
  for (std::size_t c = 0; c < dark_.size(); ++c)
    labels.insert(labels.end(), static_cast<std::size_t>(dark_[c]),
                  static_cast<std::uint16_t>(c << 1));
  for (std::size_t c = 0; c < light_.size(); ++c)
    labels.insert(labels.end(), static_cast<std::size_t>(light_[c]),
                  static_cast<std::uint16_t>(c << 1 | 1U));
  std::uint16_t* const agent = labels.data();
  std::int64_t* const dark = dark_.data();
  std::int64_t* const light = light_.data();
  const double* const inv_weight = inv_weight_.data();
  const std::int64_t n = n_;
  std::int64_t active = 0;
  for (std::int64_t t = time_; t < target_time; ++t) {
    // A uniform ordered pair of distinct agents, from one word.
    const auto [a, b] = rng::two_distinct_32(gen, n);
    const unsigned initiator = agent[a];
    const unsigned responder = agent[b];
    if ((initiator & 1U) > (responder & 1U)) {
      // Light initiator, dark responder: adopt the responder's colour.
      agent[a] = static_cast<std::uint16_t>(responder);
      --light[initiator >> 1];
      ++dark[responder >> 1];
      ++active;
    } else if (initiator == responder && (initiator & 1U) == 0 &&
               rng::bernoulli(gen, inv_weight[initiator >> 1])) {
      // Two dark agents of one colour: the initiator fades at rate 1/w.
      agent[a] = static_cast<std::uint16_t>(initiator | 1U);
      --dark[initiator >> 1];
      ++light[initiator >> 1];
      ++active;
    }
  }
  time_ = target_time;
  active_transitions_ += active;
  SIM_IF_CHECKED({
    // The labels and the counts moved in lockstep: the labels' class
    // histogram is exactly dark_/light_, and it covers all n agents.
    std::vector<std::int64_t> dark_seen(dark_.size(), 0);
    std::vector<std::int64_t> light_seen(light_.size(), 0);
    for (const std::uint16_t label : labels)
      ++((label & 1U) != 0 ? light_seen : dark_seen)[label >> 1];
    SIM_DCHECK_EQ(static_cast<std::int64_t>(labels.size()), n_);
    for (std::size_t c = 0; c < dark_.size(); ++c) {
      SIM_DCHECK_EQ(dark_seen[c], dark_[c]);
      SIM_DCHECK_EQ(light_seen[c], light_[c]);
    }
  });
  rebuild_derived();
}

double CountSimulation::active_fraction_estimate() const noexcept {
  return active_ewma_ >= 0.0 ? active_ewma_ : active_probability();
}

WindowPath CountSimulation::window_path(Engine engine,
                                        std::int64_t window) const {
  switch (engine) {
    case Engine::kStep:
      throw std::invalid_argument(
          "window_path: Engine::kStep steps; it has no window paths");
    case Engine::kJump: return WindowPath::kJump;
    case Engine::kBatch:
    case Engine::kAuto: break;
  }
  const PathCosts cost = predict_path_costs(
      n_, dark_, total_dark_, window, active_fraction_estimate());
  const double switch_ratio = active_ewma_ < 0.0 ? kUnmeasuredSwitchRatio : 1.0;
  if (engine == Engine::kAuto &&
      switch_ratio * cost.jump <= std::min(cost.walk, cost.chain))
    return WindowPath::kJump;
  return cost.walk < cost.chain ? WindowPath::kLabelWalk
                                : WindowPath::kCollisionChain;
}

void CountSimulation::auto_to(std::int64_t target_time,
                              rng::Xoshiro256& gen) {
  const std::int64_t window = target_time - time_;
  const std::int64_t before = active_transitions_;
  run_path(window_path(Engine::kAuto, window), target_time, gen);
  if (window < kAutoEwmaMinWindow) return;  // too noisy to learn from
  const double measured =
      static_cast<double>(active_transitions_ - before) /
      static_cast<double>(window);
  active_ewma_ = active_ewma_ < 0.0
                     ? measured
                     : (1.0 - kAutoEwmaDecay) * active_ewma_ +
                           kAutoEwmaDecay * measured;
}

void CountSimulation::add_agents(ColorId i, std::int64_t count,
                                 bool dark_shade) {
  if (i < 0 || i >= num_colors())
    throw std::out_of_range("add_agents: colour out of range");
  if (count < 0) throw std::invalid_argument("add_agents: negative count");
  if (dark_shade) {
    dark_[static_cast<std::size_t>(i)] += count;
  } else {
    light_[static_cast<std::size_t>(i)] += count;
  }
  n_ += count;
  rebuild_derived();
}

void CountSimulation::add_color(double weight, std::int64_t dark_count) {
  if (dark_count < 1)
    throw std::invalid_argument(
        "add_color: new colours must join with at least one dark agent "
        "(paper sustainability requirement)");
  weights_ = weights_.with_color(weight);
  dark_.push_back(dark_count);
  light_.push_back(0);
  n_ += dark_count;
  // The palette outgrew any attached shared context; drop it so the
  // batch engine rebuilds private layouts for the new palette.
  sampler_context_.reset();
  rebuild_derived();
}

void CountSimulation::recolor_all(ColorId victim, ColorId heir) {
  if (victim < 0 || victim >= num_colors() || heir < 0 ||
      heir >= num_colors())
    throw std::out_of_range("recolor_all: colour out of range");
  if (victim == heir)
    throw std::invalid_argument("recolor_all: victim == heir");
  dark_[static_cast<std::size_t>(heir)] +=
      dark_[static_cast<std::size_t>(victim)];
  light_[static_cast<std::size_t>(heir)] +=
      light_[static_cast<std::size_t>(victim)];
  dark_[static_cast<std::size_t>(victim)] = 0;
  light_[static_cast<std::size_t>(victim)] = 0;
  rebuild_derived();
}

void CountSimulation::transfer(ColorId from, ColorId to,
                               std::int64_t dark_moved,
                               std::int64_t light_moved) {
  if (from < 0 || from >= num_colors() || to < 0 || to >= num_colors())
    throw std::out_of_range("transfer: colour out of range");
  if (from == to) throw std::invalid_argument("transfer: from == to");
  if (dark_moved < 0 || light_moved < 0)
    throw std::invalid_argument("transfer: negative move counts");
  if (dark_moved > dark_[static_cast<std::size_t>(from)] ||
      light_moved > light_[static_cast<std::size_t>(from)])
    throw std::invalid_argument("transfer: not enough agents to move");
  dark_[static_cast<std::size_t>(from)] -= dark_moved;
  dark_[static_cast<std::size_t>(to)] += dark_moved;
  light_[static_cast<std::size_t>(from)] -= light_moved;
  light_[static_cast<std::size_t>(to)] += light_moved;
  rebuild_derived();
}

TaggedCountSimulation::TaggedCountSimulation(CountSimulation sim,
                                             ColorId tagged_color,
                                             bool tagged_dark)
    : sim_(std::move(sim)),
      tagged_{tagged_color, tagged_dark ? kDark : kLight} {
  const std::int64_t pool = tagged_dark ? sim_.dark(tagged_color)
                                        : sim_.light(tagged_color);
  if (pool < 1)
    throw std::invalid_argument(
        "TaggedCountSimulation: no agent with the requested state to tag");
}

void TaggedCountSimulation::step(rng::Xoshiro256& gen) {
  const std::int64_t n = sim_.n_;
  const CountSimulation::ClassPick self{tagged_.is_dark(), tagged_.color};
  if (rng::uniform_below(gen, n) == 0) {
    // The tagged agent is the scheduled initiator.
    const CountSimulation::ClassPick responder =
        sim_.pick_class(gen, n - 1, &self);
    if (!self.dark && responder.dark) {
      sim_.apply_adopt(self.color, responder.color);
      tagged_ = AgentState{responder.color, kDark};
    } else if (self.dark && responder.dark && self.color == responder.color) {
      if (rng::bernoulli(gen, 1.0 / sim_.weights_.weight(self.color))) {
        sim_.apply_fade(self.color);
        tagged_.shade = kLight;
      }
    }
  } else {
    // Another agent is scheduled; it may observe the tagged agent, but a
    // one-way rule never mutates the responder, so only counts move.
    const CountSimulation::ClassPick initiator =
        sim_.pick_class(gen, n - 1, &self);
    const CountSimulation::ClassPick responder =
        sim_.pick_class(gen, n - 1, &initiator);
    if (!initiator.dark && responder.dark) {
      sim_.apply_adopt(initiator.color, responder.color);
    } else if (initiator.dark && responder.dark &&
               initiator.color == responder.color) {
      if (rng::bernoulli(gen, 1.0 / sim_.weights_.weight(initiator.color))) {
        sim_.apply_fade(initiator.color);
      }
    }
  }
  ++sim_.time_;
}

void TaggedCountSimulation::advance_with(Engine engine,
                                         std::int64_t target_time,
                                         rng::Xoshiro256& gen) {
  advance(engine, target_time, gen, nullptr);
}

void TaggedCountSimulation::run_changes(Engine engine,
                                        std::int64_t target_time,
                                        rng::Xoshiro256& gen,
                                        const ChangeObserver& on_change) {
  if (!on_change)
    throw std::invalid_argument(
        "TaggedCountSimulation::run_changes: empty observer");
  advance(engine, target_time, gen, &on_change);
}

void TaggedCountSimulation::advance(Engine engine, std::int64_t target_time,
                                    rng::Xoshiro256& gen,
                                    const ChangeObserver* on_change) {
  if (target_time < sim_.time_)
    throw std::invalid_argument(
        "TaggedCountSimulation: target time is in the past");
  if (engine == Engine::kStep) {
    run_steps(target_time, gen, on_change);
  } else {
    run_decomposed(engine, target_time, gen, on_change);
  }
}

void TaggedCountSimulation::run_steps(std::int64_t target_time,
                                      rng::Xoshiro256& gen,
                                      const ChangeObserver* on_change) {
  while (sim_.time_ < target_time) {
    const AgentState before = tagged_;
    const std::int64_t pre_step = sim_.time_;
    step(gen);
    if (on_change != nullptr && !(tagged_ == before))
      (*on_change)(pre_step, tagged_);
  }
}

void TaggedCountSimulation::run_decomposed(Engine engine,
                                           std::int64_t target_time,
                                           rng::Xoshiro256& gen,
                                           const ChangeObserver* on_change) {
  // Hold the tagged agent out of the lumped counts for the whole run:
  // conditioned on the involvement positions drawn below, every other
  // interaction is a uniform ordered pair of the remaining n − 1 agents —
  // a standard lumped chain `engine` advances at full speed, which by
  // construction can never relocate the tagged agent (the run-scope form
  // of step()'s counts-minus-tagged initiator draw).
  const std::int64_t n = sim_.n_;
  // min(2²², n·2¹⁶), without overflow at any n.
  const std::int64_t max_chunk =
      std::min(n, kTaggedInvolvementChunk >> 16) << 16;
  // The tagged agent's own cell must still hold it (used-set ⊆ support):
  // anything else means the hold-out bookkeeping leaked.
  SIM_ASSERT((tagged_.is_dark() ? sim_.dark(tagged_.color)
                                : sim_.light(tagged_.color)) >= 1);
  sim_.shift_agent(tagged_.color, tagged_.is_dark(), -1);
  // Re-seat the agent under its *current* state (it may have changed
  // colour or shade at an involvement position) on every exit, an
  // observer's exception included.
  struct Reseat {
    TaggedCountSimulation& self;
    ~Reseat() {
      self.sim_.shift_agent(self.tagged_.color, self.tagged_.is_dark(), +1);
    }
  };
  const Reseat reseat{*this};
  while (sim_.time_ < target_time) {
    const std::int64_t chunk =
        std::min(target_time - sim_.time_, max_chunk);
    const std::int64_t chunk_start = sim_.time_;
    batch::CollisionBatcher::draw_tagged_involvement(gen, n, chunk,
                                                     involvement_);
    SIM_IF_CHECKED({
      // Involvement positions: strictly increasing, inside the chunk.
      for (std::size_t p = 0; p < involvement_.size(); ++p) {
        SIM_DCHECK_GE(involvement_[p], 0);
        SIM_DCHECK(involvement_[p] < chunk);
        if (p > 0) SIM_DCHECK(involvement_[p - 1] < involvement_[p]);
      }
    });
    for (const std::int64_t pos : involvement_) {
      const std::int64_t when = chunk_start + pos;
      if (sim_.time_ < when) sim_.advance_core(engine, when, gen);
      resolve_tagged_interaction(gen, on_change);
    }
    if (sim_.time_ < chunk_start + chunk)
      sim_.advance_core(engine, chunk_start + chunk, gen);
  }
}

void TaggedCountSimulation::resolve_tagged_interaction(
    rng::Xoshiro256& gen, const ChangeObserver* on_change) {
  // Conditioned on involvement the tagged agent is the initiator or the
  // responder with probability 1/2 each (the two 1/n events are disjoint
  // and equally likely), and the partner is uniform over the other n − 1
  // agents — one plain class pick from the held-out counts.
  const bool tagged_initiator = rng::bernoulli(gen, 0.5);
  const CountSimulation::ClassPick partner =
      sim_.pick_class(gen, sim_.n_, nullptr);
  bool changed = false;
  if (tagged_initiator) {
    if (!tagged_.is_dark() && partner.dark) {
      tagged_ = AgentState{partner.color, kDark};
      changed = true;
    } else if (tagged_.is_dark() && partner.dark &&
               tagged_.color == partner.color) {
      if (rng::bernoulli(gen, 1.0 / sim_.weights_.weight(tagged_.color))) {
        tagged_.shade = kLight;
        changed = true;
      }
    }
    if (changed) ++sim_.active_transitions_;
  } else {
    // One-way rules never mutate the responder: only the partner and the
    // held-out counts can move.
    if (!partner.dark && tagged_.is_dark()) {
      sim_.apply_adopt(partner.color, tagged_.color);
    } else if (partner.dark && tagged_.is_dark() &&
               partner.color == tagged_.color) {
      if (rng::bernoulli(gen, 1.0 / sim_.weights_.weight(partner.color))) {
        sim_.apply_fade(partner.color);
      }
    }
  }
  // The interaction is applied in full before the observer runs, so an
  // observer that throws leaves time() equal to the applied interactions.
  const std::int64_t pre_step = sim_.time_++;
  if (changed && on_change != nullptr) (*on_change)(pre_step, tagged_);
}

}  // namespace divpp::core
