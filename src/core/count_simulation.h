#ifndef DIVPP_CORE_COUNT_SIMULATION_H
#define DIVPP_CORE_COUNT_SIMULATION_H

/// \file count_simulation.h
/// Exact lumped simulation of the Diversification protocol on the
/// complete graph.
///
/// On K_n the agents are exchangeable, so the process
/// ξ(t) = (A_1..A_k, a_1..a_k) of per-colour dark/light counts (paper §2)
/// is itself a Markov chain.  Simulating ξ directly costs O(k) per step
/// and O(k) memory — independent of n — which is what makes the paper's
/// n-scaling experiments tractable.
///
/// step() takes one time-step, no-ops included.  Every longer run is
/// advance_with(engine, target, gen), and its four engines are
/// distributionally identical:
///  * Engine::kStep  — step() until the target;
///  * Engine::kJump  — the "jump chain": skips the geometric runs of no-op
///    steps between state changes and applies one active transition at
///    the end of each.  It is uniformised: candidate steps come at a
///    cached rate p̄ >= p (gaps ⌊E/λ̄⌋ with E from rng::exponential and
///    λ̄ = −log1p(−p̄) re-derived only when p leaves [p̄/s², p̄]), and one
///    uniform per candidate both thins it to rate p and picks the
///    transition.  Near equilibrium only a Θ(1/W) fraction of steps are
///    active, so this is several times faster for long windows;
///  * Engine::kBatch — per window, the cheaper of two exact paths: a walk
///    of the scheduler over agent labels, or collision batches
///    (batch/collision_batch.h);
///  * Engine::kAuto  — per window, the cheapest of the jump chain, the
///    label walk and the collision chain.
/// One cost model prices the three paths (CountSimulation::window_path).
///
/// The step and jump engines run on the sum-tree samplers of
/// sampling/fenwick.h: class and flip-propensity draws cost O(log k) per
/// transition, and the adopt/flip propensities are maintained by
/// O(log k) point updates instead of an O(k) rebuild per active
/// transition — the standard kinetic-Monte-Carlo organisation, which is
/// what makes large-k sweeps (E17) tractable.
///
/// TaggedCountSimulation additionally carries one distinguished agent
/// through the lumped dynamics (exactly — see the class comment), which
/// gives fairness trajectories at count-simulation cost.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "batch/collision_batch.h"
#include "core/agent.h"
#include "core/diversification.h"
#include "core/weights.h"
#include "rng/xoshiro.h"
#include "sampling/fenwick.h"

namespace divpp::context {
class SamplerContext;
}  // namespace divpp::context

namespace divpp::core {

/// Outcome of one lumped step (for trackers and tests).
struct CountStepOutcome {
  Transition transition = Transition::kNoOp;
  ColorId from = -1;  ///< adopt: colour losing a light agent; fade: colour fading
  ColorId to = -1;    ///< adopt: colour gaining a dark agent; fade: == from
};

/// The distributionally identical engines of the lumped chain, one per
/// advance_with call.  Their RNG draw *sequences* differ (see the README
/// reproducibility note).
enum class Engine {
  /// Plain per-interaction stepping: step() until the target.
  kStep,
  /// The jump chain (see the file comment): skips no-op stretches in O(1)
  /// each.  The candidate rate p̄ is local to the call, so splitting a
  /// window at the same boundaries replays the same draws.
  kJump,
  /// The batch engine: each window runs whichever of two exact paths the
  /// window cost model (CountSimulation::window_path) prices lower — the
  /// collision chain (batch/collision_batch.h), which applies whole
  /// collision-free stretches of interactions in aggregate at amortised
  /// sub-constant work per interaction for large n, or the label walk,
  /// which walks the scheduler over one label per agent (n <= 2^20,
  /// k <= 2^15) at one 64-bit word per interaction for its ordered pair
  /// plus a coin for a same-colour dark pair of weight above 1.
  kBatch,
  /// Auto-adaptive: treats the call as one window and runs the cheapest
  /// of the jump chain, the label walk and the collision chain under the
  /// same cost model, then folds the window's measured active fraction
  /// into the EWMA that prices the jump chain.  It consumes exactly the
  /// RNG stream of the path it runs, so it is as exact as they are.
  kAuto,
};

/// The exact paths a window of Engine::kBatch or Engine::kAuto can take.
enum class WindowPath {
  /// The jump chain, Engine::kJump's own path.
  kJump,
  /// The uniform scheduler walked over one label per agent.
  kLabelWalk,
  /// Collision batches (batch/collision_batch.h).
  kCollisionChain,
};

/// Parses "step" / "jump" / "batch" / "auto" (bench --engine flags).
/// \throws std::invalid_argument naming the valid set on anything else.
[[nodiscard]] Engine parse_engine(const std::string& name);

/// The flag spelling of an engine (tables, JSON summaries).
[[nodiscard]] const char* engine_name(Engine engine);

/// Lumped (count-level) simulation of the Diversification protocol on the
/// complete graph K_n.
class CountSimulation {
 public:
  /// Starts from explicit per-colour dark/light counts.
  /// \throws std::invalid_argument on negative counts, size mismatch with
  /// the palette, or a population of fewer than two agents.
  CountSimulation(WeightMap weights, std::vector<std::int64_t> dark,
                  std::vector<std::int64_t> light);

  /// All-dark start with supports proportional to the fair shares
  /// (rounding remainders assigned greedily) — a "nice" start.
  [[nodiscard]] static CountSimulation proportional_start(WeightMap weights,
                                                          std::int64_t n);

  /// All-dark start with one agent on each colour except colour 0, which
  /// holds everyone else — the adversarial start that exercises Phase 1
  /// ("the rise of the minorities").  \pre n >= num_colors + 1.
  [[nodiscard]] static CountSimulation adversarial_start(WeightMap weights,
                                                         std::int64_t n);

  /// All-dark start with equal supports (n/k each, remainder to colour 0).
  [[nodiscard]] static CountSimulation equal_start(WeightMap weights,
                                                   std::int64_t n);

  // ---- observers -------------------------------------------------------

  [[nodiscard]] std::int64_t n() const noexcept { return n_; }
  [[nodiscard]] std::int64_t num_colors() const noexcept {
    return weights_.num_colors();
  }
  [[nodiscard]] std::int64_t time() const noexcept { return time_; }
  [[nodiscard]] const WeightMap& weights() const noexcept { return weights_; }

  /// Dark count A_i(t).
  [[nodiscard]] std::int64_t dark(ColorId i) const;
  /// Light count a_i(t).
  [[nodiscard]] std::int64_t light(ColorId i) const;
  /// Support C_i(t) = A_i + a_i.
  [[nodiscard]] std::int64_t support(ColorId i) const;
  [[nodiscard]] std::span<const std::int64_t> dark_counts() const noexcept {
    return dark_;
  }
  [[nodiscard]] std::span<const std::int64_t> light_counts() const noexcept {
    return light_;
  }
  /// All supports C_i.
  [[nodiscard]] std::vector<std::int64_t> supports() const;
  /// A(t) = Σ A_i.
  [[nodiscard]] std::int64_t total_dark() const noexcept { return total_dark_; }
  /// a(t) = Σ a_i.
  [[nodiscard]] std::int64_t total_light() const noexcept {
    return n_ - total_dark_;
  }
  /// Sustainability observable: the smallest per-colour dark count.
  /// O(k): a scan of the dark counts, computed on demand because callers
  /// read it only at window boundaries, never per transition.
  [[nodiscard]] std::int64_t min_dark() const noexcept;

  /// Probability that the *next* step changes the state (used by the jump
  /// chain and the auto engine's cold-start estimate; exposed for tests).
  [[nodiscard]] double active_probability() const noexcept;

  /// Total adopt + fade transitions applied since construction, by any
  /// engine.  The auto engine differences this across a window to
  /// measure the realised active-transition fraction.
  [[nodiscard]] std::int64_t active_transitions() const noexcept {
    return active_transitions_;
  }

  /// The auto engine's current active-fraction estimate: an EWMA (decay
  /// kAutoEwmaDecay per window) of measured window fractions, or the
  /// exact single-step active_probability() before any window has been
  /// measured.  Exposed for tests and diagnostics.
  [[nodiscard]] double active_fraction_estimate() const noexcept;

  // ---- dynamics --------------------------------------------------------

  /// The path advance_with(engine, time() + window) takes when no event
  /// falls inside the window: kJump for Engine::kJump, the cheaper of the
  /// label walk and the collision chain for Engine::kBatch, and the
  /// cheapest of all three for Engine::kAuto.  A pure function of n, k,
  /// the window, the counts and the auto engine's active-fraction
  /// estimate — all of which a v2 checkpoint restores — so a resumed run
  /// makes the same choices.  Before its first measured window, auto
  /// leaves the jump chain only for a path priced below half the jump
  /// chain's cost (the single-step probability it prices it at until
  /// then can be far from the window's own active fraction).
  /// \pre window >= 1.
  /// \throws std::invalid_argument for Engine::kStep, which has no paths.
  [[nodiscard]] WindowPath window_path(Engine engine,
                                       std::int64_t window) const;

  /// Executes exactly one time-step (possibly a no-op).
  CountStepOutcome step(rng::Xoshiro256& gen);

  /// Advances until time() == target_time with `engine`, firing every
  /// scheduled event on the way.
  /// \throws std::invalid_argument when target_time < time().
  void advance_with(Engine engine, std::int64_t target_time,
                    rng::Xoshiro256& gen);

  // ---- scheduled events (adversary API) --------------------------------

  /// Callback fired when the simulation clock reaches its scheduled
  /// interaction index.
  using EventAction = std::function<void(CountSimulation&)>;

  /// Schedules `action` to run when time() == `when`, from inside
  /// advance_with: the driving engine splits its window at the event
  /// time automatically, so callers no longer hand-split batched windows
  /// around adversary events.  Events fire in time order (ties in
  /// registration order), exactly once, after `when` interactions have
  /// been applied and before interaction `when` + 1.  The action may
  /// mutate the simulation structurally (add_agents / add_color / ...)
  /// but must not re-enter advance_with.  Returns a handle for
  /// cancel_scheduled_event.
  /// \pre when >= time().
  std::int64_t schedule_event(std::int64_t when, EventAction action);

  /// Number of scheduled events that have not fired yet.
  [[nodiscard]] std::int64_t pending_event_count() const noexcept {
    return static_cast<std::int64_t>(pending_events_.size());
  }

  /// Removes one not-yet-fired event by the handle schedule_event
  /// returned; returns whether it was still pending.  Drivers that
  /// registered a script (adversary::Schedule::run) cancel *their own*
  /// remaining events when an event action throws, leaving events other
  /// callers scheduled untouched.
  bool cancel_scheduled_event(std::int64_t handle) noexcept;

  /// (time, handle) of every pending event in firing order.  A v2
  /// checkpoint (core/checkpoint.h) serialises exactly this: actions are
  /// code and cannot cross a process boundary, so a resumed run must
  /// re-attach them by handle (rebind_scheduled_event).
  [[nodiscard]] std::vector<std::pair<std::int64_t, std::int64_t>>
  pending_event_schedule() const;

  /// Re-attaches the action of a pending event — the second half of a v2
  /// resume, whose restored events hold placeholder actions that throw
  /// std::logic_error if they fire unrebound.  Also replaces the action
  /// of an ordinary pending event.  Returns false when no pending event
  /// has this handle.  \throws std::invalid_argument on an empty action.
  bool rebind_scheduled_event(std::int64_t handle, EventAction action);

  /// Attaches a shared sampler context (context/sampler_context.h): the
  /// batch engine then borrows the context's eager run-length tables and
  /// propensity layouts instead of building private ones — bit-identical
  /// (the tables are pure deterministic functions of (n, w)), so a
  /// sweep can hand one context to thousands of scenarios.  Passing a
  /// context whose palette differs from the simulation's throws
  /// std::invalid_argument; nullptr detaches.  A later add_color drops
  /// the context automatically (the palette outgrew it) and the batch
  /// engine falls back to private tables.
  void set_sampler_context(
      std::shared_ptr<const context::SamplerContext> context);

  /// The attached shared context, or nullptr when running solo.
  [[nodiscard]] const std::shared_ptr<const context::SamplerContext>&
  sampler_context() const noexcept {
    return sampler_context_;
  }

  /// Rebuilds every derived sampling structure (sum trees, flip
  /// propensities, cached totals) from the raw counts.  Checkpoint
  /// canonicalisation point: a v2 restore starts from freshly rebuilt
  /// derived state, so a resumable driver (runtime/durable_runner.h)
  /// canonicalises at every checkpoint boundary — an uninterrupted run
  /// and a killed-and-resumed run then start each window from the same
  /// derived state, which is what makes resume bit-identical rather than
  /// merely distributionally identical.  The sum trees are pure
  /// functions of their leaves, so today this reproduces them exactly;
  /// the call stays at the boundaries so derived state added later
  /// cannot break the contract silently.  Consumes no RNG draws and
  /// changes no counts, clock, or estimates.
  void canonicalize();

  // ---- structural changes (adversary API) ------------------------------

  /// Adds `count` agents of colour i (dark when `dark_shade`).
  void add_agents(ColorId i, std::int64_t count, bool dark_shade);

  /// Adds a brand-new colour with `weight`, supported by `dark_count`
  /// fresh dark agents (the paper's robustness scenario: new colours join
  /// dark).  \pre weight >= 1, dark_count >= 1.
  void add_color(double weight, std::int64_t dark_count);

  /// Recolours every agent of colour `victim` to colour `heir` keeping
  /// shades (the paper's "external agent recolours all red agents blue").
  /// The palette keeps the victim colour; its support drops to zero,
  /// deliberately breaking sustainability *from outside* the protocol.
  void recolor_all(ColorId victim, ColorId heir);

  /// Moves `dark_moved` dark and `light_moved` light agents from colour
  /// `from` to colour `to`, preserving shades and the population size.
  /// \pre enough agents of each shade on `from`.
  void transfer(ColorId from, ColorId to, std::int64_t dark_moved,
                std::int64_t light_moved);

 private:
  friend class TaggedCountSimulation;
  /// The v2 checkpoint layer's accessor (defined in checkpoint.cpp): it
  /// round-trips the clock, the auto-engine EWMA, the transition
  /// counter, and the pending-event schedule.
  friend struct CheckpointAccess;

  void validate() const;
  /// Full O(k) invariant walk (SIM_CHECKED builds only; compiled to an
  /// empty body otherwise and never called from release paths): count
  /// conservation Σ(dark + light) == n, non-negativity, total_dark_ /
  /// dark_ge2_ / sum-tree leaf consistency, flip propensities exact, every
  /// tree node the exact sum of its children, event queue sorted and not
  /// in the past.  Called from window boundaries (drive) and every
  /// structural rebuild — not per step, so checked runs stay within ~2×
  /// wall-clock.
  void check_invariants() const;
  /// Rebuilds every derived structure (trees, propensities, counters)
  /// from dark_/light_ in O(k) — constructor and structural mutators.
  void rebuild_derived();
  /// Engine cores without event awareness; advance_with wraps them in
  /// drive(), which splits at pending event times.
  void step_to(std::int64_t target_time, rng::Xoshiro256& gen);
  void jump_to(std::int64_t target_time, rng::Xoshiro256& gen);
  /// The collision chain over one window.
  void run_collision_chain(std::int64_t target_time, rng::Xoshiro256& gen);
  /// The uniform scheduler itself, walked over one label per agent (exact
  /// by construction).
  void run_label_walk(std::int64_t target_time, rng::Xoshiro256& gen);
  /// Runs one window on `path`.
  void run_path(WindowPath path, std::int64_t target_time,
                rng::Xoshiro256& gen);
  /// Engine::kAuto: run_path on window_path's pick, then the EWMA update.
  void auto_to(std::int64_t target_time, rng::Xoshiro256& gen);
  /// Advances to target_time with `engine`, firing every scheduled event
  /// at exactly its interaction index (each split segment is its own
  /// window for the auto engine).
  void drive(Engine engine, std::int64_t target_time, rng::Xoshiro256& gen);
  void advance_core(Engine engine, std::int64_t target_time,
                    rng::Xoshiro256& gen);
  void apply_adopt(ColorId from, ColorId to) noexcept;
  void apply_fade(ColorId i) noexcept;
  /// Updates the dark-count derived state after dark_[i] changed by ±1.
  void on_dark_changed(std::size_t i) noexcept;
  /// Adds (delta = +1) or removes (−1) one agent of colour i and the
  /// given shade, n included, with O(log k) updates of every derived
  /// structure — the tagged chain's hold-out and re-seat.
  void shift_agent(ColorId i, bool dark_shade, std::int64_t delta) noexcept;
  /// Exact absorption test on integers, immune to rounding: an adopt
  /// needs a light initiator AND a dark responder; a fade needs a colour
  /// with two dark agents.
  [[nodiscard]] bool is_absorbed() const noexcept {
    return dark_ge2_ == 0 && (total_light() == 0 || total_dark_ == 0);
  }
  /// Samples (class is dark?, colour) of the initiator/responder.
  struct ClassPick {
    bool dark = false;
    ColorId color = 0;
  };
  [[nodiscard]] ClassPick pick_class(rng::Xoshiro256& gen,
                                     std::int64_t total,
                                     const ClassPick* excluded) const;

  WeightMap weights_;
  std::vector<std::int64_t> dark_;
  std::vector<std::int64_t> light_;
  std::int64_t n_ = 0;
  std::int64_t total_dark_ = 0;
  std::int64_t time_ = 0;
  // Derived sampling state, kept in lockstep with dark_/light_:
  sampling::FenwickCounts dark_tree_;       // class draws over dark counts
  sampling::FenwickCounts light_tree_;      // class draws over light counts
  sampling::FenwickPropensities flip_tree_; // f_i = A_i (A_i - 1) / w_i
  std::vector<double> inv_weight_;          // 1 / w_i
  std::int64_t dark_ge2_ = 0;               // #colours with dark_[i] >= 2
  std::int64_t active_transitions_ = 0;  // adopt + fade count, any engine
  /// EWMA of measured per-window active fractions (< 0 until the first
  /// auto window completes).
  double active_ewma_ = -1.0;
  /// Scheduled events sorted by time (ties keep registration order).
  struct PendingEvent {
    std::int64_t time = 0;
    std::int64_t handle = 0;
    EventAction action;
  };
  std::vector<PendingEvent> pending_events_;
  std::int64_t next_event_handle_ = 0;
  /// Lazily built by the batch engine and kept across calls so windowed
  /// drivers (advance_with per check_every chunk) reuse the batcher's
  /// O(√n) run-length table instead of rebuilding it per window.
  /// Invalidated when the palette grows (add_color).
  std::optional<batch::CollisionBatcher> batcher_;
  /// Shared immutable sampler state (set_sampler_context); nullptr when
  /// running solo.  Copies of the simulation share it (it is immutable).
  std::shared_ptr<const context::SamplerContext> sampler_context_;
};

/// CountSimulation plus one distinguished ("tagged") agent carried through
/// the lumped dynamics *exactly*:
///
///  * with probability 1/n the tagged agent is the scheduled initiator —
///    its responder class is drawn from the counts minus itself and the
///    rule is applied to its own state;
///  * otherwise the initiator is drawn from the counts minus the tagged
///    agent, so a lumped transition never relocates the tagged agent.
///
/// This yields the tagged agent's exact (colour, shade) trajectory — the
/// object Section 2.4 approximates with the Markov chain M — while the
/// population is simulated at O(k) per step.  Engine::kStep runs exactly
/// that, one step() per interaction.
///
/// The jump, batch and auto engines run the joint chain at the same
/// amortised speed as the untagged engines, at every n >= 2, through a
/// decomposition that is exact: each interaction picks the tagged agent as
/// initiator with probability 1/n and as responder with probability 1/n,
/// i.i.d. across interactions and independently of every other draw, so
/// over a window of ℓ interactions the tagged agent's interactions are a
/// Binomial(ℓ, 2/n) count at uniformly random positions
/// (batch::CollisionBatcher::draw_tagged_involvement).  Conditioned on
/// those positions, every other interaction is a uniform ordered pair of
/// the *remaining* n − 1 agents — a standard lumped chain on the counts
/// minus the tagged agent, which the untagged engines advance at full
/// speed — and at each tagged position the partner is one plain class
/// pick from those counts, with the rule applied exactly (the tagged
/// agent adopts from the current lumped counts and fades at its 1/w_i
/// rate).  At n = 2 every interaction involves the tagged agent, and the
/// held-out chain of one agent never moves.
class TaggedCountSimulation {
 public:
  /// Tags one agent of colour `tagged_color` with shade `tagged_dark`.
  /// \pre the corresponding count in `sim` is >= 1.
  TaggedCountSimulation(CountSimulation sim, ColorId tagged_color,
                        bool tagged_dark);

  /// One time-step of the joint (counts, tagged) chain.
  void step(rng::Xoshiro256& gen);

  /// Runs until time() == target_time, invoking
  /// observer(time_before_step, tagged_state) before every step.
  template <typename Observer>
  void run_observed(std::int64_t target_time, rng::Xoshiro256& gen,
                    Observer&& observer) {
    while (sim_.time() < target_time) {
      observer(sim_.time(), tagged_);
      step(gen);
    }
  }

  // ---- engine runs ---------------------------------------------------

  /// Advances the joint chain to target_time with the chosen engine.
  /// All four engines are distributionally identical on the joint
  /// (tagged colour, tagged shade, counts) law: tests/test_tagged_batch.cpp
  /// and, exactly at n = 6, tests/test_count_simulation.cpp.  The RNG
  /// draw *sequence* differs between kStep and the decomposed engines
  /// (README reproducibility note).  kAuto delegates each segment between
  /// the tagged agent's interactions to jump or batch through the
  /// underlying cost model.  Scheduled events on the wrapped simulation
  /// are not fired (same contract as step()).
  /// \throws std::invalid_argument when target_time < time().
  void advance_with(Engine engine, std::int64_t target_time,
                    rng::Xoshiro256& gen);

  /// Called at every tagged-agent state change with the time-step index
  /// at which `new_state` takes effect (the pre-step clock of the
  /// changing interaction — the same convention as StepEvent::time, so
  /// analysis::FairnessTracker::observe_change consumes it directly).
  using ChangeObserver = std::function<void(std::int64_t, AgentState)>;

  /// Advances to target_time with `engine`, invoking `on_change` exactly
  /// once per tagged state change — the aggregate-observer counterpart of
  /// run_observed: a whole stretch between changes books as one segment,
  /// so fairness accounting costs O(changes), not O(interactions).
  void run_changes(Engine engine, std::int64_t target_time,
                   rng::Xoshiro256& gen, const ChangeObserver& on_change);

  [[nodiscard]] const CountSimulation& counts() const noexcept { return sim_; }
  [[nodiscard]] AgentState tagged_state() const noexcept { return tagged_; }
  [[nodiscard]] std::int64_t time() const noexcept { return sim_.time(); }

  /// CountSimulation::canonicalize on the wrapped counts — the same
  /// checkpoint-boundary alignment contract, for the tagged chain.
  void canonicalize() { sim_.canonicalize(); }

 private:
  /// advance_with and run_changes: checks the target, then runs kStep
  /// through run_steps and every other engine through run_decomposed.
  void advance(Engine engine, std::int64_t target_time,
               rng::Xoshiro256& gen, const ChangeObserver* on_change);
  /// The kStep engine, a plain step() loop: the reference the tagged law
  /// tests compare the decomposed engines against.
  void run_steps(std::int64_t target_time, rng::Xoshiro256& gen,
                 const ChangeObserver* on_change);
  /// The Binomial-involvement decomposition driving kJump/kBatch/kAuto.
  void run_decomposed(Engine engine, std::int64_t target_time,
                      rng::Xoshiro256& gen, const ChangeObserver* on_change);
  /// Resolves one interaction known to involve the tagged agent
  /// (counts currently exclude it); advances the clock by one, then
  /// notifies `on_change` if the tagged state changed.
  void resolve_tagged_interaction(rng::Xoshiro256& gen,
                                  const ChangeObserver* on_change);

  CountSimulation sim_;
  AgentState tagged_{};
  /// Scratch for draw_tagged_involvement (kept across windows).
  std::vector<std::int64_t> involvement_;
};

}  // namespace divpp::core

#endif  // DIVPP_CORE_COUNT_SIMULATION_H
