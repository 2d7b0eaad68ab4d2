#ifndef DIVPP_BATCH_COLLISION_BATCH_H
#define DIVPP_BATCH_COLLISION_BATCH_H

/// \file collision_batch.h
/// The collision-batch engine: sub-constant amortised time per
/// interaction on the lumped Diversification chain.
///
/// Technique (Berenbrink et al., "Simulating Population Protocols in
/// Sub-Constant Time per Interaction"): run the scheduler until an agent
/// is picked that already took part since the last collision.  While no
/// agent repeats, the 2ℓ agents of ℓ consecutive interactions are
/// *distinct*, so no interaction observes the effect of another — the
/// whole stretch commutes and can be applied to the count state in
/// aggregate:
///
///   1. the collision-free run length ℓ is a birthday-problem variable
///      with survival  P(ℓ >= j) = n! / (n-2j)! / (n(n-1))^j,
///      drawn from a cached alias table of the survival increments
///      (RunLengthTable — O(√n) build per population size, O(1) per
///      draw);
///   2. the 2ℓ distinct participants are a uniform ordered sample
///      without replacement, so the shade total, the initiator/responder
///      slot split, and the light-initiator/dark-responder (adopt) match
///      count of the uniform slot pairing are three hypergeometric
///      draws; the adopting light colours and adopted dark colours are
///      then multivariate-hypergeometric splits *directly off the
///      population counts* (a uniform subset of a uniform subset is a
///      uniform subset — the full participant compositions are never
///      materialised);
///   3. a dark–dark pair fades only when it is monochromatic AND clears
///      the rate 1/w_i, which factors into a colour-blind first stage at
///      p_max = max_j 1/w_j and a per-colour remainder — so the fade
///      *candidates* are one Binomial(dd, p_max) draw and only candidate
///      pairs get their colours resolved (one multivariate-
///      hypergeometric for the members of a uniform sub-matching);
///      their same-colour pair counts come from an O(k) chain of
///      slot-occupancy draws (rng::full_pairs) instead of an O(k²)
///      contingency table, and the surviving monochromatic candidates
///      fade after the second-stage thinning (free when weights are
///      equal);
///   4. the interaction that *caused* the collision touches the used set
///      and is resolved as a single exact step: participants whose
///      colours were integrated out in step 2 are materialised *lazily*
///      (at most two agents), by exchangeability of sampling without
///      replacement, so resolving the collision stays O(k) while the
///      batch chain stays 3k draws shorter per batch than the PR-3
///      formulation.
///
/// Per batch the engine spends O(k) counting draws, each O(1) expected
/// time (HRUA rejection above the variance cutoff, short chop-down walks
/// below — rng/discrete.h); a batch covers ℓ = Θ(√n) interactions in
/// expectation, so the amortised cost per interaction is O(k / √n),
/// vanishing as n grows with k fixed.  This is what makes n = 10⁷–10⁹
/// sweeps tractable (bench e20_batch, BENCH_pr4.json).  The fixed cost
/// per batch also means that at small n, where a batch covers only
/// ~10–80 interactions, the chain loses to walking the scheduler
/// directly: CountSimulation::run_batched hands it only the windows its
/// cost rule gives it (a pure function of n, k and the window length)
/// and walks agent labels for the rest.
///
/// Distributional contract: a run assembled from these batches has
/// *exactly* the law of the single-step chain.  Tests drive advance()
/// directly, so the pins hold whatever run_batched picks: per-window
/// count distributions against step() at n = 2000
/// (tests/test_batch.cpp), the exact pmf of the dense lumped chain at
/// n = 6 (tests/test_count_simulation.cpp), and a golden draw stream at
/// n = 20000 (tests/test_check.cpp).
/// The RNG draw sequence necessarily differs from both step() and the
/// jump chain — the README's reproducibility note applies.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/weights.h"
#include "rng/xoshiro.h"
#include "sampling/alias.h"

namespace divpp::context {
class SamplerContext;
}  // namespace divpp::context

namespace divpp::batch {

/// Samples the collision-free run length ℓ >= 1 for a population of n
/// agents: the number of complete interactions before the first repeated
/// agent, i.e. the largest j with "all 2j agents distinct", drawn from
///   P(ℓ >= j) = n! / ((n-2j)! · (n(n-1))^j)
/// by inversion (O(ℓ) exact log1p walk for small n, O(log n) binary
/// search on the Stirling-form log-survival for large n).  The batcher
/// itself uses the cached RunLengthTable below; this free function is
/// the table-free reference.
/// \pre n >= 2.  The result never exceeds floor(n/2).
[[nodiscard]] std::int64_t collision_free_run_length(rng::Xoshiro256& gen,
                                                     std::int64_t n);

/// Cached exact sampler for the collision-free run length at a fixed n:
/// survival values S(j) computed by the defining product recurrence down
/// to below the smallest uniform the generator can produce, their
/// increments loaded into a Walker/Vose alias table — so a draw is O(1)
/// (PR 4; previously a binary search) and distributionally identical to
/// the reference sampler up to the same sub-2⁻⁵³ tail lumping the
/// inversion already performed.  Build cost O(√n) once.
class RunLengthTable {
 public:
  explicit RunLengthTable(std::int64_t n);

  /// One run-length draw in O(1) (one alias-table draw).
  [[nodiscard]] std::int64_t sample(rng::Xoshiro256& gen) const;

  [[nodiscard]] std::int64_t population() const noexcept { return n_; }

  /// Heap footprint of the backing alias table (shared-context cache
  /// accounting — context/sampler_context.h).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return table_.has_value() ? table_->memory_bytes() : 0;
  }

 private:
  std::int64_t n_ = 0;
  std::optional<sampling::AliasTable> table_;  ///< masses S(j) − S(j+1)
};

/// Applies collision batches to a lumped Diversification configuration.
///
/// Value-semantic over a palette; owns only O(k) scratch plus the O(√n)
/// run-length table (rebuilt when the population size changes).  The
/// counts are borrowed per call, so one batcher can serve many
/// configurations with the same palette.
///
/// Since PR 8 the immutable per-palette state (propensity layouts) and
/// the per-population run-length tables live in a
/// context::SamplerContext.  The solo constructor builds a private
/// layout-only context (bit-identical to the pre-PR-8 private members);
/// the shared constructor borrows a cached context, whose eager tables
/// replace the private run_table_ whenever the population matches —
/// table contents are pure deterministic functions of n, so shared and
/// private runs consume identical draw sequences.
class CollisionBatcher {
 public:
  explicit CollisionBatcher(const core::WeightMap& weights);

  /// Shares `context`'s layouts and eager run-length tables.  Copies of
  /// the batcher share the context (it is immutable).  \pre non-null.
  explicit CollisionBatcher(
      std::shared_ptr<const context::SamplerContext> context);

  /// Advances the configuration by at most `budget` interactions: one
  /// collision batch, truncated to the budget, plus the collision
  /// interaction itself when it falls inside the budget.  Returns the
  /// number of interactions consumed (>= 1 when budget >= 1).
  ///
  /// `dark`/`light` are mutated in place; totals are *not* maintained for
  /// the caller (sum the spans or track the return value).
  /// \pre spans sized k = num_colors(); budget >= 1; n = Σ counts >= 2.
  std::int64_t advance(std::span<std::int64_t> dark,
                       std::span<std::int64_t> light, std::int64_t budget,
                       rng::Xoshiro256& gen);

  /// Exclude-one-agent entry of the draw chain: advances the
  /// configuration as advance() does, but with one distinguished agent
  /// (shade `excluded_dark`, colour `excluded_color`) held out of every
  /// participant draw — the batch runs on the counts minus that agent, so
  /// no interaction of the stretch can relocate it.  This is the
  /// count-level conditional law behind the batched tagged engine
  /// (core::TaggedCountSimulation): conditioned on the tagged agent not
  /// taking part in a stretch, the stretch is a plain collision batch of
  /// the remaining n − 1 agents — mirroring the step-mode rule that draws
  /// the initiator from the counts minus the tagged agent.
  /// The excluded cell is restored before returning, so the spans keep
  /// the full population.  \pre the excluded cell's count >= 1; the
  /// population minus the excluded agent still has >= 2 agents.
  std::int64_t advance_excluding(std::span<std::int64_t> dark,
                                 std::span<std::int64_t> light,
                                 core::ColorId excluded_color,
                                 bool excluded_dark, std::int64_t budget,
                                 rng::Xoshiro256& gen);

  /// Tagged-involvement law (public test hook; PR 5).  Each interaction
  /// of the scheduler picks a fixed agent as initiator with probability
  /// 1/n and as responder with probability 1/n — disjoint events, i.i.d.
  /// across interactions and independent of everything else drawn.  Over
  /// a window of `window` interactions the number of interactions that
  /// touch the tagged agent is therefore *exactly* Binomial(window, 2/n),
  /// and given the count the touched interaction indices are a uniform
  /// random subset (uniform order statistics).  Fills `positions` with
  /// the touched indices, strictly increasing, each in [0, window).
  /// O(m log m) for m drawn positions (Floyd's subset sampling + sort).
  /// \pre n >= 2, window >= 0.
  static void draw_tagged_involvement(rng::Xoshiro256& gen, std::int64_t n,
                                      std::int64_t window,
                                      std::vector<std::int64_t>& positions);

  /// The aggregate outcome of the most recent advance(): how many
  /// interactions it consumed and how many of them changed the state.
  struct Outcome {
    std::int64_t interactions = 0;  ///< consumed, == advance()'s return
    std::int64_t adopts = 0;        ///< adopt transitions applied
    std::int64_t fades = 0;         ///< fade transitions applied
  };
  [[nodiscard]] const Outcome& last_outcome() const noexcept {
    return outcome_;
  }

  [[nodiscard]] std::int64_t num_colors() const noexcept { return k_; }

 private:
  /// Applies `len` collision-free interactions in aggregate and records
  /// the used-set bookkeeping (known-colour groups + lazy rest pools)
  /// for the collision step.
  void apply_batch(std::span<std::int64_t> dark,
                   std::span<std::int64_t> light, std::int64_t n,
                   std::int64_t len, rng::Xoshiro256& gen);

  /// Resolves the single interaction that caused the collision (at least
  /// one participant from the used set of the preceding batch),
  /// materialising the colour of any participant the batch chain
  /// integrated out — an exact sequential draw from the rest pools.
  void collision_step(std::span<std::int64_t> dark,
                      std::span<std::int64_t> light, std::int64_t n,
                      std::int64_t used, rng::Xoshiro256& gen);

  /// Immutable palette state: 1/w_i, p_max of the two-stage fade
  /// thinning, (1/w_i)/p_max (exactly 1 at the max), and any eager
  /// run-length tables.  Private layout-only for the solo constructor,
  /// a shared cache entry otherwise — never null.
  std::shared_ptr<const context::SamplerContext> context_;
  std::int64_t k_ = 0;  // context_->num_colors(), cached for the header
  Outcome outcome_;
  /// Private table for populations the context has no eager table for
  /// (layout-only context, or a population that drifted from the
  /// context's n).
  std::optional<RunLengthTable> run_table_;

  // Scratch, all of size k (resized once in the constructor):
  std::vector<std::int64_t> adopt_in_, adopt_out_;
  std::vector<std::int64_t> pair_members_;  // dd-pair member colours
  std::vector<std::int64_t> diag_;          // monochromatic dd pairs
  /// Used agents whose post-batch colour is already determined by the
  /// margins: 2·adopt_in_ + pair_members_ − fades on the dark side; the
  /// light side's knowns are exactly the faded agents.
  std::vector<std::int64_t> known_dark_, known_light_;
  /// Colour pools of the agents whose colours the batch chain never
  /// drew: rest_dark_pool_ = dark − adopt_in_ − pair_members_ holds both
  /// the used "rest" dark participants and every untouched dark agent
  /// (likewise light); collision_step draws colours from these pools
  /// sequentially — exact by exchangeability.
  std::vector<std::int64_t> rest_dark_pool_, rest_light_pool_;
  // Scalar split of the rest pools between used and untouched, set by
  // apply_batch and consumed (mutated) by collision_step:
  std::int64_t rest_dark_used_ = 0;   // used dark agents with lazy colour
  std::int64_t rest_light_used_ = 0;  // used light agents with lazy colour
  std::int64_t rest_dark_total_ = 0;  // Σ rest_dark_pool_
  std::int64_t rest_light_total_ = 0; // Σ rest_light_pool_
};

}  // namespace divpp::batch

#endif  // DIVPP_BATCH_COLLISION_BATCH_H
