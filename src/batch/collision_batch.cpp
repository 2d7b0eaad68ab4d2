#include "batch/collision_batch.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "check/counting_generator.h"
#include "check/invariant.h"
#include "context/sampler_context.h"
#include "rng/discrete.h"
#include "rng/distributions.h"

namespace divpp::batch {

namespace {

/// Populations below this size sample the run length by the exact O(ℓ)
/// log1p walk; above it the closed Stirling form is accurate to ~1e-15
/// everywhere the survival is representable, and a binary search costs
/// O(log n).  Tune freely — both paths are exact.
constexpr std::int64_t kRunLengthWalkCutoff = 65536;

/// draw_tagged_involvement's set of picks: an open-addressing table of
/// window positions (−1 marks an empty slot).  Scratch, one per thread,
/// kept across calls so a warm call allocates nothing.
thread_local std::vector<std::int64_t> t_picked;

/// log P(no collision in the first j interactions) for n agents:
///   log S(j) = lgamma(n+1) - lgamma(n-2j+1) - j·log(n(n-1)),
/// evaluated in the cancellation-free Stirling form
///   -j·log1p(-1/n) - (m+1/2)·log1p(-2j/n) - 2j
///      + (1/12)(1/n - 1/m) - (1/360)(1/n³ - 1/m³),    m = n - 2j.
/// The naive lgamma difference loses ~9 digits at n = 1e8; this form
/// keeps absolute error ~1e-15 wherever S(j) >= DBL_MIN.  For m < 64 the
/// true value is far below log(DBL_MIN) ≈ -745 whenever n is large
/// enough to take this path, so a sentinel is exact for every
/// representable uniform.
double log_survival(std::int64_t n, std::int64_t j) {
  const std::int64_t m = n - 2 * j;
  if (m < 64) return -1e18;
  const double dn = static_cast<double>(n);
  const double dm = static_cast<double>(m);
  const double dj = static_cast<double>(j);
  const double inv_n = 1.0 / dn;
  const double inv_m = 1.0 / dm;
  return -dj * std::log1p(-inv_n) -
         (dm + 0.5) * std::log1p(-2.0 * dj / dn) - 2.0 * dj +
         (1.0 / 12.0) * (inv_n - inv_m) -
         (1.0 / 360.0) * (inv_n * inv_n * inv_n - inv_m * inv_m * inv_m);
}

}  // namespace

std::int64_t collision_free_run_length(rng::Xoshiro256& gen,
                                       std::int64_t n) {
  if (n < 2)
    throw std::invalid_argument("collision_free_run_length: need n >= 2");
  const double u = 1.0 - rng::uniform01(gen);  // in (0, 1]
  const double log_u = std::log(u);            // <= 0
  const std::int64_t j_max = n / 2;
  // ℓ = max{ j : log S(j) >= log u }; S(1) = 1 guarantees ℓ >= 1.
  if (n < kRunLengthWalkCutoff) {
    // Exact incremental walk over the per-interaction survival factors
    //   S(j+1)/S(j) = (1 - 2j/n)(1 - 2j/(n-1)).
    const double dn = static_cast<double>(n);
    double acc = 0.0;
    std::int64_t j = 1;  // acc == log S(1) == 0
    while (j < j_max) {
      const double t = 2.0 * static_cast<double>(j);
      acc += std::log1p(-t / dn) + std::log1p(-t / (dn - 1.0));
      if (acc < log_u) break;
      ++j;
    }
    return j;
  }
  std::int64_t lo = 1;  // log S(lo) >= log_u invariant
  std::int64_t hi = j_max;
  if (log_survival(n, hi) >= log_u) return hi;
  while (hi - lo > 1) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (log_survival(n, mid) >= log_u) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

RunLengthTable::RunLengthTable(std::int64_t n) : n_(n) {
  if (n < 2)
    throw std::invalid_argument("RunLengthTable: need n >= 2");
  // S(j) by the defining product, tabulated until it drops below the
  // smallest uniform an inversion could draw (2^-53), so the lumped
  // tail mass is unobservable at double precision: ~4.3·√n entries.
  constexpr double kFloor = 0x1.0p-54;
  const double dn = static_cast<double>(n);
  const std::int64_t j_max = n / 2;
  std::vector<double> survival;  // survival[j-1] = S(j), j >= 1
  survival.reserve(static_cast<std::size_t>(
      std::min<std::int64_t>(j_max, 8 + 5 * static_cast<std::int64_t>(
                                            std::sqrt(dn)))));
  double s = 1.0;  // S(1)
  survival.push_back(s);
  for (std::int64_t j = 1; j < j_max && s >= kFloor; ++j) {
    const double t = 2.0 * static_cast<double>(j);
    s *= (1.0 - t / dn) * (1.0 - t / (dn - 1.0));
    survival.push_back(s);  // S(j + 1)
  }
  // P(ℓ = j) = S(j) − S(j+1); the final entry keeps its full survival so
  // the masses sum to S(1) = 1 (when the table is truncated this lumps
  // the sub-2^-54 tail onto the last representable length, exactly as
  // the inversion's bounded uniform did).
  std::vector<double> mass(survival.size());
  for (std::size_t j = 0; j + 1 < survival.size(); ++j)
    mass[j] = survival[j] - survival[j + 1];
  mass.back() = survival.back();
  table_.emplace(mass);
}

std::int64_t RunLengthTable::sample(rng::Xoshiro256& gen) const {
  return table_->sample(gen) + 1;  // slot j-1 holds P(ℓ = j)
}

void LightLedger::open(std::span<const std::int64_t> light) {
  old_.assign(light.begin(), light.end());
  fresh_.assign(light.size(), 0);
  scratch_.resize(light.size());
  old_total_ = std::accumulate(light.begin(), light.end(), std::int64_t{0});
  pending_ = 0;
  fresh_total_ = 0;
  SIM_IF_CHECKED(check());
}

void LightLedger::remove_uniform(rng::Xoshiro256& gen, std::int64_t count) {
  SIM_DCHECK_LE(count, total());
  std::int64_t from_fresh = 0;
  if (fresh_total_ > 0 && count > 0) {
    from_fresh = rng::hypergeometric(gen, total(), fresh_total_, count);
    rng::multivariate_hypergeometric(gen, fresh_, from_fresh, scratch_);
    for (std::size_t i = 0; i < fresh_.size(); ++i) fresh_[i] -= scratch_[i];
    fresh_total_ -= from_fresh;
  }
  pending_ += count - from_fresh;
  SIM_IF_CHECKED(check());
}

void LightLedger::add(std::span<const std::int64_t> added) {
  for (std::size_t i = 0; i < fresh_.size(); ++i) {
    fresh_[i] += added[i];
    fresh_total_ += added[i];
  }
  SIM_IF_CHECKED(check());
}

void LightLedger::flush(rng::Xoshiro256& gen) {
  if (pending_ > 0) {
    rng::multivariate_hypergeometric(gen, old_, pending_, scratch_);
    for (std::size_t i = 0; i < old_.size(); ++i) old_[i] -= scratch_[i];
  }
  for (std::size_t i = 0; i < old_.size(); ++i) {
    old_[i] += fresh_[i];
    fresh_[i] = 0;
  }
  old_total_ += fresh_total_ - pending_;
  pending_ = 0;
  fresh_total_ = 0;
  SIM_IF_CHECKED(check());
}

void LightLedger::close(rng::Xoshiro256& gen, std::span<std::int64_t> light) {
  flush(gen);
  std::copy(old_.begin(), old_.end(), light.begin());
}

void LightLedger::check() const {
  std::int64_t old_sum = 0;
  std::int64_t fresh_sum = 0;
  for (std::size_t i = 0; i < old_.size(); ++i) {
    SIM_DCHECK_GE(old_[i], 0);
    SIM_DCHECK_GE(fresh_[i], 0);
    old_sum += old_[i];
    fresh_sum += fresh_[i];
  }
  SIM_DCHECK_EQ(old_sum, old_total_);
  SIM_DCHECK_EQ(fresh_sum, fresh_total_);
  SIM_DCHECK_GE(pending_, 0);
  SIM_DCHECK_LE(pending_, old_total_);
}

CollisionBatcher::CollisionBatcher(const core::WeightMap& weights)
    // A private layout-only context: the same layout arithmetic as every
    // shared context (context/sampler_context.cpp), with run-length
    // tables built per population on demand — bit-identical to the
    // pre-PR-8 private members.
    : CollisionBatcher(
          std::make_shared<const context::SamplerContext>(weights)) {}

CollisionBatcher::CollisionBatcher(
    std::shared_ptr<const context::SamplerContext> context)
    : context_(std::move(context)) {
  if (context_ == nullptr)
    throw std::invalid_argument("CollisionBatcher: null sampler context");
  k_ = context_->num_colors();
  const auto k = static_cast<std::size_t>(k_);
  for (auto* v : {&adopt_in_, &pair_members_, &mono_, &faded_, &known_dark_,
                  &known_light_, &rest_dark_pool_})
    v->assign(k, 0);
}

std::int64_t CollisionBatcher::validate(std::span<const std::int64_t> dark,
                                        std::span<const std::int64_t> light,
                                        std::int64_t budget) const {
  const auto k = static_cast<std::size_t>(k_);
  if (dark.size() != k || light.size() != k)
    throw std::invalid_argument("CollisionBatcher: span size mismatch");
  if (budget < 1)
    throw std::invalid_argument("CollisionBatcher: budget must be >= 1");
  return std::accumulate(dark.begin(), dark.end(), std::int64_t{0}) +
         std::accumulate(light.begin(), light.end(), std::int64_t{0});
}

const RunLengthTable& CollisionBatcher::run_length_table(std::int64_t n) {
  // Eager shared table when the context has one for this population,
  // else the private on-demand table — identical contents either way
  // (RunLengthTable is a pure function of n), so the draw sequence does
  // not depend on which path served the lookup.
  if (const RunLengthTable* table = context_->run_length_table(n))
    return *table;
  if (!run_table_.has_value() || run_table_->population() != n)
    run_table_.emplace(n);
  return *run_table_;
}

void CollisionBatcher::close_window(
    [[maybe_unused]] std::span<const std::int64_t> dark,
    std::span<std::int64_t> light, [[maybe_unused]] std::int64_t n,
    rng::Xoshiro256& gen) {
  ledger_.close(gen, light);
  SIM_IF_CHECKED({
    // The light vector is exact again: non-negative, and with the dark
    // counts it holds every agent.
    std::int64_t total = 0;
    for (std::size_t i = 0; i < light.size(); ++i) {
      SIM_DCHECK_GE(light[i], 0);
      total += dark[i] + light[i];
    }
    SIM_DCHECK_EQ(total, n);
  });
}

std::int64_t CollisionBatcher::run_window(std::span<std::int64_t> dark,
                                          std::span<std::int64_t> light,
                                          std::int64_t budget,
                                          rng::Xoshiro256& gen) {
  const std::int64_t n = validate(dark, light, budget);
  outcome_ = Outcome{};
  ledger_.open(light);
  const RunLengthTable* table = nullptr;  // built on the first batch
  std::int64_t consumed = 0;
  while (consumed < budget) {
    // Absorption is decided on exact integers before every batch: an
    // adopt needs a light and a dark agent, a fade two same-colour dark
    // agents.  An absorbed configuration (every one with n < 2 among
    // them) burns the rest of the window without a draw.
    std::int64_t total_dark = 0;
    bool fade_possible = false;
    for (const std::int64_t d : dark) {
      total_dark += d;
      fade_possible = fade_possible || d >= 2;
    }
    if (!fade_possible && (total_dark == n || total_dark == 0)) {
      consumed = budget;
      break;
    }
    if (table == nullptr) table = &run_length_table(n);
    consumed += batch(dark, n, budget - consumed, *table, gen);
    if (ledger_.wants_flush()) ledger_.flush(gen);
  }
  close_window(dark, light, n, gen);
  outcome_.interactions = consumed;
  return consumed;
}

std::int64_t CollisionBatcher::advance(std::span<std::int64_t> dark,
                                       std::span<std::int64_t> light,
                                       std::int64_t budget,
                                       rng::Xoshiro256& gen) {
  const std::int64_t n = validate(dark, light, budget);
  if (n < 2)
    throw std::invalid_argument("CollisionBatcher: need n >= 2 agents");
  outcome_ = Outcome{};
  const RunLengthTable& table = run_length_table(n);
  ledger_.open(light);
  const std::int64_t consumed = batch(dark, n, budget, table, gen);
  close_window(dark, light, n, gen);
  outcome_.interactions = consumed;
  return consumed;
}

std::int64_t CollisionBatcher::batch(std::span<std::int64_t> dark,
                                     std::int64_t n, std::int64_t budget,
                                     const RunLengthTable& table,
                                     rng::Xoshiro256& gen) {
#ifdef SIM_CHECKED
  // Draw audit: replay-count the stream this batch consumes.  Checked
  // builds only — draws_between re-runs the stream.
  const rng::Xoshiro256 entry_gen = gen;
#endif
  const std::int64_t len = table.sample(gen);
  // Run-length support: 1 <= ℓ <= floor(n/2) (2ℓ distinct agents).
  SIM_ASSERT(len >= 1);
  SIM_DCHECK_LE(len, n / 2);
  std::int64_t consumed = 0;
  if (len >= budget) {
    // The window edge arrives before the collision: the first `budget`
    // interactions of a collision-free run are themselves a uniform
    // ordered sample without replacement, so truncation is exact.
    apply_batch(dark, n, budget, gen);
    consumed = budget;
  } else {
    apply_batch(dark, n, len, gen);
    collision_step(dark, n, 2 * len, gen);
    consumed = len + 1;
  }
  // The batch's faded agents join the ledger only now: the collision
  // step picks them as known-colour used agents, not from the ledger.
  ledger_.add(faded_);
  SIM_IF_CHECKED({
    // Post-batch conservation: aggregate adopts and fades move agents
    // between shades, never in or out of the population, so the ledger
    // holds exactly the agents that are not dark.
    const auto k = static_cast<std::size_t>(k_);
    std::int64_t total_dark = 0;
    for (std::size_t i = 0; i < k; ++i) {
      SIM_DCHECK_GE(dark[i], 0);
      total_dark += dark[i];
    }
    SIM_DCHECK_EQ(ledger_.total(), n - total_dark);
    // Lazy-materialisation pool consistency: collision_step must leave
    // the dark rest pool non-negative with a matching total.
    std::int64_t dark_pool = 0;
    for (std::size_t i = 0; i < k; ++i) {
      SIM_DCHECK_GE(rest_dark_pool_[i], 0);
      dark_pool += rest_dark_pool_[i];
    }
    SIM_DCHECK_EQ(dark_pool, rest_dark_total_);
  });
#ifdef SIM_CHECKED
  const std::int64_t draws = check::draws_between(
      entry_gen, gen, check::CountingBitGenerator::kDefaultReplayCap);
  // One batch draws O(k) variates; losing the stream inside a single
  // batch means the generator was touched behind the audit's back.
  SIM_DCHECK_GE(draws, 0);
#endif
  return consumed;
}

void CollisionBatcher::draw_tagged_involvement(
    rng::Xoshiro256& gen, std::int64_t n, std::int64_t window,
    std::vector<std::int64_t>& positions) {
  if (n < 2)
    throw std::invalid_argument("draw_tagged_involvement: need n >= 2");
  if (window < 0)
    throw std::invalid_argument(
        "draw_tagged_involvement: negative window");
  positions.clear();
  if (window == 0) return;
  const std::int64_t m =
      rng::binomial(gen, window, 2.0 / static_cast<double>(n));
  if (m == 0) return;
  // Floyd's algorithm: a uniform m-subset of {0, ..., window-1} in O(m)
  // expected draws regardless of the m/window ratio (rejection resampling
  // would thrash when the window is much longer than n).  Step j draws t
  // below j + 1 and picks t, or j when t is already picked; j itself is
  // never picked before step j, so each step adds exactly one position.
  // The set is a linear-probing table at most half full (capacity >= 2),
  // indexed by Fibonacci hashing.
  const auto capacity = std::bit_ceil(static_cast<std::uint64_t>(2 * m));
  const int shift = 64 - std::countr_zero(capacity);
  std::vector<std::int64_t>& slots = t_picked;
  slots.assign(capacity, -1);
  const auto insert = [&](std::int64_t value) {
    std::uint64_t slot =
        (static_cast<std::uint64_t>(value) * 0x9e3779b97f4a7c15ULL) >> shift;
    while (slots[slot] != -1) {
      if (slots[slot] == value) return false;
      slot = (slot + 1) & (capacity - 1);
    }
    slots[slot] = value;
    return true;
  };
  positions.resize(static_cast<std::size_t>(m));
  std::size_t picked = 0;
  for (std::int64_t j = window - m; j < window; ++j) {
    const std::int64_t t = rng::uniform_below(gen, j + 1);
    const std::int64_t pick = insert(t) ? t : j;
    if (pick != t) insert(pick);
    positions[picked++] = pick;
  }
  std::sort(positions.begin(), positions.end());
}

void CollisionBatcher::apply_batch(std::span<std::int64_t> dark,
                                   std::int64_t n, std::int64_t len,
                                   rng::Xoshiro256& gen) {
  const auto k = static_cast<std::size_t>(k_);
  const double max_inv_weight = context_->max_inv_weight();
  const std::span<const double> fade_ratio = context_->fade_ratio();
  const std::int64_t total_light = ledger_.total();

  // (1) Shade and slot scalars.  The 2·len participants are a uniform
  // ordered sample without replacement, so their shade total is one
  // hypergeometric; light participants land in the len initiator slots
  // as a uniform subset, dark responders likewise on the responder side,
  // and the slot pairing matches them independently, so the
  // light-initiator/dark-responder (adopt) pair count is one more
  // hypergeometric.
  const std::int64_t participants = 2 * len;
  const std::int64_t lights =
      rng::hypergeometric(gen, n, total_light, participants);
  const std::int64_t light_init =
      rng::hypergeometric(gen, participants, len, lights);
  const std::int64_t dark_resp = len - (lights - light_init);
  const std::int64_t adopts =
      rng::hypergeometric(gen, len, dark_resp, light_init);

  // (2) Adopt colours.  The adopted responders are a uniform subset of
  // the dark participants, themselves a uniform subset of the dark
  // population — so their colours are one multivariate-hypergeometric
  // split straight off the dark counts.  The adopters are likewise a
  // uniform subset of the light population, and no transition reads a
  // light agent's colour: they leave the ledger as uniform removals,
  // their colours drawn in aggregate at its next flush.
  rng::multivariate_hypergeometric(gen, dark, adopts, adopt_in_);
  ledger_.remove_uniform(gen, adopts);

  // (3) Dark–dark same-colour pairs, pre-thinned.  Every non-adopted
  // dark responder is paired with a dark initiator.  A dd pair fades
  // only when it is monochromatic AND its fade uniform clears 1/w_i;
  // split that uniform into two independent stages, 1/w_i =
  // p_max · (1/w_i)/p_max with p_max = max_j 1/w_j.  The first stage is
  // colour-blind, so the *fade candidates* are one Binomial(dd, p_max)
  // draw, and only candidate pairs ever need their colours resolved —
  // non-candidate pair members keep shade and colour and stay in the
  // lazy rest pool with everyone else.  The candidate pairs are a
  // uniform subset of the dd pairs, so their 2·cand members are a
  // uniform sample of the dark population minus the adopted responders
  // (uniform subset of a uniform subset), and their pairing is a uniform
  // perfect matching: members and monochromatic pairs per colour are one
  // paired draw.  With k equal weights the second-stage thinning
  // probability is exactly 1, so every monochromatic candidate fades
  // without a further draw.
  const std::int64_t dd = dark_resp - adopts;
  // Scalar-chain support: every derived count is a sub-sample of its
  // parent, so all of them are non-negative by construction — a negative
  // here means a hypergeometric draw escaped its support.
  SIM_ASSERT(lights >= 0 && lights <= participants);
  SIM_ASSERT(light_init >= 0 && light_init <= len);
  SIM_ASSERT(dark_resp >= 0 && dark_resp <= len);
  SIM_ASSERT(adopts >= 0 && dd >= 0);
  for (std::size_t i = 0; i < k; ++i)
    rest_dark_pool_[i] = dark[i] - adopt_in_[i];
  const std::int64_t cand = rng::binomial(gen, dd, max_inv_weight);
  rng::multivariate_hypergeometric_pairs(gen, rest_dark_pool_, cand,
                                         pair_members_, mono_);

  // (4) Fades (second-stage thinning of the monochromatic candidates),
  // aggregate deltas, and the collision bookkeeping.  Used agents whose
  // colours the chain determined: the adopt responders (still dark),
  // the adopters (now dark of their responder's colour — the
  // initiator/responder matching is a uniform bijection, so the new
  // dark colours are the adopt_in multiset again), the candidate pair
  // members (dark, minus the faded initiators) and the faded agents
  // (light).  Everyone else keeps both shade and colour, and their
  // colours were never drawn: the dark rest pool and the ledger cover
  // them, used and untouched alike.
  rest_dark_total_ = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const std::int64_t fades_i = rng::binomial(gen, mono_[i], fade_ratio[i]);
    rest_dark_pool_[i] -= pair_members_[i];
    rest_dark_total_ += rest_dark_pool_[i];
    known_dark_[i] = 2 * adopt_in_[i] + pair_members_[i] - fades_i;
    known_light_[i] = fades_i;
    faded_[i] = fades_i;
    dark[i] += adopt_in_[i] - fades_i;
    outcome_.fades += fades_i;
  }
  outcome_.adopts += adopts;
  // Scalar used/untouched split of the lazy agents: dark participants
  // not adopted and not in candidate pairs, light participants that did
  // not adopt.
  rest_dark_used_ = (participants - lights) - adopts - 2 * cand;
  rest_light_used_ = lights - adopts;
  SIM_IF_CHECKED({
    SIM_DCHECK_GE(rest_dark_used_, 0);
    SIM_DCHECK_GE(rest_light_used_, 0);
    SIM_DCHECK_LE(rest_light_used_, ledger_.total());
    for (std::size_t i = 0; i < k; ++i) {
      SIM_DCHECK_GE(known_dark_[i], 0);
      SIM_DCHECK_GE(known_light_[i], 0);
      SIM_DCHECK_GE(rest_dark_pool_[i], 0);
      SIM_DCHECK_GE(dark[i], 0);
    }
  });
}

void CollisionBatcher::collision_step(std::span<std::int64_t> dark,
                                      std::int64_t n, std::int64_t used,
                                      rng::Xoshiro256& gen) {
  const auto k = static_cast<std::size_t>(k_);
  const std::span<const double> inv_weight = context_->inv_weight();
  const std::int64_t untouched = n - used;
  // The colliding interaction is a uniform ordered pair of distinct
  // agents conditioned on touching the used set U; the three cases
  // partition the conditioning event.
  const std::int64_t both = used * (used - 1);
  const std::int64_t cross = used * untouched;
  const std::int64_t r = rng::uniform_below(gen, both + 2 * cross);
  const bool init_used = r < both + cross;
  const bool resp_used = r < both || r >= both + cross;

  // Untouched split of the lazy agents (the used split was recorded by
  // apply_batch).  The ledger holds every light agent whose colour the
  // batch left undrawn — the batch's own fades join it only after this
  // step — so its total covers the used and the untouched lazy lights.
  std::int64_t rest_dark_untouched = rest_dark_total_ - rest_dark_used_;
  std::int64_t rest_light_untouched = ledger_.total() - rest_light_used_;

  // Uniform class draw from the used or untouched set, dark block first
  // (the same flattening as CountSimulation::pick_class).  A used pick
  // scans the known-colour groups (adopt pairs + dd-pair members on the
  // dark side, faded agents on the light side) and then the lazy rest
  // blocks; an untouched pick is entirely lazy.  A lazy pick fixes only
  // the agent's shade; its colour is drawn below, and only if the
  // transition reads it.  Every count is mutated as agents are picked,
  // so the second pick excludes the first — the exact sequential law of
  // sampling without replacement.
  constexpr std::size_t kLazy = static_cast<std::size_t>(-1);
  struct Pick {
    bool is_dark = false;
    std::size_t color = kLazy;
  };
  const auto pick = [&](bool from_used, std::int64_t pool_total) -> Pick {
    std::int64_t target = rng::uniform_below(gen, pool_total);
    if (from_used) {
      for (std::size_t i = 0; i < k; ++i) {
        if (target < known_dark_[i]) {
          --known_dark_[i];
          return {true, i};
        }
        target -= known_dark_[i];
      }
      if (target < rest_dark_used_) {
        --rest_dark_used_;
        return {true, kLazy};
      }
      target -= rest_dark_used_;
      for (std::size_t i = 0; i < k; ++i) {
        if (target < known_light_[i]) {
          --known_light_[i];
          return {false, i};
        }
        target -= known_light_[i];
      }
      if (target < rest_light_used_) {
        --rest_light_used_;
        return {false, kLazy};
      }
      throw std::logic_error(
          "CollisionBatcher::collision_step: inconsistent used totals");
    }
    if (target < rest_dark_untouched) {
      --rest_dark_untouched;
      return {true, kLazy};
    }
    target -= rest_dark_untouched;
    if (target < rest_light_untouched) {
      --rest_light_untouched;
      return {false, kLazy};
    }
    throw std::logic_error(
        "CollisionBatcher::collision_step: inconsistent untouched totals");
  };
  // A lazy dark agent's colour: one draw from the dark rest pool — the
  // marginal of one member of the integrated-out split — removed from it.
  const auto dark_color = [&](Pick& p) {
    if (p.color != kLazy) return p.color;
    std::int64_t target = rng::uniform_below(gen, rest_dark_total_);
    for (std::size_t i = 0; i < k; ++i) {
      if (target < rest_dark_pool_[i]) {
        --rest_dark_pool_[i];
        --rest_dark_total_;
        return p.color = i;
      }
      target -= rest_dark_pool_[i];
    }
    throw std::logic_error(
        "CollisionBatcher::collision_step: inconsistent rest pool");
  };

  Pick initiator = pick(init_used, init_used ? used : untouched);
  Pick responder = pick(resp_used, (resp_used ? used : untouched) -
                                       ((init_used == resp_used) ? 1 : 0));

  if (!initiator.is_dark && responder.is_dark) {
    // The adopter leaves the light agents: a known one is a fade of this
    // batch, not yet in the ledger; a lazy one is a uniform removal from
    // it (no transition reads its colour).
    if (initiator.color == kLazy) {
      ledger_.remove_uniform(gen, 1);
    } else {
      --faded_[initiator.color];
    }
    ++dark[dark_color(responder)];
    ++outcome_.adopts;
  } else if (initiator.is_dark && responder.is_dark) {
    const std::size_t color = dark_color(initiator);
    if (color == dark_color(responder) &&
        rng::bernoulli(gen, inv_weight[color])) {
      --dark[color];
      ++faded_[color];
      ++outcome_.fades;
    }
  }
}

}  // namespace divpp::batch
