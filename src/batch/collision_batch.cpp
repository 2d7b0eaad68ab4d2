#include "batch/collision_batch.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <unordered_set>
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
  for (auto* v : {&adopt_in_, &adopt_out_, &pair_members_, &diag_,
                  &known_dark_, &known_light_, &rest_dark_pool_,
                  &rest_light_pool_})
    v->assign(k, 0);
}

std::int64_t CollisionBatcher::advance(std::span<std::int64_t> dark,
                                       std::span<std::int64_t> light,
                                       std::int64_t budget,
                                       rng::Xoshiro256& gen) {
  const auto k = static_cast<std::size_t>(k_);
  if (dark.size() != k || light.size() != k)
    throw std::invalid_argument("CollisionBatcher: span size mismatch");
  if (budget < 1)
    throw std::invalid_argument("CollisionBatcher: budget must be >= 1");
  const std::int64_t n =
      std::accumulate(dark.begin(), dark.end(), std::int64_t{0}) +
      std::accumulate(light.begin(), light.end(), std::int64_t{0});
  if (n < 2)
    throw std::invalid_argument("CollisionBatcher: need n >= 2 agents");

  outcome_ = Outcome{};
#ifdef SIM_CHECKED
  // Draw audit: replay-count the stream this advance consumes.  Checked
  // builds only — draws_between re-runs the stream.
  const rng::Xoshiro256 entry_gen = gen;
#endif
  // Eager shared table when the context has one for this population,
  // else the private on-demand table — identical contents either way
  // (RunLengthTable is a pure function of n), so the draw sequence does
  // not depend on which path served the lookup.
  const RunLengthTable* table = context_->run_length_table(n);
  if (table == nullptr) {
    if (!run_table_.has_value() || run_table_->population() != n)
      run_table_.emplace(n);
    table = &*run_table_;
  }
  const std::int64_t len = table->sample(gen);
  // Run-length support: 1 <= ℓ <= floor(n/2) (2ℓ distinct agents).
  SIM_ASSERT(len >= 1);
  SIM_DCHECK_LE(len, n / 2);
  std::int64_t consumed = 0;
  if (len >= budget) {
    // The window edge arrives before the collision: the first `budget`
    // interactions of a collision-free run are themselves a uniform
    // ordered sample without replacement, so truncation is exact.
    apply_batch(dark, light, n, budget, gen);
    outcome_.interactions = budget;
    consumed = budget;
  } else {
    apply_batch(dark, light, n, len, gen);
    collision_step(dark, light, n, 2 * len, gen);
    outcome_.interactions = len + 1;
    consumed = len + 1;
  }
  SIM_IF_CHECKED({
    // Post-batch conservation: aggregate adopts and fades move agents
    // between shades, never in or out of the population.
    std::int64_t after = 0;
    for (std::size_t i = 0; i < k; ++i) {
      SIM_DCHECK_GE(dark[i], 0);
      SIM_DCHECK_GE(light[i], 0);
      after += dark[i] + light[i];
    }
    SIM_DCHECK_EQ(after, n);
    // Lazy-materialisation pool consistency: collision_step must leave
    // the shared rest pools non-negative with matching totals.
    std::int64_t dark_pool = 0;
    std::int64_t light_pool = 0;
    for (std::size_t i = 0; i < k; ++i) {
      SIM_DCHECK_GE(rest_dark_pool_[i], 0);
      SIM_DCHECK_GE(rest_light_pool_[i], 0);
      dark_pool += rest_dark_pool_[i];
      light_pool += rest_light_pool_[i];
    }
    SIM_DCHECK_EQ(dark_pool, rest_dark_total_);
    SIM_DCHECK_EQ(light_pool, rest_light_total_);
  });
#ifdef SIM_CHECKED
  const std::int64_t draws = check::draws_between(
      entry_gen, gen, check::CountingBitGenerator::kDefaultReplayCap);
  // One batch draws O(k) variates; losing the stream inside a single
  // advance means the generator was touched behind the audit's back.
  SIM_DCHECK_GE(draws, 0);
#endif
  return consumed;
}

std::int64_t CollisionBatcher::advance_excluding(
    std::span<std::int64_t> dark, std::span<std::int64_t> light,
    core::ColorId excluded_color, bool excluded_dark, std::int64_t budget,
    rng::Xoshiro256& gen) {
  const auto k = static_cast<std::size_t>(k_);
  if (dark.size() != k || light.size() != k)
    throw std::invalid_argument("CollisionBatcher: span size mismatch");
  if (excluded_color < 0 || static_cast<std::size_t>(excluded_color) >= k)
    throw std::out_of_range(
        "CollisionBatcher::advance_excluding: colour out of range");
  std::int64_t& cell = excluded_dark
                           ? dark[static_cast<std::size_t>(excluded_color)]
                           : light[static_cast<std::size_t>(excluded_color)];
  if (cell < 1)
    throw std::invalid_argument(
        "CollisionBatcher::advance_excluding: excluded cell is empty");
  // Conditioned on the excluded agent sitting a stretch out, the stretch
  // is a plain collision batch of the remaining n − 1 agents: remove the
  // agent, advance, put it back.
  --cell;
  const std::int64_t consumed = advance(dark, light, budget, gen);
  (excluded_dark ? dark[static_cast<std::size_t>(excluded_color)]
                 : light[static_cast<std::size_t>(excluded_color)]) += 1;
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
  positions.reserve(static_cast<std::size_t>(m));
  // Floyd's algorithm: a uniform m-subset of {0, ..., window-1} in O(m)
  // expected draws regardless of the m/window ratio (rejection resampling
  // would thrash when the window is much longer than n).
  std::unordered_set<std::int64_t> chosen;
  chosen.reserve(static_cast<std::size_t>(2 * m));
  for (std::int64_t j = window - m; j < window; ++j) {
    const std::int64_t t = rng::uniform_below(gen, j + 1);
    const std::int64_t pick = chosen.insert(t).second ? t : j;
    if (pick != t) chosen.insert(pick);
  }
  positions.assign(chosen.begin(), chosen.end());
  std::sort(positions.begin(), positions.end());
}

void CollisionBatcher::apply_batch(std::span<std::int64_t> dark,
                                   std::span<std::int64_t> light,
                                   std::int64_t n, std::int64_t len,
                                   rng::Xoshiro256& gen) {
  const auto k = static_cast<std::size_t>(k_);
  const double max_inv_weight = context_->max_inv_weight();
  const std::span<const double> fade_ratio = context_->fade_ratio();
  const std::int64_t total_light =
      std::accumulate(light.begin(), light.end(), std::int64_t{0});

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

  // (2) Adopt colours, straight off the population counts.  The
  // adopters are a uniform subset of the light participants, themselves
  // a uniform subset of the light population — so the adopting colours
  // are one multivariate-hypergeometric split of the light counts, and
  // the adopted (responder) colours one split of the dark counts.  The
  // full participant compositions are integrated out; the collision
  // step re-materialises what it touches from the rest pools below.
  rng::multivariate_hypergeometric(gen, light, adopts, adopt_out_);
  rng::multivariate_hypergeometric(gen, dark, adopts, adopt_in_);

  // (3) Dark–dark same-colour pairs, pre-thinned.  Every non-adopted
  // dark responder is paired with a dark initiator.  A dd pair fades
  // only when it is monochromatic AND its fade uniform clears 1/w_i;
  // split that uniform into two independent stages, 1/w_i =
  // p_max · (1/w_i)/p_max with p_max = max_j 1/w_j.  The first stage is
  // colour-blind, so the *fade candidates* are one Binomial(dd, p_max)
  // draw, and only candidate pairs ever need their colours resolved —
  // non-candidate pair members keep shade and colour and stay in the
  // lazy rest pools with everyone else.  The candidate pairs are a
  // uniform subset of the dd pairs, so their 2·cand members are a
  // uniform sample of the dark population minus the adopted responders
  // (uniform subset of a uniform subset), and their pairing is a uniform
  // perfect matching: the same-colour candidate-pair counts come from
  // the O(k) slot-occupancy chain — colour i first splits its members
  // between double-open pairs and half-filled ones (hypergeometric),
  // then the fully-monochromatic pair count among the double-open pairs
  // is one rng::full_pairs draw.  With k equal weights the second-stage
  // thinning probability is exactly 1, so every monochromatic candidate
  // fades without a further draw.
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
  rng::multivariate_hypergeometric(gen, rest_dark_pool_, 2 * cand,
                                   pair_members_);
  std::int64_t open_pairs = cand;  // pairs with both slots still free
  std::int64_t singles = 0;        // pairs with one slot already taken
  for (std::size_t i = 0; i < k; ++i) {
    const std::int64_t members = pair_members_[i];
    const std::int64_t in_pairs = rng::hypergeometric(
        gen, 2 * open_pairs + singles, 2 * open_pairs, members);
    const std::int64_t mono = rng::full_pairs(gen, open_pairs, in_pairs);
    diag_[i] = mono;
    const std::int64_t half = in_pairs - 2 * mono;
    open_pairs -= mono + half;
    singles += half - (members - in_pairs);
    SIM_ASSERT(open_pairs >= 0 && singles >= 0);
  }
  // All 2·cand candidate-pair slots must be exactly filled once every
  // colour's members are placed.
  SIM_DCHECK_EQ(open_pairs, 0);
  SIM_DCHECK_EQ(singles, 0);

  // (4) Fades (second-stage thinning of the monochromatic candidates),
  // aggregate deltas, and the collision bookkeeping.  Used agents whose
  // colours the chain determined: the adopt responders (still dark),
  // the adopters (now dark of their responder's colour — the
  // initiator/responder matching is a uniform bijection, so the new
  // dark colours are the adopt_in multiset again), the candidate pair
  // members (dark, minus the faded initiators) and the faded agents
  // (light).  Everyone else keeps both shade and colour, and their
  // colours were never drawn: the rest pools (population minus
  // known-colour agents) cover them, used and untouched alike.
  rest_dark_total_ = 0;
  rest_light_total_ = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const std::int64_t fades_i =
        rng::binomial(gen, diag_[i], fade_ratio[i]);
    rest_dark_pool_[i] -= pair_members_[i];
    rest_light_pool_[i] = light[i] - adopt_out_[i];
    rest_dark_total_ += rest_dark_pool_[i];
    rest_light_total_ += rest_light_pool_[i];
    known_dark_[i] = 2 * adopt_in_[i] + pair_members_[i] - fades_i;
    known_light_[i] = fades_i;
    dark[i] += adopt_in_[i] - fades_i;
    light[i] += fades_i - adopt_out_[i];
    outcome_.fades += fades_i;
  }
  outcome_.adopts += adopts;
  // Scalar used/untouched split of the rest pools: dark participants not
  // adopted and not in candidate pairs, light participants that did not
  // adopt.
  rest_dark_used_ = (participants - lights) - adopts - 2 * cand;
  rest_light_used_ = lights - adopts;
  SIM_IF_CHECKED({
    SIM_DCHECK_GE(rest_dark_used_, 0);
    SIM_DCHECK_GE(rest_light_used_, 0);
    for (std::size_t i = 0; i < k; ++i) {
      SIM_DCHECK_GE(known_dark_[i], 0);
      SIM_DCHECK_GE(known_light_[i], 0);
      SIM_DCHECK_GE(rest_dark_pool_[i], 0);
      SIM_DCHECK_GE(rest_light_pool_[i], 0);
      SIM_DCHECK_GE(dark[i], 0);
      SIM_DCHECK_GE(light[i], 0);
    }
  });
}

void CollisionBatcher::collision_step(std::span<std::int64_t> dark,
                                      std::span<std::int64_t> light,
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

  // Untouched split of the rest pools (the used split was recorded by
  // apply_batch); every count below is mutated as agents materialise, so
  // the second pick automatically excludes the first — the exact
  // sequential law of sampling without replacement.
  std::int64_t rest_dark_untouched = rest_dark_total_ - rest_dark_used_;
  std::int64_t rest_light_untouched = rest_light_total_ - rest_light_used_;

  // Uniform class draw from the used or untouched set, dark block first
  // (the same flattening as CountSimulation::pick_class).  A used pick
  // scans the known-colour groups (adopt pairs + dd-pair members on the
  // dark side, faded agents on the light side) and then the lazy rest
  // blocks; an untouched pick is entirely lazy.  A lazy hit draws the
  // agent's colour from the shared rest pool — the marginal of one
  // member of the integrated-out split — and removes it from the pool.
  struct Pick {
    bool is_dark = false;
    std::size_t color = 0;
  };
  const auto draw_from_pool = [&](std::vector<std::int64_t>& pool,
                                  std::int64_t& pool_total) -> std::size_t {
    std::int64_t target = rng::uniform_below(gen, pool_total);
    for (std::size_t i = 0; i < k; ++i) {
      if (target < pool[i]) {
        --pool[i];
        --pool_total;
        return i;
      }
      target -= pool[i];
    }
    throw std::logic_error(
        "CollisionBatcher::collision_step: inconsistent rest pool");
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
        return {true, draw_from_pool(rest_dark_pool_, rest_dark_total_)};
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
        return {false, draw_from_pool(rest_light_pool_, rest_light_total_)};
      }
      throw std::logic_error(
          "CollisionBatcher::collision_step: inconsistent used totals");
    }
    if (target < rest_dark_untouched) {
      --rest_dark_untouched;
      return {true, draw_from_pool(rest_dark_pool_, rest_dark_total_)};
    }
    target -= rest_dark_untouched;
    if (target < rest_light_untouched) {
      --rest_light_untouched;
      return {false, draw_from_pool(rest_light_pool_, rest_light_total_)};
    }
    throw std::logic_error(
        "CollisionBatcher::collision_step: inconsistent untouched totals");
  };

  const Pick initiator = pick(init_used, init_used ? used : untouched);
  const Pick responder =
      pick(resp_used, (resp_used ? used : untouched) -
                          ((init_used == resp_used) ? 1 : 0));

  if (!initiator.is_dark && responder.is_dark) {
    --light[initiator.color];
    ++dark[responder.color];
    ++outcome_.adopts;
  } else if (initiator.is_dark && responder.is_dark &&
             initiator.color == responder.color) {
    if (rng::bernoulli(gen, inv_weight[initiator.color])) {
      --dark[initiator.color];
      ++light[initiator.color];
      ++outcome_.fades;
    }
  }
}

}  // namespace divpp::batch
