#include "rng/discrete.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "check/invariant.h"
#include "rng/distributions.h"

namespace divpp::rng {

namespace {

/// Dispatch thresholds between the chop-down inversion kernel and the
/// HRUA ratio-of-uniforms rejection kernel of hypergeometric().  A draw
/// uses rejection (O(1) expected time) when its variance is at least
/// kRejectionVarianceCutoff AND its pmf arguments are beyond the
/// log-factorial table (where the chop-down setup pays ~6 Stirling
/// evaluations); with all arguments inside the table the setup is a
/// handful of lookups and the O(1 + sd) walk stays cheaper up to
/// kRejectionInTableVarianceCutoff (~25 standard deviations of walk).
/// Every path is exact, so the cutoffs are distributionally invisible;
/// they are pinned by bit-identity tests (tests/test_discrete.cpp) so
/// moving them is a deliberate act.
constexpr double kRejectionVarianceCutoff = 9.0;
constexpr double kRejectionInTableVarianceCutoff = 625.0;

/// Number of entries of the log-factorial lookup table (the
/// in-table/Stirling boundary the dispatch above refers to).
constexpr std::int64_t kLogFactTableSize = 65536;

/// log(x!) for integer x: table lookup below kLogFactTableSize, Stirling
/// series above.  Every pmf argument in this file is an integer count,
/// so this replaces std::lgamma (~13 ns) with ~2 ns lookups; the
/// Stirling branch is accurate to ~1e-16 relative well below the table
/// edge (the next omitted term is O(x^{-7})).  The table spans 64 Ki
/// entries (512 KB, built once) because the collision-batch engine's
/// rejection draws evaluate the pmf at participant-scale arguments —
/// up to 2·E[ℓ] ≈ 40 000 at n = 10⁹ — on every iteration, and a lookup
/// there is ~4× cheaper than the Stirling evaluation.

double log_fact(std::int64_t x) {
  static const std::vector<double> table = [] {
    std::vector<double> t(static_cast<std::size_t>(kLogFactTableSize));
    t[0] = 0.0;
    // Sums of logs drift; lgamma each entry instead (one-time cost).
    for (std::int64_t i = 1; i < kLogFactTableSize; ++i)
      t[static_cast<std::size_t>(i)] =
          std::lgamma(static_cast<double>(i) + 1.0);
    return t;
  }();
  if (x < kLogFactTableSize) return table[static_cast<std::size_t>(x)];
  const double d = static_cast<double>(x);
  const double inv = 1.0 / d;
  const double inv2 = inv * inv;
  return (d + 0.5) * std::log(d) - d + 0.9189385332046727 +  // ln√(2π)
         inv * (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 / 1260.0));
}

/// log C(n, k) on integers via log_fact.
double log_choose(std::int64_t n, std::int64_t k) {
  return log_fact(n) - log_fact(k) - log_fact(n - k);
}

/// Mode-centred chop-down inversion over the integer support [lo, hi]:
/// one uniform is split against the pmf starting at `mode` (value `fm`)
/// and expanding outwards, every value after the first coming from the
/// exact adjacent-ratio recurrence ratio_up(x) = f(x+1)/f(x).  Expected
/// O(1 + sd) pmf evaluations.  Shared by hypergeometric() and
/// full_pairs(); the outward order is a fixed deterministic enumeration
/// of the support, so the inversion is exact for any log-concave or
/// not-so-concave pmf alike.
template <class RatioUp>
std::int64_t chop_down_from_mode(Xoshiro256& gen, std::int64_t lo,
                                 std::int64_t hi, std::int64_t mode,
                                 double fm, RatioUp&& ratio_up) {
  while (true) {
    double u = uniform01(gen);
    std::int64_t up = mode;
    std::int64_t down = mode;
    double fu = fm;
    double fd = fm;
    u -= fm;
    if (u <= 0.0) return mode;
    while (up < hi || down > lo) {
      if (up < hi) {
        fu *= ratio_up(up);
        ++up;
        u -= fu;
        if (u <= 0.0) return up;
      }
      if (down > lo) {
        fd /= ratio_up(down - 1);
        --down;
        u -= fd;
        if (u <= 0.0) return down;
      }
    }
    // Float rounding left a sliver of u unassigned (probability ~1e-16):
    // redraw rather than clamp, keeping the sampler bias-free.
  }
}

/// Variance of Hypergeometric(total, marked, draws) given the marked
/// fraction p — the single definition both the predicate and the
/// dispatcher evaluate, so the two can never disagree about which
/// kernel runs.  Invariant under marked <-> draws and under both
/// complement transformations.
double hypergeometric_variance_at(double p, double draws, double total) {
  return draws * p * (1.0 - p) * (total - draws) / (total - 1.0);
}

/// BINV: chop-down inversion from 0.  Exact; expected O(1 + n·p) time, so
/// callers only use it when n·min(p, 1-p) is small.  \pre 0 < p <= 0.5.
std::int64_t binomial_inversion(Xoshiro256& gen, std::int64_t n, double p) {
  const double q = 1.0 - p;
  const double s = p / q;
  const double a = static_cast<double>(n + 1) * s;
  // q^n; n·p < 10 keeps n·log1p(-p) far above the underflow range.
  const double r0 = std::exp(static_cast<double>(n) * std::log1p(-p));
  while (true) {
    double r = r0;
    double u = uniform01(gen);
    std::int64_t x = 0;
    while (u > r) {
      u -= r;
      ++x;
      if (x > n) break;  // float-rounding tail: reject and redraw
      r *= (a / static_cast<double>(x) - s);
    }
    if (x <= n) return x;
  }
}

/// Tail of the Stirling series, fc(k) = log k! − (k + ½)·log(k + 1)
/// + (k + 1) − log √(2π): tabulated below 10, three series terms above
/// (the next omitted term is below 1e-10 there).
double stirling_tail(std::int64_t k) {
  static constexpr double kSmall[10] = {
      0.08106146679532726, 0.04134069595540929, 0.02767792568499834,
      0.02079067210376509, 0.01664469118982119, 0.01387612882307075,
      0.01189670994589177, 0.01041126526197209, 0.009255462182712733,
      0.008330563433362871};
  if (k < 10) return kSmall[k];
  const double inv = 1.0 / static_cast<double>(k + 1);
  const double inv2 = inv * inv;
  return (1.0 / 12.0 - (1.0 / 360.0 - inv2 / 1260.0) * inv2) * inv;
}

/// BTRD (Hörmann 1993, "The generation of binomial random variates"):
/// transformed rejection u ↦ ⌊(2a/(½ − |u|) + b)·u + c⌋ from a hat
/// fitted around the mode m.  The central box of the hat accepts with
/// one uniform and no pmf evaluation (half the draws at n·p = 10, up to
/// ~79% as n·p grows);
/// otherwise f(k)/f(m) is a product of adjacent ratios when |k − m| <=
/// 15, and above that a squeeze around −(k − m)²/(2npq) and the final
/// Stirling-corrected log test.  Exact, O(1) expected time for any (n,
/// p) with n·p >= 10.  \pre 0 < p <= 0.5 and n·p >= 10.
std::int64_t binomial_btrd(Xoshiro256& gen, std::int64_t n, double p) {
  const double dn = static_cast<double>(n);
  const double r = p / (1.0 - p);
  const double npq = dn * p * (1.0 - p);
  const double sqrt_npq = std::sqrt(npq);
  const double b = 1.15 + 2.53 * sqrt_npq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = dn * p + 0.5;
  const double alpha = (2.83 + 5.1 / b) * sqrt_npq;
  const double v_r = 0.92 - 4.2 / b;
  const double u_rv_r = 0.86 * v_r;
  // Both floors below take non-negative arguments (the box maps into
  // [0, n] for n·p >= 10), where a truncating conversion is the floor
  // and stays inline (std::floor is a libm call on baseline x86-64).
  const auto m = static_cast<std::int64_t>((dn + 1.0) * p);
  while (true) {
    double v = uniform01(gen);
    double u;
    if (v <= u_rv_r) {  // inside the box: accept at once
      u = v / v_r - 0.43;
      return static_cast<std::int64_t>(
          (2.0 * a / (0.5 - std::abs(u)) + b) * u + c);
    }
    if (v >= v_r) {
      u = uniform01(gen) - 0.5;
    } else {  // the two slivers beside the box reuse v
      u = v / v_r - 0.93;
      u = (u < 0.0 ? -0.5 : 0.5) - u;
      v = uniform01(gen) * v_r;
    }
    const double us = 0.5 - std::abs(u);
    // |u| == ½ maps to ±inf; the double-valued range check rejects it
    // (and NaN) before the integer conversion, which truncates a
    // non-negative value to its floor.
    const double kd = (2.0 * a / us + b) * u + c;
    if (!(kd >= 0.0 && kd < dn + 1.0)) continue;
    const auto k = static_cast<std::int64_t>(kd);
    v = v * alpha / (a / (us * us) + b);
    const std::int64_t km = std::llabs(k - m);
    if (km <= 15) {
      // f(i)/f(i−1) = (n + 1 − i)·r / i, multiplied over (min, max] as
      // separate numerator and denominator products (each below 2^950
      // for any int64 n, so no division is needed): accept iff
      // v <= f(k)/f(m).
      double num = 1.0;
      double den = 1.0;
      for (std::int64_t i = std::min(k, m) + 1; i <= std::max(k, m); ++i) {
        const auto di = static_cast<double>(i);
        num *= (dn + 1.0 - di) * r;
        den *= di;
      }
      if (k >= m ? v * den <= num : v * num <= den) return k;
      continue;
    }
    const double kmd = static_cast<double>(km);
    const double lv = std::log(v);
    const double rho =
        (kmd / npq) * (((kmd / 3.0 + 0.625) * kmd + 1.0 / 6.0) / npq + 0.5);
    const double t = -kmd * kmd / (2.0 * npq);
    if (lv < t - rho) return k;   // squeeze: accept
    if (lv > t + rho) continue;   // squeeze: reject
    // log f(k)/f(m) through the Stirling tails (the linear terms cancel).
    const double dm = static_cast<double>(m);
    const double dk = static_cast<double>(k);
    const double nm = dn - dm + 1.0;
    const double nk = dn - dk + 1.0;
    const double h = (dm + 0.5) * std::log((dm + 1.0) / (r * nm)) +
                     stirling_tail(m) + stirling_tail(n - m);
    if (lv <= h + (dn + 1.0) * std::log(nm / nk) +
                  (dk + 0.5) * std::log(nk * r / (dk + 1.0)) -
                  stirling_tail(k) - stirling_tail(n - k))
      return k;
  }
}

}  // namespace

void warm_log_fact_table() { (void)log_fact(kLogFactTableSize - 1); }

std::int64_t binomial(Xoshiro256& gen, std::int64_t n, double p) {
  if (n < 0) throw std::invalid_argument("binomial: n must be >= 0");
  if (!(p >= 0.0) || p > 1.0)
    throw std::invalid_argument("binomial: p must be in [0, 1]");
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;
  std::int64_t result = 0;
  if (n <= 16) {
    // A handful of Bernoulli trials beats the BINV setup (exp + log1p);
    // the collision-batch fade thinnings live here.  Trivially exact.
    for (std::int64_t i = 0; i < n; ++i)
      if (uniform01(gen) < p) ++result;
  } else {
    const double pr = std::min(p, 1.0 - p);
    const std::int64_t x = static_cast<double>(n) * pr < 10.0
                               ? binomial_inversion(gen, n, pr)
                               : binomial_btrd(gen, n, pr);
    result = p > 0.5 ? n - x : x;
  }
  // Support check on every kernel: a BINV/BTRD float-edge escape would
  // silently corrupt the batch margins downstream.
  SIM_ASSERT(result >= 0 && result <= n);
  return result;
}

namespace {

void hypergeometric_validate(std::int64_t total, std::int64_t marked,
                             std::int64_t draws) {
  if (total < 0 || marked < 0 || marked > total || draws < 0 ||
      draws > total)
    throw std::invalid_argument(
        "hypergeometric: need 0 <= marked <= total and 0 <= draws <= total");
}

/// The PR-3 kernel: chop-down inversion started at the mode and expanding
/// outwards.  The expected number of pmf evaluations is O(1 + sd), and
/// every pmf value after the first comes from the exact adjacent-ratio
/// recurrence
///   f(x+1)/f(x) = (marked-x)(draws-x) / ((x+1)(total-marked-draws+x+1)).
std::int64_t hypergeometric_chopdown_impl(Xoshiro256& gen, std::int64_t total,
                                          std::int64_t marked,
                                          std::int64_t draws, std::int64_t lo,
                                          std::int64_t hi) {
  const double dn = static_cast<double>(total);
  const double dk = static_cast<double>(marked);
  const double dm = static_cast<double>(draws);
  auto mode = static_cast<std::int64_t>(
      std::floor((dm + 1.0) * (dk + 1.0) / (dn + 2.0)));
  mode = std::clamp(mode, lo, hi);
  const double log_fm = log_choose(marked, mode) +
                        log_choose(total - marked, draws - mode) -
                        log_choose(total, draws);
  const double fm = std::exp(log_fm);
  return chop_down_from_mode(gen, lo, hi, mode, fm, [&](std::int64_t x) {
    // f(x+1)/f(x)
    return (dk - static_cast<double>(x)) * (dm - static_cast<double>(x)) /
           ((static_cast<double>(x) + 1.0) *
            (dn - dk - dm + static_cast<double>(x) + 1.0));
  });
}

/// HRUA ratio-of-uniforms rejection (Stadlober 1990) in the canonical
/// coordinates: sample over the smaller marked class and the smaller
/// sample side (where the support starts at 0 — min(draws, total-draws)
/// never exceeds max(marked, total-marked)), then undo the two symmetry
/// transformations.  `var` is the variance and `frac` the marked
/// fraction min(marked, total−marked)/total, computed once by the
/// dispatcher (the setup is division-latency bound, so shared
/// subexpressions matter).
///
/// A point (u, v) uniform in the enclosing rectangle is mapped to
/// w = mean + 0.5 + d8·(v − 0.5)/u and accepted when u² <= f(w)/f(mode).
/// The pmf is log-concave, so the rectangle half-width d8 = D1·sqrt(var
/// + 0.5) + D2 with D1 = 2·sqrt(2/e) and D2 = 3 − 2·sqrt(3/e) dominates
/// the ratio-of-uniforms region and the sampler is exact in O(1)
/// expected time.  Support beyond mean + 16·sd carries less mass than
/// any drawable uniform resolves and is cut like the reference HRUA.
/// The acceptance test is evaluated in whichever domain is cheaper for
/// the candidate: near the mode (|z − mode| <= kHruaProductCutoff, the
/// common case) f(z)/f(mode) is an exact product of adjacent-pmf ratios,
/// batched eight factors per division, so no log is touched; far from
/// the mode it is a log-factorial sum with the classical squeeze pair
/// around the exact log test.  Both are evaluations of the same pmf at
/// double precision, so the split is invisible beyond rounding.
constexpr double kHruaD1 = 1.7155277699214135;  // 2·sqrt(2/e)
constexpr double kHruaD2 = 0.8989161620588988;  // 3 − 2·sqrt(3/e)
constexpr std::int64_t kHruaProductCutoff = 32;

std::int64_t hypergeometric_hrua(Xoshiro256& gen, std::int64_t total,
                                 std::int64_t marked, std::int64_t draws,
                                 double var, double frac) {
  const std::int64_t mingood = std::min(marked, total - marked);
  const std::int64_t maxgood = total - mingood;
  const std::int64_t m = std::min(draws, total - draws);
  const double mean = static_cast<double>(m) * frac;
  const std::int64_t hi = std::min(m, mingood);
  // floor((m+1)(mingood+1)/(total+2)) is the exact mode.  The double
  // evaluation is provably exact while the numerator product stays
  // below 2^53 (the factors convert exactly, the product is exact, and
  // a correctly-rounded division can only cross the next integer when
  // quotient · 2^-53 >= 1/(total+2), i.e. when the product >= 2^53; an
  // exactly-integer quotient is a two-way mode tie where either choice
  // is an argmax).  Beyond 2^53 one rounding can land the floor a step
  // off, and the rejection kernel needs the exact argmax — an
  // underestimated f(mode) would shrink the hat — so climb the
  // log-concave pmf to the true mode via the adjacent ratio (O(1)
  // steps from a one-off candidate, paid only at >= 2^53 scale).
  const double mode_numerator = static_cast<double>(m + 1) *
                                static_cast<double>(mingood + 1);
  auto mode = std::clamp(
      static_cast<std::int64_t>(
          std::floor(mode_numerator / static_cast<double>(total + 2))),
      std::int64_t{0}, hi);
  if (mode_numerator >= 0x1.0p53) {
    const auto ratio_up_at = [&](std::int64_t x) {
      return (static_cast<double>(mingood - x) *
              static_cast<double>(m - x)) /
             (static_cast<double>(x + 1) *
              static_cast<double>(maxgood - m + x + 1));
    };
    while (mode < hi && ratio_up_at(mode) > 1.0) ++mode;
    while (mode > 0 && ratio_up_at(mode - 1) < 1.0) --mode;
  }
  const double dming = static_cast<double>(mingood);
  const double dm = static_cast<double>(m);
  const double dtail = static_cast<double>(maxgood - m);
  // f(x+1)/f(x) = up_num(x)/up_den(x), and log f(x) up to a constant.
  const auto up_num = [=](double x) { return (dming - x) * (dm - x); };
  const auto up_den = [=](double x) { return (x + 1.0) * (dtail + x + 1.0); };
  const auto log_weight = [&](std::int64_t x) {
    return -(log_fact(x) + log_fact(mingood - x) + log_fact(m - x) +
             log_fact(maxgood - m + x));
  };
  const double d6 = mean + 0.5;
  const double d7 = std::sqrt(var + 0.5);
  const double d8 = kHruaD1 * d7 + kHruaD2;
  const double cut_hi = std::min(static_cast<double>(hi) + 1.0,
                                 std::floor(d6 + 16.0 * d7));
  double lw_mode = 0.0;  // computed on the first far candidate only
  bool have_lw_mode = false;
  std::int64_t z = 0;
  while (true) {
    const double u = uniform01(gen);
    const double v = uniform01(gen);
    const double w = d6 + d8 * (v - 0.5) / u;
    // !(w >= 0) also catches the NaN from u == 0, v == 0.5.
    if (!(w >= 0.0) || w >= cut_hi) continue;
    z = static_cast<std::int64_t>(std::floor(w));
    if (std::llabs(z - mode) <= kHruaProductCutoff) {
      // Exact linear-domain test: Π up_num/up_den over [min(z,mode),
      // max(z,mode)) is f(max)/f(min), compared against u² (inverted for
      // a downward candidate by moving the factor to the other side).
      // The walk runs on a double-valued position (counts are far below
      // 2^53, so increments are exact) with two independent accumulator
      // pairs so the multiply chains pipeline; factors are O(support²)
      // each, so a chunk of eight stays far below the double range —
      // one division per chunk.
      const bool upward = z >= mode;
      double x = static_cast<double>(upward ? mode : z);
      std::int64_t steps = upward ? z - mode : mode - z;
      double ratio = 1.0;
      while (steps > 0) {
        const int chunk = steps >= 8 ? 8 : static_cast<int>(steps);
        double n0 = 1.0, n1 = 1.0, d0 = 1.0, d1 = 1.0;
        int j = 0;
        for (; j + 1 < chunk; j += 2) {
          n0 *= up_num(x);
          d0 *= up_den(x);
          n1 *= up_num(x + 1.0);
          d1 *= up_den(x + 1.0);
          x += 2.0;
        }
        if (j < chunk) {
          n0 *= up_num(x);
          d0 *= up_den(x);
          x += 1.0;
        }
        ratio *= (n0 * n1) / (d0 * d1);
        steps -= chunk;
      }
      // upward: accept iff u² <= ratio; downward: iff u²·ratio <= 1.
      if (upward ? (u * u <= ratio) : (u * u * ratio <= 1.0)) break;
      continue;
    }
    if (!have_lw_mode) {
      lw_mode = log_weight(mode);
      have_lw_mode = true;
    }
    const double t = log_weight(z) - lw_mode;
    if (u * (4.0 - u) - 3.0 <= t) break;  // squeeze: accept
    if (u * (u - t) >= 1.0) continue;     // squeeze: reject
    if (2.0 * std::log(u) <= t) break;    // exact test
  }
  if (marked > total - marked) z = m - z;
  if (m < draws) z = marked - z;
  return z;
}

/// The dispatch rule: rejection needs enough variance to beat the
/// chop-down walk, and either Stirling-scale pmf arguments (the
/// chop-down setup is what the rejection kernel avoids) or a walk so
/// long that even a table-backed setup loses.  `total` is the largest
/// value the chop-down setup feeds to log_fact.
bool rejection_pays(double var, std::int64_t total) {
  if (var < kRejectionVarianceCutoff) return false;
  return total >= kLogFactTableSize || var >= kRejectionInTableVarianceCutoff;
}

/// Validation-free dispatcher shared by hypergeometric() and the
/// conditional chains (whose loop invariants already guarantee the
/// preconditions).  One division computes the marked fraction; variance
/// and the HRUA mean both reuse it.
std::int64_t hypergeometric_impl(Xoshiro256& gen, std::int64_t total,
                                 std::int64_t marked, std::int64_t draws) {
  const std::int64_t lo = std::max<std::int64_t>(0, draws - (total - marked));
  const std::int64_t hi = std::min(draws, marked);
  if (lo == hi) return lo;
  const double dn = static_cast<double>(total);
  const double p = static_cast<double>(marked) / dn;
  const double var =
      hypergeometric_variance_at(p, static_cast<double>(draws), dn);
  if (rejection_pays(var, total))
    return hypergeometric_hrua(gen, total, marked, draws, var,
                               std::min(p, 1.0 - p));
  return hypergeometric_chopdown_impl(gen, total, marked, draws, lo, hi);
}

}  // namespace

std::int64_t hypergeometric(Xoshiro256& gen, std::int64_t total,
                            std::int64_t marked, std::int64_t draws) {
  hypergeometric_validate(total, marked, draws);
  const std::int64_t x = hypergeometric_impl(gen, total, marked, draws);
  // Support check: HRUA's hat can only propose in-range values and the
  // chop-down walk is clamped, but both depend on float mode/variance
  // setup — an escape here would over-draw a colour in the batch engine.
  SIM_ASSERT(x >= std::max<std::int64_t>(0, draws - (total - marked)));
  SIM_ASSERT(x <= std::min(draws, marked));
  return x;
}

namespace {

/// Sample sizes up to this are tallied by a sequential urn walk (one
/// uniform + an O(k) scan per ball) instead of the conditional
/// hypergeometric chain: for a handful of draws from population-scale
/// category counts the k chain setups (each touching factorials of the
/// pool sizes) cost far more than draws·k flops.  Exact either way — a
/// without-replacement sequence tallied by category IS the multivariate
/// hypergeometric — so the cutoff is distributionally invisible.
constexpr std::int64_t kMvhUrnCutoff = 32;

/// Above the urn cutoff, a sample with kMvhMultinomialPoolRatio·draws²
/// <= pool is drawn as a corrected multinomial: the mean acceptance is
/// then at least e^{−1/16}, and k cheap binomials beat k hypergeometric
/// setups.
constexpr std::int64_t kMvhMultinomialPoolRatio = 8;

bool mvh_uses_multinomial(std::int64_t pool, std::int64_t draws) {
  // 8·draws² <= pool without the overflow of squaring.
  return draws > kMvhUrnCutoff &&
         draws <= pool / (kMvhMultinomialPoolRatio * draws);
}

/// Validates a multivariate-hypergeometric call and returns the pool.
std::int64_t mvh_validate(std::span<const std::int64_t> counts,
                          std::int64_t draws, std::span<std::int64_t> out) {
  if (out.size() != counts.size())
    throw std::invalid_argument(
        "multivariate_hypergeometric: out size mismatch");
  std::int64_t pool = 0;
  for (const std::int64_t c : counts) {
    if (c < 0)
      throw std::invalid_argument(
          "multivariate_hypergeometric: negative count");
    pool += c;
  }
  if (draws < 0 || draws > pool)
    throw std::invalid_argument(
        "multivariate_hypergeometric: draws outside [0, sum(counts)]");
  return pool;
}

/// The without-replacement correction of a with-replacement tally: one
/// uniform accepts the per-category tally c of a sample drawn with
/// replacement from `counts` with probability
/// A(c) = Π_i Π_{j<c_i} (1 − j/counts_i) = Π_i counts_i^(c_i)/counts_i^{c_i}
/// (falling over plain powers).  Any ordered with-replacement sequence
/// s has probability Π_i (counts_i/pool)^{c_i}, and the same sequence
/// drawn without replacement Π_i counts_i^(c_i)/pool^(|s|): the ratio
/// is A(c(s)) up to a constant, so every accepted sequence — and any
/// function of it — has the without-replacement law.  A(c) is 0 once
/// some c_i exceeds counts_i (the factor j = counts_i vanishes).  With
/// D = Σ_i c_i(c_i − 1)/(2·counts_i), 1 − D <= A(c) <= e^{−D}, so the
/// product is only formed when the uniform falls between the two.
bool accept_without_replacement(Xoshiro256& gen,
                                std::span<const std::int64_t> counts,
                                std::span<const std::int64_t> tally) {
  double d = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const auto c = static_cast<double>(tally[i]);
    if (tally[i] >= 2)
      d += c * (c - 1.0) / (2.0 * static_cast<double>(counts[i]));
  }
  const double u = uniform01(gen);
  if (u < 1.0 - d) return true;
  if (u >= std::exp(-d)) return false;
  double a = 1.0;
  for (std::size_t i = 0; i < counts.size() && a > u; ++i) {
    const auto ci = static_cast<double>(counts[i]);
    for (std::int64_t j = 1; j < tally[i] && a > u; ++j)
      a *= 1.0 - static_cast<double>(j) / ci;
  }
  return u < a;
}

/// The conditional-binomial chain: category i takes Binomial(remaining
/// trials, counts_i / remaining pool), the last category the rest.
/// Writes all of `out`.  The pool is exact, so the category that holds
/// all of it takes p == 1 and every remaining trial, which ends the walk.
void binomial_chain(Xoshiro256& gen, std::int64_t trials,
                    std::span<const std::int64_t> counts, std::int64_t pool,
                    std::span<std::int64_t> out) {
  std::fill(out.begin(), out.end(), std::int64_t{0});
  std::int64_t remaining = trials;
  for (std::size_t i = 0; i + 1 < counts.size() && remaining > 0; ++i) {
    const std::int64_t x = binomial(
        gen, remaining,
        static_cast<double>(counts[i]) / static_cast<double>(pool));
    out[i] = x;
    remaining -= x;
    pool -= counts[i];
  }
  out.back() = remaining;
}

/// Sampling without replacement as a corrected multinomial: the
/// proposal c ~ Multinomial(draws; counts/pool) from the binomial chain,
/// kept by accept_without_replacement().
void mvh_multinomial(Xoshiro256& gen, std::span<const std::int64_t> counts,
                     std::int64_t pool, std::int64_t draws,
                     std::span<std::int64_t> out) {
  do {
    binomial_chain(gen, draws, counts, pool, out);
  } while (!accept_without_replacement(gen, counts, out));
}

}  // namespace

void multivariate_hypergeometric(Xoshiro256& gen,
                                 std::span<const std::int64_t> counts,
                                 std::int64_t draws,
                                 std::span<std::int64_t> out) {
  std::int64_t pool = mvh_validate(counts, draws, out);
  if (draws <= kMvhUrnCutoff) {
    // `out` holds the *remaining* counts during the walk (one load per
    // category in the scan) and is flipped to the taken counts at the
    // end.
    std::copy(counts.begin(), counts.end(), out.begin());
    for (std::int64_t t = 0; t < draws; ++t) {
      std::int64_t target = uniform_below(gen, pool - t);
      for (std::size_t i = 0; i < out.size(); ++i) {
        if (target < out[i]) {
          --out[i];
          break;
        }
        target -= out[i];
      }
    }
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = counts[i] - out[i];
  } else if (mvh_uses_multinomial(pool, draws)) {
    mvh_multinomial(gen, counts, pool, draws, out);
  } else {
    std::int64_t remaining = draws;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (remaining == 0) {
        out[i] = 0;
        continue;
      }
      // The loop invariants guarantee the preconditions, so skip the
      // per-call validation of the public entry point.
      const std::int64_t x =
          hypergeometric_impl(gen, pool, counts[i], remaining);
      out[i] = x;
      remaining -= x;
      pool -= counts[i];
    }
  }
  SIM_IF_CHECKED({
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      // Each category takes within its own count, and the split spends
      // exactly `draws` — the batch engine's colour margins rely on both.
      SIM_ASSERT(out[i] >= 0 && out[i] <= counts[i]);
      sum += out[i];
    }
    SIM_DCHECK_EQ(sum, draws);
  });
}

namespace {

/// Validates a paired draw and returns the pool.
std::int64_t pairs_validate(std::span<const std::int64_t> counts,
                            std::int64_t pairs,
                            std::span<std::int64_t> members,
                            std::span<std::int64_t> mono) {
  if (mono.size() != counts.size())
    throw std::invalid_argument(
        "multivariate_hypergeometric_pairs: mono size mismatch");
  if (pairs < 0)
    throw std::invalid_argument(
        "multivariate_hypergeometric_pairs: negative pair count");
  const std::int64_t pool = mvh_validate(counts, 0, members);
  if (pairs > pool / 2)
    throw std::invalid_argument(
        "multivariate_hypergeometric_pairs: 2 * pairs exceeds the pool");
  return pool;
}

/// The paired path: the 2·pairs members drawn *with* replacement are
/// i.i.d. colours, two per pair, so one walk over the colours yields
/// both tallies.  Given that a slot holds none of colours < i, it holds
/// colour i with probability q = counts_i / (counts_i + … + counts_k);
/// a pair with both slots open is then monochromatic with probability
/// q², half-filled with 2q(1 − q), and a pair with one slot open is
/// completed with q.  The with-replacement slot sequence differs from
/// the without-replacement one only through the colour totals c, so
/// accept_without_replacement() on c makes (c, mono) exact.  At the last
/// non-empty colour q = 1 fills every remaining slot.
void pairs_multinomial(Xoshiro256& gen, std::span<const std::int64_t> counts,
                       std::int64_t pool, std::int64_t pairs,
                       std::span<std::int64_t> members,
                       std::span<std::int64_t> mono) {
  do {
    std::int64_t open = pairs;  // pairs with both slots still free
    std::int64_t singles = 0;   // pairs with one slot already taken
    std::int64_t remaining = pool;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (open == 0 && singles == 0) {
        members[i] = 0;
        mono[i] = 0;
        continue;
      }
      const double q = static_cast<double>(counts[i]) /
                       static_cast<double>(remaining);
      const std::int64_t both = binomial(gen, open, q * q);
      const std::int64_t half =
          binomial(gen, open - both, 2.0 * q / (1.0 + q));
      const std::int64_t fill = binomial(gen, singles, q);
      members[i] = 2 * both + half + fill;
      mono[i] = both;
      open -= both + half;
      singles += half - fill;
      remaining -= counts[i];
    }
    // Every slot is filled by the last non-empty colour (q == 1).
    SIM_DCHECK_EQ(open, 0);
    SIM_DCHECK_EQ(singles, 0);
  } while (!accept_without_replacement(gen, counts, members));
}

}  // namespace

void multivariate_hypergeometric_pairs(Xoshiro256& gen,
                                       std::span<const std::int64_t> counts,
                                       std::int64_t pairs,
                                       std::span<std::int64_t> members,
                                       std::span<std::int64_t> mono) {
  const std::int64_t pool = pairs_validate(counts, pairs, members, mono);
  if (mvh_uses_multinomial(pool, 2 * pairs)) {
    pairs_multinomial(gen, counts, pool, pairs, members, mono);
  } else {
    // The member split, then the slot-occupancy chain over a uniform
    // perfect matching of the members: colour i first splits its members
    // between double-open pairs and half-filled ones (hypergeometric),
    // then the monochromatic pair count among the double-open pairs is
    // one full_pairs draw.
    multivariate_hypergeometric(gen, counts, 2 * pairs, members);
    std::int64_t open = pairs;
    std::int64_t singles = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      const std::int64_t in_pairs = hypergeometric_impl(
          gen, 2 * open + singles, 2 * open, members[i]);
      // The support check of hypergeometric(): an escape would place more
      // members than colour i has, or more than the open slots hold.
      SIM_ASSERT(in_pairs >= std::max<std::int64_t>(0, members[i] - singles));
      SIM_ASSERT(in_pairs <= std::min(members[i], 2 * open));
      const std::int64_t both = full_pairs(gen, open, in_pairs);
      mono[i] = both;
      const std::int64_t half = in_pairs - 2 * both;
      open -= both + half;
      singles += half - (members[i] - in_pairs);
      SIM_ASSERT(open >= 0 && singles >= 0);
    }
    // All 2·pairs slots must be exactly filled once every colour's
    // members are placed.
    SIM_DCHECK_EQ(open, 0);
    SIM_DCHECK_EQ(singles, 0);
  }
  SIM_IF_CHECKED({
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      SIM_ASSERT(members[i] >= 0 && members[i] <= counts[i]);
      SIM_ASSERT(mono[i] >= 0 && 2 * mono[i] <= members[i]);
      sum += members[i];
    }
    SIM_DCHECK_EQ(sum, 2 * pairs);
  });
}

std::int64_t full_pairs(Xoshiro256& gen, std::int64_t pairs,
                        std::int64_t items) {
  if (pairs < 0 || items < 0 || items > 2 * pairs)
    throw std::invalid_argument("full_pairs: need 0 <= items <= 2 * pairs");
  const std::int64_t lo = std::max<std::int64_t>(0, items - pairs);
  const std::int64_t hi = items / 2;
  if (lo == hi) return lo;
  // Mode-centred chop-down, exactly like hypergeometric_chopdown(): start
  // from floor(E[t]) = floor(m(m−1)/(2(2p−1))) (within one of the mode),
  // m = items, p = pairs, and expand outwards via the adjacent ratio
  // f(t+1)/f(t) = (m−2t)(m−2t−1) / (4 (t+1) (p − m + t + 1)).
  const double dm = static_cast<double>(items);
  const double dp = static_cast<double>(pairs);
  auto mode = static_cast<std::int64_t>(
      std::floor(dm * (dm - 1.0) / (2.0 * (2.0 * dp - 1.0))));
  mode = std::clamp(mode, lo, hi);
  const double log_fm = log_choose(pairs, mode) +
                        log_choose(pairs - mode, items - 2 * mode) +
                        static_cast<double>(items - 2 * mode) *
                            0.6931471805599453 -  // ln 2
                        log_choose(2 * pairs, items);
  const std::int64_t t = chop_down_from_mode(
      gen, lo, hi, mode, std::exp(log_fm), [&](std::int64_t x) {
        const double b = dm - 2.0 * static_cast<double>(x);
        return b * (b - 1.0) /
               (4.0 * (static_cast<double>(x) + 1.0) *
                (dp - dm + static_cast<double>(x) + 1.0));
      });
  SIM_ASSERT(t >= lo && t <= hi);  // doubly-filled slots within support
  return t;
}

namespace detail {

bool hypergeometric_uses_rejection(std::int64_t total, std::int64_t marked,
                                   std::int64_t draws) {
  hypergeometric_validate(total, marked, draws);
  const std::int64_t lo = std::max<std::int64_t>(0, draws - (total - marked));
  const std::int64_t hi = std::min(draws, marked);
  if (lo == hi) return false;
  const double dn = static_cast<double>(total);
  return rejection_pays(
      hypergeometric_variance_at(static_cast<double>(marked) / dn,
                                 static_cast<double>(draws), dn),
      total);
}

std::int64_t hypergeometric_chopdown(Xoshiro256& gen, std::int64_t total,
                                     std::int64_t marked, std::int64_t draws) {
  hypergeometric_validate(total, marked, draws);
  const std::int64_t lo = std::max<std::int64_t>(0, draws - (total - marked));
  const std::int64_t hi = std::min(draws, marked);
  if (lo == hi) return lo;
  return hypergeometric_chopdown_impl(gen, total, marked, draws, lo, hi);
}

bool multivariate_hypergeometric_uses_multinomial(std::int64_t pool,
                                                  std::int64_t draws) {
  if (draws < 0 || draws > pool)
    throw std::invalid_argument(
        "multivariate_hypergeometric: draws outside [0, sum(counts)]");
  return mvh_uses_multinomial(pool, draws);
}

void multivariate_hypergeometric_multinomial(
    Xoshiro256& gen, std::span<const std::int64_t> counts, std::int64_t draws,
    std::span<std::int64_t> out) {
  const std::int64_t pool = mvh_validate(counts, draws, out);
  if (counts.empty()) return;
  mvh_multinomial(gen, counts, pool, draws, out);
}

void multivariate_hypergeometric_pairs_multinomial(
    Xoshiro256& gen, std::span<const std::int64_t> counts, std::int64_t pairs,
    std::span<std::int64_t> members, std::span<std::int64_t> mono) {
  const std::int64_t pool = pairs_validate(counts, pairs, members, mono);
  pairs_multinomial(gen, counts, pool, pairs, members, mono);
}

}  // namespace detail

}  // namespace divpp::rng
