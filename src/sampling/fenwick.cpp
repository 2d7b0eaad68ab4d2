#include "sampling/fenwick.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "check/invariant.h"
#include "rng/distributions.h"

namespace divpp::sampling {

namespace {

[[nodiscard]] std::int64_t highest_bit_at_most(std::int64_t n) noexcept {
  std::int64_t bit = 1;
  while ((bit << 1) <= n) bit <<= 1;
  return n >= 1 ? bit : 0;
}

[[nodiscard]] constexpr std::int64_t lowbit(std::int64_t i) noexcept {
  return i & -i;
}

}  // namespace

// ---- FenwickCounts --------------------------------------------------------

FenwickCounts::FenwickCounts(std::span<const std::int64_t> counts) {
  assign(counts);
}

void FenwickCounts::assign(std::span<const std::int64_t> counts) {
  for (const std::int64_t c : counts) {
    if (c < 0)
      throw std::invalid_argument("FenwickCounts: negative count");
  }
  leaf_.assign(counts.begin(), counts.end());
  const auto n = static_cast<std::int64_t>(leaf_.size());
  cap_ = 1;
  while (cap_ < n) cap_ <<= 1;
  if (n == 0) cap_ = 0;
  tree_.assign(static_cast<std::size_t>(cap_) + 1, 0);
  total_ = 0;
  // Linear-time build: push each leaf into its parent chain once.
  for (std::int64_t i = 1; i <= cap_; ++i) {
    if (i <= n)
      tree_[static_cast<std::size_t>(i)] +=
          leaf_[static_cast<std::size_t>(i - 1)];
    const std::int64_t parent = i + lowbit(i);
    if (parent <= cap_)
      tree_[static_cast<std::size_t>(parent)] +=
          tree_[static_cast<std::size_t>(i)];
  }
  for (const std::int64_t c : leaf_) total_ += c;
}

void FenwickCounts::push_back(std::int64_t value) {
  if (value < 0)
    throw std::invalid_argument("FenwickCounts::push_back: negative count");
  // Cold path (palette growth): rebuild over the extended leaf vector.
  std::vector<std::int64_t> extended = leaf_;
  extended.push_back(value);
  assign(extended);
}

void FenwickCounts::add(std::int64_t i, std::int64_t delta) noexcept {
  SIM_ASSERT(i >= 0 && i < static_cast<std::int64_t>(leaf_.size()));
  leaf_[static_cast<std::size_t>(i)] += delta;
  // Counts are agent tallies: they may never go negative, and the
  // running total mirrors the leaves exactly (integers don't drift).
  SIM_ASSERT(leaf_[static_cast<std::size_t>(i)] >= 0);
  total_ += delta;
  SIM_ASSERT(total_ >= 0);
  for (std::int64_t j = i + 1; j <= cap_; j += lowbit(j))
    tree_[static_cast<std::size_t>(j)] += delta;
}

void FenwickCounts::set(std::int64_t i, std::int64_t value) noexcept {
  add(i, value - leaf_[static_cast<std::size_t>(i)]);
}

std::int64_t FenwickCounts::prefix(std::int64_t i) const noexcept {
  std::int64_t sum = 0;
  for (std::int64_t j = i; j > 0; j -= lowbit(j))
    sum += tree_[static_cast<std::size_t>(j)];
  return sum;
}

std::int64_t FenwickCounts::find_excluding(std::int64_t target,
                                           std::int64_t excluded)
    const noexcept {
  // Branch-free descent over the padded tree: each level computes its
  // decision with mask arithmetic, so random targets cost no branch
  // mispredicts.  Zero padding keeps the mapping exact (a zero node can
  // never satisfy `node > target`... it is skipped by `node <= target`
  // only when the remaining mass lies further right, which the invariant
  // target < sum(remaining range) guarantees).
  const std::int64_t* const tree = tree_.data();
  std::int64_t pos = 0;  // 0-based count of leaves strictly left of cursor
  for (std::int64_t bit = cap_; bit > 0; bit >>= 1) {
    const std::int64_t next = pos + bit;
    // tree[next] covers 0-based leaves [pos, next); subtract the excluded
    // unit when its leaf falls inside (unsigned trick handles excluded<0).
    const std::int64_t node =
        tree[next] -
        static_cast<std::int64_t>(
            static_cast<std::uint64_t>(excluded - pos) <
            static_cast<std::uint64_t>(bit));
    const std::int64_t take = -static_cast<std::int64_t>(node <= target);
    target -= node & take;
    pos += bit & take;
  }
  return std::min(pos, static_cast<std::int64_t>(leaf_.size()) - 1);
}

std::int64_t FenwickCounts::sample(rng::Xoshiro256& gen) const {
  return find(rng::uniform_below(gen, total_));
}

// ---- FenwickPropensities --------------------------------------------------

FenwickPropensities::FenwickPropensities(std::span<const double> weights) {
  assign(weights);
}

void FenwickPropensities::assign(std::span<const double> weights) {
  for (const double w : weights) {
    if (w < 0.0)
      throw std::invalid_argument("FenwickPropensities: negative weight");
  }
  leaf_.assign(weights.begin(), weights.end());
  tree_.assign(leaf_.size() + 1, 0.0);
  top_bit_ = highest_bit_at_most(static_cast<std::int64_t>(leaf_.size()));
  rebuild();
}

void FenwickPropensities::push_back(double weight) {
  if (weight < 0.0)
    throw std::invalid_argument(
        "FenwickPropensities::push_back: negative weight");
  if (tree_.empty()) tree_.push_back(0.0);  // 1-based dummy slot
  leaf_.push_back(weight);
  const auto i = static_cast<std::int64_t>(leaf_.size());
  double node = weight;
  for (std::int64_t j = i - 1; j > i - lowbit(i); j -= lowbit(j))
    node += tree_[static_cast<std::size_t>(j)];
  tree_.push_back(node);
  total_ += weight;
  top_bit_ = highest_bit_at_most(i);
}

void FenwickPropensities::rebuild() noexcept {
  const auto n = static_cast<std::int64_t>(leaf_.size());
  std::fill(tree_.begin(), tree_.end(), 0.0);
  total_ = 0.0;
  for (std::int64_t i = 1; i <= n; ++i) {
    tree_[static_cast<std::size_t>(i)] += leaf_[static_cast<std::size_t>(i - 1)];
    const std::int64_t parent = i + lowbit(i);
    if (parent <= n)
      tree_[static_cast<std::size_t>(parent)] +=
          tree_[static_cast<std::size_t>(i)];
    total_ += leaf_[static_cast<std::size_t>(i - 1)];
  }
  updates_until_rebuild_ = std::max<std::int64_t>(n, 64);
}

void FenwickPropensities::set(std::int64_t i, double value) noexcept {
  SIM_ASSERT(i >= 0 && i < static_cast<std::int64_t>(leaf_.size()));
  SIM_ASSERT(value >= 0.0);
  const double delta = value - leaf_[static_cast<std::size_t>(i)];
  leaf_[static_cast<std::size_t>(i)] = value;
  if (--updates_until_rebuild_ <= 0) {
    SIM_IF_CHECKED({
      // Propensity-drift bound, checked at the moment the periodic
      // rebuild would wipe the evidence: the delta-maintained running
      // total may wander from the exactly-stored leaves by ~one rounding
      // per update over the rebuild period — a larger gap means a delta
      // was applied twice or to the wrong node.  1e-9 relative is ~4
      // decades of slack over the worst n·2⁻⁵² accumulation.
      double exact = 0.0;
      for (const double leaf : leaf_) exact += leaf;
      const double tol = 1e-9 * std::max(1.0, exact) + 1e-300;
      SIM_DCHECK_LE(std::fabs((total_ + delta) - exact), tol);
    });
    rebuild();
    return;
  }
  total_ += delta;
  const auto n = static_cast<std::int64_t>(leaf_.size());
  for (std::int64_t j = i + 1; j <= n; j += lowbit(j))
    tree_[static_cast<std::size_t>(j)] += delta;
}

std::int64_t FenwickPropensities::find(double target) const noexcept {
  const auto n = static_cast<std::int64_t>(leaf_.size());
  std::int64_t pos = 0;
  for (std::int64_t bit = top_bit_; bit > 0; bit >>= 1) {
    const std::int64_t next = pos + bit;
    if (next <= n) {
      const double node = tree_[static_cast<std::size_t>(next)];
      if (node <= target) {
        target -= node;
        pos = next;
      }
    }
  }
  pos = std::min(pos, n - 1);
  // Rounding in the descent can land on a zero-weight leaf; snap to the
  // nearest category that actually carries mass.
  if (leaf_[static_cast<std::size_t>(pos)] > 0.0) return pos;
  for (std::int64_t step = 1; step < n; ++step) {
    if (pos + step < n && leaf_[static_cast<std::size_t>(pos + step)] > 0.0)
      return pos + step;
    if (pos - step >= 0 && leaf_[static_cast<std::size_t>(pos - step)] > 0.0)
      return pos - step;
  }
  return pos;
}

std::int64_t FenwickPropensities::sample(rng::Xoshiro256& gen) const {
  return find(rng::uniform01(gen) * total());
}

}  // namespace divpp::sampling
