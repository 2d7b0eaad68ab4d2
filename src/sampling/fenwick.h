#ifndef DIVPP_SAMPLING_FENWICK_H
#define DIVPP_SAMPLING_FENWICK_H

/// \file fenwick.h
/// Binary sum-tree dynamic samplers.
///
/// The kinetic-Monte-Carlo workhorse for the lumped count chain: the
/// per-colour counts/propensities change by one entry per transition, so a
/// sum tree gives O(log k) point updates and O(log k) weighted draws where
/// a linear scan pays O(k) per draw.  Both samplers share one layout
/// (detail::SumTree): a heap-ordered binary tree padded with zero leaves
/// to a power-of-two capacity `cap` — node 1 is the root and holds
/// total(), node j has children 2j and 2j + 1, and the leaves sit at
/// [cap, 2·cap).  Every draw descends exactly log₂ cap levels and picks
/// each child with a select instead of a data-dependent branch, so random
/// targets cost no mispredicts.  Two variants (the class names predate
/// the heap layout):
///
///  * FenwickCounts        — exact integer counts (agent classes); an
///    update adds its delta along the leaf-to-root path;
///  * FenwickPropensities  — double propensities (flip rates); an update
///    recomputes each ancestor as the sum of its two children, so the tree
///    is a pure function of its leaves: no drift, whatever the history.
///
/// Draws map a target into the category ordering exactly like the linear
/// scans in rng/distributions.h (`sample_counts` / `sample_discrete`),
/// which stay as the reference implementations the distributional tests
/// pin these trees against.

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "check/invariant.h"
#include "rng/xoshiro.h"

namespace divpp::sampling {

namespace detail {

/// Heap-layout sum tree over non-negative values (see the file comment).
/// Invariant: every internal node equals the sum of its two children,
/// computed as `left + right`, and padding leaves are zero.
template <typename T>
class SumTree {
 public:
  /// Rebuilds over `values` in O(k).
  /// \throws std::invalid_argument on a negative value.
  void assign(std::span<const T> values);

  /// Appends one leaf holding `value`: O(log k), or an O(k) rebuild when
  /// the capacity doubles.  \throws std::invalid_argument when negative.
  void push_back(T value);

  /// Overwrites leaf i and recomputes its ancestors.  \pre value >= 0.
  /// O(log k).  Operand order never matters (IEEE addition commutes), so
  /// the result equals a fresh build over the same leaves bit for bit.
  void set(std::int64_t i, T value) noexcept {
    SIM_ASSERT(i >= 0 && i < size_);
    SIM_ASSERT(value >= T{0});
    T* const tree = tree_.data();
    std::int64_t node = cap_ + i;
    T sum = value;
    tree[node] = sum;
    for (; node > 1; node >>= 1) {
      sum += tree[node ^ 1];
      tree[node >> 1] = sum;
    }
  }

  /// Current value of leaf i.  O(1).
  [[nodiscard]] T get(std::int64_t i) const noexcept {
    return tree_[static_cast<std::size_t>(cap_ + i)];
  }

  /// Sum of all leaves: the root.  O(1).
  [[nodiscard]] T total() const noexcept { return tree_[1]; }

  /// Number of categories.
  [[nodiscard]] std::int64_t size() const noexcept { return size_; }

  /// SIM_CHECKED builds: every internal node equals the sum of its two
  /// children exactly, leaves are non-negative and padding leaves zero.
  /// O(cap); an empty body otherwise.
  void check_invariants() const;

 protected:
  std::vector<T> tree_ = std::vector<T>(2);  // slot 0 unused
  std::int64_t cap_ = 1;   // power-of-two leaf capacity >= size_
  std::int64_t size_ = 0;
  int depth_ = 0;          // log₂ cap_: levels every descent walks
};

extern template class SumTree<std::int64_t>;
extern template class SumTree<double>;

}  // namespace detail

/// Sum tree over non-negative integer counts with O(log k) point update,
/// prefix sum, and weighted category draw.
class FenwickCounts final : public detail::SumTree<std::int64_t> {
 public:
  FenwickCounts() = default;
  /// Builds over a copy of `counts` in O(k).  \pre all counts >= 0.
  explicit FenwickCounts(std::span<const std::int64_t> counts) {
    assign(counts);
  }

  /// counts[i] += delta.  \pre the result stays >= 0.  O(log k).
  void add(std::int64_t i, std::int64_t delta) noexcept {
    SIM_ASSERT(i >= 0 && i < size_);
    std::int64_t* const tree = tree_.data();
    for (std::int64_t node = cap_ + i; node > 0; node >>= 1)
      tree[node] += delta;
    // Counts are agent tallies: they may never go negative.
    SIM_ASSERT(get(i) >= 0);
  }

  /// Sum of counts[0..i) (i may equal size()).  O(log k).
  [[nodiscard]] std::int64_t prefix(std::int64_t i) const noexcept;

  /// The category owning flattened position `target`: the smallest i with
  /// prefix(i+1) > target — identical to the linear scan's mapping.
  /// \pre 0 <= target < total().  O(log k).
  [[nodiscard]] std::int64_t find(std::int64_t target) const noexcept {
    return find_excluding(target, -1);
  }

  /// find() over the counts with one unit removed from category
  /// `excluded` (pass -1 for none) — the "minus the tagged/initiator
  /// agent" draw of the count chain, without mutating the tree.
  /// \pre excluded < size(); counts[excluded] >= 1 when excluded >= 0.
  [[nodiscard]] std::int64_t find_excluding(std::int64_t target,
                                            std::int64_t excluded)
      const noexcept {
    // At shift s the left child 2·node covers the excluded leaf iff it is
    // that leaf's ancestor (cap + excluded) >> s; its mass then loses the
    // excluded unit.  excluded = -1 gives cap − 1, whose ancestors sit one
    // level above the child tested and never match.  The invariant
    // target < mass(node) keeps the descent off zero and padding leaves.
    const std::int64_t* const tree = tree_.data();
    const std::int64_t excluded_leaf = cap_ + excluded;
    std::int64_t node = 1;
    for (int s = depth_ - 1; s >= 0; --s) {
      const std::int64_t left = 2 * node;
      const std::int64_t mass =
          tree[left] -
          static_cast<std::int64_t>((excluded_leaf >> s) == left);
      const std::int64_t right = static_cast<std::int64_t>(mass <= target);
      target -= mass & -right;
      node = left + right;
    }
    return node - cap_;
  }

  /// Draws a category with probability counts[i] / total().
  /// \pre total() >= 1.  Consumes one uniform_below draw.
  [[nodiscard]] std::int64_t sample(rng::Xoshiro256& gen) const;
};

/// Sum tree over non-negative double propensities.  Every ancestor of an
/// updated leaf is recomputed from its children, so total() and find()
/// depend only on the current leaves — there is no running total to
/// drift and nothing to rebuild periodically.
class FenwickPropensities final : public detail::SumTree<double> {
 public:
  FenwickPropensities() = default;
  /// Builds over a copy of `weights` in O(k).  \pre all >= 0.
  explicit FenwickPropensities(std::span<const double> weights) {
    assign(weights);
  }

  /// The category owning mass position `target` in [0, total()].  The
  /// descent enters a right child only when that child carries mass, so
  /// it never returns a zero-weight or padding category — even when
  /// rounding pushes `target` to total() or past a subtree's sum.
  /// \pre some weight > 0.  O(log k).
  [[nodiscard]] std::int64_t find(double target) const noexcept {
    const double* const tree = tree_.data();
    std::int64_t node = 1;
    for (int d = depth_; d > 0; --d) {
      const double left = tree[2 * node];
      const double right = tree[2 * node + 1];
      const auto go_right = static_cast<std::uint64_t>(
          (target >= left) & (right > 0.0));
      // Subtract `left` or +0.0 through a bit mask: a ternary here
      // compiles to a branch.
      target -= std::bit_cast<double>(std::bit_cast<std::uint64_t>(left) &
                                      (0 - go_right));
      node = 2 * node + static_cast<std::int64_t>(go_right);
    }
    return node - cap_;
  }

  /// Draws category i with probability weights[i] / total().
  /// \pre total() > 0.  Consumes one uniform01 draw.
  [[nodiscard]] std::int64_t sample(rng::Xoshiro256& gen) const;
};

}  // namespace divpp::sampling

#endif  // DIVPP_SAMPLING_FENWICK_H
