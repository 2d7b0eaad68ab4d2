#include "sampling/fenwick.h"

#include <algorithm>
#include <stdexcept>

#include "rng/distributions.h"

namespace divpp::sampling {

namespace detail {

template <typename T>
void SumTree<T>::assign(std::span<const T> values) {
  for (const T v : values) {
    if (!(v >= T{0}))
      throw std::invalid_argument("sampling: negative tree value");
  }
  size_ = static_cast<std::int64_t>(values.size());
  cap_ = 1;
  depth_ = 0;
  while (cap_ < size_) {
    cap_ <<= 1;
    ++depth_;
  }
  tree_.assign(static_cast<std::size_t>(2 * cap_), T{0});
  std::copy(values.begin(), values.end(), tree_.begin() + cap_);
  // Bottom-up with the same `left + right` that set() applies, so a built
  // tree and an updated one agree bit for bit.
  for (std::int64_t node = cap_ - 1; node >= 1; --node) {
    const auto j = static_cast<std::size_t>(node);
    tree_[j] = tree_[2 * j] + tree_[2 * j + 1];
  }
}

template <typename T>
void SumTree<T>::push_back(T value) {
  if (!(value >= T{0}))
    throw std::invalid_argument("sampling: negative tree value");
  if (size_ < cap_) {  // a padding leaf is free
    ++size_;
    set(size_ - 1, value);
    return;
  }
  // Cold path (palette growth past the capacity): rebuild at double size.
  std::vector<T> extended(tree_.begin() + cap_, tree_.begin() + cap_ + size_);
  extended.push_back(value);
  assign(extended);
}

template <typename T>
void SumTree<T>::check_invariants() const {
#ifdef SIM_CHECKED
  SIM_DCHECK_EQ(tree_.size(), static_cast<std::size_t>(2 * cap_));
  SIM_DCHECK_LE(size_, cap_);
  for (std::int64_t i = 0; i < cap_; ++i) {
    SIM_DCHECK_GE(get(i), T{0});
    if (i >= size_) SIM_DCHECK_EQ(get(i), T{0});  // padding
  }
  for (std::int64_t node = cap_ - 1; node >= 1; --node) {
    const auto j = static_cast<std::size_t>(node);
    SIM_DCHECK_EQ(tree_[j], tree_[2 * j] + tree_[2 * j + 1]);
  }
#endif  // SIM_CHECKED
}

template class SumTree<std::int64_t>;
template class SumTree<double>;

}  // namespace detail

std::int64_t FenwickCounts::prefix(std::int64_t i) const noexcept {
  if (i >= size_) return total();
  // Every right child on the leaf-to-root path adds its left sibling.
  std::int64_t sum = 0;
  for (std::int64_t node = cap_ + i; node > 1; node >>= 1) {
    if ((node & 1) != 0) sum += tree_[static_cast<std::size_t>(node - 1)];
  }
  return sum;
}

std::int64_t FenwickCounts::sample(rng::Xoshiro256& gen) const {
  return find(rng::uniform_below(gen, total()));
}

std::int64_t FenwickPropensities::sample(rng::Xoshiro256& gen) const {
  return find(rng::uniform01(gen) * total());
}

}  // namespace divpp::sampling
