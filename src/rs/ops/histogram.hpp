// Histogram operator: Counts generalized from integer bucket numbers to
// real values binned by explicit edges.  Demonstrates configuration state
// (the edges) that rides in the prototype and is excluded from the wire
// format — only the occupancy vector travels between ranks.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "rs/ops/basic.hpp"
#include "util/error.hpp"

namespace rsmpi::rs::ops {

/// Bins values into [edges[i], edges[i+1]) intervals; values below the
/// first edge or at/above the last are counted in two overflow bins.
///
/// The occupancy vector is an array state (rs/ops/basic.hpp): it is the
/// wire form, folds element-wise by addition, and is partitionable into
/// bin ranges.  The edges stay prototype configuration and never travel.
template <typename T>
class Histogram : public ArrayState<Histogram<T>, long, FoldAdd,
                                    /*partitionable=*/true> {
 public:
  static constexpr bool commutative = true;

  explicit Histogram(std::vector<T> edges) : edges_(std::move(edges)) {
    if (edges_.size() < 2) {
      throw ArgumentError("Histogram: need at least two bin edges");
    }
    if (!std::is_sorted(edges_.begin(), edges_.end())) {
      throw ArgumentError("Histogram: edges must be ascending");
    }
    counts_.assign(edges_.size() + 1, 0);  // bins + {under, over}flow
  }

  void accum(const T& x) { counts_[bin_of(x)] += 1; }

  void combine(const Histogram& other) {
    if (other.counts_.size() != counts_.size()) {
      throw ProtocolError("Histogram: mismatched bin counts in combine");
    }
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
  }

  /// Inverse of combine (bin occupancies are element-wise sums): the
  /// invertible-window hook.
  void uncombine(const Histogram& other) {
    if (other.counts_.size() != counts_.size()) {
      throw ProtocolError("Histogram: mismatched bin counts in uncombine");
    }
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] -= other.counts_[i];
    }
  }

  /// Reduction output: interior bins first, then underflow and overflow.
  /// An expiring state moves its counts out.
  [[nodiscard]] std::vector<long> red_gen() const& { return counts_; }
  [[nodiscard]] std::vector<long> red_gen() && { return std::move(counts_); }

  /// Scan output: occurrences so far in x's own bin (x's running rank
  /// within its bin, 1-based under an inclusive scan).
  [[nodiscard]] long scan_gen(const T& x) const { return counts_[bin_of(x)]; }

  [[nodiscard]] std::size_t num_interior_bins() const {
    return edges_.size() - 1;
  }
  [[nodiscard]] long underflow() const {
    return counts_[counts_.size() - 2];
  }
  [[nodiscard]] long overflow() const { return counts_.back(); }

 private:
  friend ArrayState<Histogram, long, FoldAdd, /*partitionable=*/true>;
  static auto& elems(auto& self) { return self.counts_; }

  /// Index layout: [0, nbins) interior, nbins = underflow, nbins+1 = over.
  [[nodiscard]] std::size_t bin_of(const T& x) const {
    const std::size_t nbins = edges_.size() - 1;
    if (x < edges_.front()) return nbins;      // underflow
    if (!(x < edges_.back())) return nbins + 1;  // overflow (x >= last edge)
    const auto it = std::upper_bound(edges_.begin(), edges_.end(), x);
    return static_cast<std::size_t>(it - edges_.begin()) - 1;
  }

  std::vector<T> edges_;
  std::vector<long> counts_;
};

/// Approximate q-quantile from a reduced histogram: the value (linearly
/// interpolated within its bin) below which a fraction q of the counted
/// samples fall.  Underflow/overflow samples count toward the ends but
/// clamp to the outer edges.  q in [0, 1].
template <typename T>
[[nodiscard]] double histogram_quantile(const std::vector<long>& counts,
                                        const std::vector<T>& edges,
                                        double q) {
  if (counts.size() != edges.size() + 1) {
    throw ArgumentError(
        "histogram_quantile: counts must be red_gen() of a Histogram with "
        "these edges");
  }
  if (q < 0.0 || q > 1.0) {
    throw ArgumentError("histogram_quantile: q must be in [0, 1]");
  }
  long total = 0;
  for (const long c : counts) total += c;
  if (total == 0) {
    throw ArgumentError("histogram_quantile: empty histogram");
  }
  const double target = q * static_cast<double>(total);
  // Walk underflow, interior bins, overflow in value order.
  double seen = static_cast<double>(counts[counts.size() - 2]);  // underflow
  if (target <= seen) return static_cast<double>(edges.front());
  const std::size_t nbins = edges.size() - 1;
  for (std::size_t b = 0; b < nbins; ++b) {
    const double c = static_cast<double>(counts[b]);
    if (target <= seen + c && c > 0) {
      const double frac = (target - seen) / c;
      return static_cast<double>(edges[b]) +
             frac * (static_cast<double>(edges[b + 1]) -
                     static_cast<double>(edges[b]));
    }
    seen += c;
  }
  return static_cast<double>(edges.back());  // in the overflow tail
}

}  // namespace rsmpi::rs::ops
