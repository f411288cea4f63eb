// The counts operator (paper Listing 6, §3.1.3): given values that are
// bucket numbers, the *reduction* yields the occupancy of every bucket and
// the *scan* yields each value's rank within its bucket — the operator
// whose generate function differs between the two uses (red_gen vs.
// scan_gen), and whose scan generator consults the input value at each
// position.
//
// The paper's particles-in-octants example: reducing
// [6,7,6,3,8,2,8,4,8,3] over 8 buckets gives counts [0,1,2,1,0,2,1,3]; the
// scan gives rankings [1,1,2,1,1,1,2,1,3,2].
//
// Buckets here are 0-based (the paper's Chapel arrays are 1-based).
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "rs/ops/basic.hpp"
#include "util/error.hpp"

namespace rsmpi::rs::ops {

/// Bucket occupancies are an array state (rs/ops/basic.hpp): the vector of
/// counts is the wire form, folds element-wise by addition, and is
/// partitionable into bucket ranges.
class Counts
    : public ArrayState<Counts, long, FoldAdd, /*partitionable=*/true> {
 public:
  static constexpr bool commutative = true;

  explicit Counts(std::size_t num_buckets) : v_(num_buckets, 0) {
    if (num_buckets == 0) {
      throw ArgumentError("Counts: need at least one bucket");
    }
  }

  void accum(const int& x) {
    if (x < 0 || static_cast<std::size_t>(x) >= v_.size()) {
      throw ArgumentError("Counts: bucket index " + std::to_string(x) +
                          " out of range [0, " + std::to_string(v_.size()) +
                          ")");
    }
    v_[static_cast<std::size_t>(x)] += 1;
  }

  void combine(const Counts& other) {
    if (other.v_.size() != v_.size()) {
      throw ProtocolError("Counts: mismatched bucket counts in combine");
    }
    for (std::size_t i = 0; i < v_.size(); ++i) v_[i] += other.v_[i];
  }

  /// Inverse of combine (bucket occupancies are element-wise sums): the
  /// invertible-window hook.
  void uncombine(const Counts& other) {
    if (other.v_.size() != v_.size()) {
      throw ProtocolError("Counts: mismatched bucket counts in uncombine");
    }
    for (std::size_t i = 0; i < v_.size(); ++i) v_[i] -= other.v_[i];
  }

  /// Reduction output: occupancy per bucket.  An expiring state moves its
  /// counts out.
  [[nodiscard]] std::vector<long> red_gen() const& { return v_; }
  [[nodiscard]] std::vector<long> red_gen() && { return std::move(v_); }

  /// Scan output at a position holding value x: the number of occurrences
  /// of bucket x seen so far — in an inclusive scan, x's 1-based rank
  /// within its bucket.
  [[nodiscard]] long scan_gen(const int& x) const {
    return v_[static_cast<std::size_t>(x)];
  }

 private:
  friend ArrayState;
  static auto& elems(auto& self) { return self.v_; }

  std::vector<long> v_;
};

}  // namespace rsmpi::rs::ops
