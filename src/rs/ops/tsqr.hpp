// Tall-skinny QR as a user-defined reduction (ISSUE 9 tentpole, after
// Demmel et al., arXiv 1002.4250): the state is the upper-triangular R
// factor of every row absorbed so far, accum folds one row in via Givens
// rotations, and combine merges two R factors by re-factoring the stack
// [R_left; R_right].  The operator is *noncommutative at the bit level*
// (R merges are only commutative up to rounding), non-invertible, and its
// diagonal is kept nonnegative by construction — every rotation writes
// hypot(..) >= 0 onto the diagonal — so results from different ordered
// schedules are directly comparable without a canonicalization pass.
//
// State layout: packed column-major upper triangle.  Column j holds its
// j+1 entries (rows 0..j) contiguously at offset j(j+1)/2, k(k+1)/2
// doubles total.  The identity state is all zeros, and there is no row
// counter, so the state is exactly its payload and save/load round-trip
// bitwise.
//
// TSQR is a whole-state operator, like Langou's plain MPI_Reduce of R
// factors (arXiv 1002.4250): a Givens merge is not element-wise, and the
// schedules that move parts of a state (ring, Rabenseifner) need a
// commutative operator, so it has no partitionable-state hooks.  combine
// absorbs the peer's R rows in order, row i entering at column i — the
// accum path applied to each row, so one merge is the same scalar
// operations as absorbing those rows here.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "rs/ops/basic.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace rsmpi::rs::ops {

/// Reduction output of TSQR: the column count and the packed column-major
/// upper-triangular R (same layout as the operator state).
struct TsqrResult {
  std::size_t cols = 0;
  std::vector<double> r;  // packed column-major upper triangle

  /// Entry R(i, j), i <= j; zero below the diagonal.
  [[nodiscard]] double entry(std::size_t i, std::size_t j) const {
    if (j >= cols || i >= cols) throw ArgumentError("TsqrResult: out of range");
    if (i > j) return 0.0;
    return r[j * (j + 1) / 2 + i];
  }

  /// Row-major cols x cols dense R (for the numerical oracle helpers).
  [[nodiscard]] std::vector<double> dense() const {
    std::vector<double> out(cols * cols, 0.0);
    for (std::size_t j = 0; j < cols; ++j) {
      for (std::size_t i = 0; i <= j; ++i) {
        out[i * cols + j] = r[j * (j + 1) / 2 + i];
      }
    }
    return out;
  }

  friend bool operator==(const TsqrResult&, const TsqrResult&) = default;
};

/// The packed R factor is an array state (rs/ops/basic.hpp), which gives
/// the operator its save, load and wire size; the merge is not
/// element-wise, so combine_from_bytes is TSQR's own.
class TSQR : public ArrayState<TSQR, double> {
 public:
  static constexpr bool commutative = false;

  explicit TSQR(std::size_t cols) : k_(cols), r_(packed_size(cols), 0.0) {
    if (cols == 0) throw ArgumentError("TSQR: need at least one column");
  }

  [[nodiscard]] std::size_t cols() const { return k_; }

  /// Absorb one row of the tall matrix: one Givens rotation per nonzero
  /// surviving entry, diagonal kept nonnegative by hypot.
  void accum(const std::vector<double>& row) {
    if (row.size() != k_) {
      throw ArgumentError("TSQR: row has " + std::to_string(row.size()) +
                          " entries, operator has " + std::to_string(k_) +
                          " columns");
    }
    scratch_ = row;
    absorb_row(0, scratch_.data());
  }

  /// Merge another R factor: absorb its rows.
  void combine(const TSQR& other) {
    if (other.k_ != k_) {
      throw ProtocolError("TSQR: mismatched column counts in combine");
    }
    absorb_rows([&](std::size_t at) { return other.r_[at]; });
  }

  [[nodiscard]] TsqrResult gen() const { return TsqrResult{k_, r_}; }

  /// Zero-copy combine: absorb the peer's serialized rows directly out of
  /// the (unaligned) receive buffer, no temporary operator.
  void combine_from_bytes(std::span<const std::byte> data) {
    bytes::Reader reader(data);
    std::uint64_t n = 0;
    const auto raw = reader.get_counted_raw<double>(&n);
    if (n != r_.size() || !reader.exhausted()) {
      throw ProtocolError("TSQR: mismatched column counts in combine");
    }
    absorb_rows([&](std::size_t at) {
      return bytes::load_unaligned<double>(raw.data() + at * sizeof(double));
    });
  }

  friend bool operator==(const TSQR& a, const TSQR& b) {
    return a.k_ == b.k_ && a.r_ == b.r_;
  }

 private:
  friend ArrayState;
  static auto& elems(auto& self) { return self.r_; }

  static constexpr std::size_t packed_size(std::size_t k) {
    return k * (k + 1) / 2;
  }
  static constexpr std::size_t col_offset(std::size_t j) {
    return j * (j + 1) / 2;
  }

  /// Absorbs every row of a peer R factor whose packed entry at offset
  /// `at` is entry(at): row i, read into the scratch row, enters at
  /// column i.
  template <typename Entry>
  void absorb_rows(Entry entry) {
    scratch_.resize(k_);
    for (std::size_t i = 0; i < k_; ++i) {
      for (std::size_t t = i; t < k_; ++t) {
        scratch_[t] = entry(col_offset(t) + i);
      }
      absorb_row(i, scratch_.data());
    }
  }

  /// Row-major absorb of one dense row starting at column `first`:
  /// the accum path.  `v` has k_ entries and is clobbered.
  void absorb_row(std::size_t first, double* v) {
    for (std::size_t c = first; c < k_; ++c) {
      const double b = v[c];
      if (b == 0.0) continue;
      double& diag = r_[col_offset(c) + c];
      const double h = std::hypot(diag, b);
      const double cs = diag / h;
      const double sn = b / h;
      diag = h;
      for (std::size_t t = c + 1; t < k_; ++t) {
        double& rc = r_[col_offset(t) + c];
        const double nr = cs * rc + sn * v[t];
        v[t] = -sn * rc + cs * v[t];
        rc = nr;
      }
    }
  }

  std::size_t k_;
  std::vector<double> r_;
  std::vector<double> scratch_;  // row staging for accum and combine
};

}  // namespace rsmpi::rs::ops
