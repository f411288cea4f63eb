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
// counter, so the state is exactly its payload and save_part/load_part
// round-trip bitwise.
//
// Column panels (the partitionable-state hooks) are the interesting part:
// a Givens merge is *not* element-wise, so combining a peer's R column
// range in isolation is meaningless.  Instead, combine_part runs a
// *streamed* merge: per in-flight peer a MergeSession tracks the next
// expected column and the log of rotations generated so far (one list per
// peer row).  When columns [lo, hi) arrive, each new column first replays
// the already-generated rotations of every participating peer row (in
// generation order), then generates and logs this column's own rotations.
// Processing the merge column-major this way performs the exact same
// scalar operations, on the exact same operand values, in the same
// per-location order as the row-major whole-state merge — so a segmented
// schedule that feeds panels in order is *bitwise identical* to one
// whole-state combine.  Columns below `next` are final (later rotations
// only touch columns >= next), which is what lets the pipelined binomial
// tree forward leading panels onward before the trailing ones arrive.
//
// Sessions are matched by panel start: a panel at column 0 opens a new
// session, and a panel at lo > 0 attaches to the first open session
// expecting lo.  The blocking and pipelined schedules both interleave
// children deterministically per segment (source-specific receives in
// fixed step order), so this demux is deterministic — the exhaustive
// checker (tests/verify) proves it presents zero schedule freedom.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
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
/// element-wise, so combine_from_bytes and the column-panel hooks are
/// TSQR's own.
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

  /// Merge another R factor: stream the peer's columns through a fresh
  /// session — the same code path combine_part uses, so whole-state and
  /// segmented merges are bitwise identical by construction.
  void combine(const TSQR& other) {
    if (other.k_ != k_) {
      throw ProtocolError("TSQR: mismatched column counts in combine");
    }
    MergeSession session(k_);
    for (std::size_t t = 0; t < k_; ++t) {
      absorb_column(session, t, other.r_.data() + col_offset(t));
    }
  }

  [[nodiscard]] TsqrResult gen() const { return TsqrResult{k_, r_}; }

  /// Zero-copy combine: stream the peer's serialized columns directly out
  /// of the (unaligned) receive buffer, no temporary operator.
  void combine_from_bytes(std::span<const std::byte> data) {
    bytes::Reader reader(data);
    std::uint64_t n = 0;
    const auto raw = reader.get_counted_raw<double>(&n);
    if (n != r_.size() || !reader.exhausted()) {
      throw ProtocolError("TSQR: mismatched column counts in combine");
    }
    MergeSession session(k_);
    for (std::size_t t = 0; t < k_; ++t) {
      absorb_column(session, t,
                    unpack_column(raw.data() + col_offset(t) * sizeof(double),
                                  t + 1));
    }
  }

  // -- partitionable state: column panels ------------------------------------

  [[nodiscard]] std::size_t part_extent() const { return k_; }

  /// Column j weighs (j+1) doubles, so panels are inherently uneven —
  /// equal-byte segmentation lands on odd column splits immediately.
  [[nodiscard]] std::size_t part_bytes(std::size_t lo, std::size_t hi) const {
    check_range(lo, hi);
    return (col_offset(hi) - col_offset(lo)) * sizeof(double);
  }

  void save_part(std::size_t lo, std::size_t hi, bytes::Writer& w) const {
    check_range(lo, hi);
    w.put_raw(std::as_bytes(std::span<const double>(r_).subspan(
        col_offset(lo), col_offset(hi) - col_offset(lo))));
  }

  void load_part(std::size_t lo, std::size_t hi,
                 std::span<const std::byte> data) {
    check_range(lo, hi);
    if (data.size() != part_bytes(lo, hi)) {
      throw ProtocolError("TSQR: segment arrived with mismatched size");
    }
    if (!data.empty()) {
      std::memcpy(r_.data() + col_offset(lo), data.data(), data.size());
    }
  }

  /// Streamed panel merge; panels of one peer must arrive in column order
  /// starting at 0 (every ordered schedule satisfies this).
  void combine_part(std::size_t lo, std::size_t hi,
                    std::span<const std::byte> data) {
    check_range(lo, hi);
    if (data.size() != part_bytes(lo, hi)) {
      throw ProtocolError("TSQR: segment arrived with mismatched size");
    }
    MergeSession* session = nullptr;
    if (lo == 0) {
      sessions_.emplace_back(k_);
      session = &sessions_.back();
    } else {
      for (MergeSession& s : sessions_) {
        if (s.next == lo) {
          session = &s;
          break;
        }
      }
      if (session == nullptr) {
        throw ProtocolError("TSQR: column panel out of order (no merge in "
                            "progress expects column " + std::to_string(lo) +
                            ")");
      }
    }
    const std::byte* p = data.data();
    for (std::size_t t = lo; t < hi; ++t) {
      absorb_column(*session, t, unpack_column(p, t + 1));
      p += (t + 1) * sizeof(double);
    }
    if (session->next == k_) {
      // Completed merge: retire the session so the next panel at column 0
      // opens a fresh one.
      for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
        if (&*it == session) {
          sessions_.erase(it);
          break;
        }
      }
    }
  }

  friend bool operator==(const TSQR& a, const TSQR& b) {
    return a.k_ == b.k_ && a.r_ == b.r_;
  }

 private:
  friend ArrayState;
  static auto& elems(auto& self) { return self.r_; }

  /// One logged Givens rotation: generated at `col`, mixing R row `col`
  /// with one peer row.
  struct Rotation {
    std::uint32_t col;
    double cs;
    double sn;
  };

  /// Per-peer streaming merge state: the next column expected, and the
  /// rotations generated so far for each peer row (applied in generation
  /// order to every later column that row participates in).
  struct MergeSession {
    explicit MergeSession(std::size_t k) : row_rots(k) {}
    std::size_t next = 0;
    std::vector<std::vector<Rotation>> row_rots;
  };

  static constexpr std::size_t packed_size(std::size_t k) {
    return k * (k + 1) / 2;
  }
  static constexpr std::size_t col_offset(std::size_t j) {
    return j * (j + 1) / 2;
  }

  void check_range(std::size_t lo, std::size_t hi) const {
    if (lo > hi || hi > k_) {
      throw ProtocolError("TSQR: segment range out of bounds");
    }
  }

  /// Reads one packed column (unaligned receive bytes) into the scratch
  /// buffer and returns a pointer to the aligned doubles.
  const double* unpack_column(const std::byte* p, std::size_t n) {
    scratch_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      scratch_[i] = bytes::load_unaligned<double>(p + i * sizeof(double));
    }
    return scratch_.data();
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

  /// Column-major streamed absorb of one peer column `t` (values vals[i]
  /// = peer R(i, t) for i <= t): replay each participating peer row's
  /// logged rotations against this column, then generate this column's
  /// rotation for that row and log it.  `session.next` must equal t.
  void absorb_column(MergeSession& session, std::size_t t,
                     const double* vals) {
    if (session.next != t) {
      throw ProtocolError("TSQR: column panel out of order");
    }
    for (std::size_t i = 0; i <= t; ++i) {
      double v = vals[i];
      for (const Rotation& e : session.row_rots[i]) {
        double& rc = r_[col_offset(t) + e.col];
        const double nr = e.cs * rc + e.sn * v;
        v = -e.sn * rc + e.cs * v;
        rc = nr;
      }
      if (v == 0.0) continue;
      double& diag = r_[col_offset(t) + t];
      const double h = std::hypot(diag, v);
      session.row_rots[i].push_back(
          {static_cast<std::uint32_t>(t), diag / h, v / h});
      diag = h;
    }
    session.next = t + 1;
  }

  std::size_t k_;
  std::vector<double> r_;
  std::vector<MergeSession> sessions_;  // in-flight streamed panel merges
  std::vector<double> scratch_;         // row / unaligned-column staging
};

}  // namespace rsmpi::rs::ops
