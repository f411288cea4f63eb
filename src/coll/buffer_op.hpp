// The local-view user-defined operator interface (paper §2).
//
// A local-view operator is defined by two functions over fixed-size value
// buffers:
//   * ident(buf)        — fill the buffer with the operator's identity, and
//   * combine(inout, in) — inout := inout (+) in, where `inout` is the
//     operand that precedes `in` in rank order (operand order matters for
//     non-commutative operators).
//
// This is exactly the shape of Listing 1's mink operator: a per-processor
// k-vector of partial results plus a merge.  MPI's MPI_Op_create is the
// same idea with inverted argument order and per-element aggregation
// (§2.1/§2.2); the ElementwiseOp adapter below provides the aggregated
// form of any scalar binary operator.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstring>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "coll/ops.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace rsmpi::coll {

/// A user-defined local-view operator over buffers of T.
template <typename Op, typename T>
concept LocalViewOp = requires(const Op op, std::span<T> inout,
                               std::span<const T> in) {
  op.ident(inout);
  op.combine(inout, in);
};

/// Reads Op::elementwise if present, else false.  An element-wise
/// operator's combine folds element i of `in` into element i of `inout`
/// and touches nothing else, so any element range may be combined on its
/// own — the property the segmented schedules (ring, Rabenseifner) need.
template <typename Op>
[[nodiscard]] constexpr bool is_elementwise() {
  if constexpr (requires { Op::elementwise; }) {
    return Op::elementwise;
  } else {
    return false;
  }
}

/// Lifts a scalar binary operator to the buffer interface by applying it
/// element-wise — the "aggregation" extension of §2.1, which computes many
/// independent reductions in one message.
template <typename T, BinaryOperator<T> BinOp>
struct ElementwiseOp {
  static constexpr bool commutative = is_commutative<BinOp>();
  static constexpr bool elementwise = true;

  BinOp op{};

  void ident(std::span<T> buf) const {
    for (T& v : buf) v = BinOp::identity();
  }

  void combine(std::span<T> inout, std::span<const T> in) const {
    for (std::size_t i = 0; i < inout.size(); ++i) {
      inout[i] = op(inout[i], in[i]);
    }
  }
};

/// The mink operator of Listing 1, restated against the buffer interface:
/// each buffer holds k values sorted ascending; combine merges two such
/// buffers keeping the k smallest.  (The paper's C code keeps descending
/// order and bubble-inserts; we keep ascending order, which makes the
/// merge a textbook two-pointer pass — the abstract operator is the same.)
template <typename T>
struct LocalMinK {
  static constexpr bool commutative = true;

  void ident(std::span<T> buf) const {
    for (T& v : buf) v = std::numeric_limits<T>::max();
  }

  void combine(std::span<T> inout, std::span<const T> in) const {
    // Merge the two ascending k-vectors, keeping the smallest k in inout,
    // without a scratch buffer: first count how many survivors each
    // operand contributes (the same comparisons a forward merge would
    // make), then merge backwards in place — writing position na+nb-1
    // never clobbers inout[na-1] while anything from `in` remains.
    const std::size_t k = inout.size();
    std::size_t na = 0, nb = 0;
    while (na + nb < k) {
      if (nb >= in.size() || (na < k && inout[na] <= in[nb])) {
        ++na;
      } else {
        ++nb;
      }
    }
    std::size_t t = k;
    while (nb > 0) {
      --t;
      if (na > 0 && inout[na - 1] > in[nb - 1]) {
        inout[t] = inout[--na];
      } else {
        inout[t] = in[--nb];
      }
    }
    // inout[0..na) already holds the remaining survivors in order.
  }
};

/// Aggregates a fixed-block-size buffer operator: treats a buffer of
/// m*block elements as m independent instances of `Inner`, each spanning
/// one block.  This is §2.1's closing observation — "the mink reduction
/// can itself be aggregated to compute the element-wise k minimums of the
/// values in arrays of vectors" — as a reusable adapter:
///
///   BlockwiseOp<int, LocalMinK<int>> op{10};   // m k-vectors per buffer
template <typename T, typename Inner>
struct BlockwiseOp {
  static constexpr bool commutative = is_commutative<Inner>();

  std::size_t block;
  Inner inner{};

  void ident(std::span<T> buf) const {
    for (std::size_t off = 0; off < buf.size(); off += block) {
      inner.ident(buf.subspan(off, block));
    }
  }

  void combine(std::span<T> inout, std::span<const T> in) const {
    for (std::size_t off = 0; off < inout.size(); off += block) {
      inner.combine(inout.subspan(off, block), in.subspan(off, block));
    }
  }
};

/// A caller's buffer plus its local-view operator as a global-view
/// operator state.  The paper's §3 makes the local view the special case
/// of the global view in which input, state and output types are equal and
/// accumulate is combine; this is that special case, so the local-view
/// collectives run the shared state schedules (coll/schedules.hpp).
///
///   * A state built over a span *views* the caller's buffer, so folds
///     write in place.  A copy owns its elements.  Assignment writes the
///     elements through to what a state holds.
///   * The wire form is the raw elements with no length prefix; an extent
///     that differs across ranks throws ProtocolError.
///   * Received bytes fold through a small reused scratch, since a payload
///     is not an array of aligned T.
///   * The state is partitionable only for an element-wise operator:
///     part_extent, which PartitionableState requires, exists only then.
///     The other range hooks double as the whole-state load and fold.
template <typename T, LocalViewOp<T> Op>
  requires std::is_trivially_copyable_v<T>
class SpanState {
 public:
  static constexpr bool commutative = is_commutative<Op>();

  /// A state viewing `values`.
  SpanState(std::span<T> values, const Op& op) : op_(op), elems_(values) {}

  /// The identity state of `extent` elements.
  SpanState(std::size_t extent, const Op& op)
      : op_(op), owned_(extent), elems_(owned_) {
    op_.ident(elems_);
  }

  SpanState(const SpanState& other)
      : op_(other.op_),
        owned_(other.elems_.begin(), other.elems_.end()),
        elems_(owned_) {}

  SpanState& operator=(const SpanState& other) {
    if (this != &other) load_part(0, elems_.size(), std::as_bytes(other.elems_));
    return *this;
  }

  void combine(const SpanState& other) {
    require_bytes(0, elems_.size(), other.elems_.size_bytes());
    op_.combine(elems_, std::span<const T>(other.elems_));
  }
  void combine_from_bytes(std::span<const std::byte> data) {
    combine_part(0, elems_.size(), data);
  }
  [[nodiscard]] std::size_t wire_bytes() const { return elems_.size_bytes(); }
  void save_into(bytes::Writer& w) const { w.put_raw(std::as_bytes(elems_)); }
  void load_from(bytes::Reader& r) {
    load_part(0, elems_.size(), r.get_raw(elems_.size_bytes()));
  }

  std::size_t part_extent() const
    requires(is_elementwise<Op>())
  {
    return elems_.size();
  }
  std::size_t part_bytes(std::size_t lo, std::size_t hi) const {
    return (hi - lo) * sizeof(T);
  }
  void save_part(std::size_t lo, std::size_t hi, bytes::Writer& w) const {
    w.put_raw(std::as_bytes(elems_.subspan(lo, hi - lo)));
  }
  void load_part(std::size_t lo, std::size_t hi,
                 std::span<const std::byte> data) {
    require_bytes(lo, hi, data.size());
    if (!data.empty()) std::memcpy(elems_.data() + lo, data.data(), data.size());
  }
  /// elems_[lo, hi) = elems_[lo, hi) (+) decode(data).
  void combine_part(std::size_t lo, std::size_t hi,
                    std::span<const std::byte> data) {
    require_bytes(lo, hi, data.size());
    const std::size_t step =
        is_elementwise<Op>() ? std::min(kScratchElems, hi - lo) : hi - lo;
    scratch_.resize(step);
    for (std::size_t at = lo; at < hi; at += step) {
      const std::size_t k = std::min(step, hi - at);
      std::memcpy(scratch_.data(), data.data() + (at - lo) * sizeof(T),
                  k * sizeof(T));
      op_.combine(elems_.subspan(at, k), std::span<const T>(scratch_.data(), k));
    }
  }

 private:
  /// Elements per scratch fill when the operator is element-wise; any
  /// other operator's combine must see the whole buffer at once.
  static constexpr std::size_t kScratchElems = 512;

  void require_bytes(std::size_t lo, std::size_t hi, std::size_t n) const {
    if (hi > elems_.size() || n != (hi - lo) * sizeof(T)) {
      throw ProtocolError("local view: buffer extent differs across ranks");
    }
  }

  Op op_;
  std::vector<T> owned_;  ///< empty unless this state is a copy
  std::span<T> elems_;    ///< the caller's buffer, or owned_
  std::vector<T> scratch_;
};

}  // namespace rsmpi::coll
