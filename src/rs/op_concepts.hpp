// The global-view operator interface (paper §3).
//
// A user-defined reduction/scan operator is a class in the style of the
// paper's Chapel listings (mink, mini, counts, sorted):
//
//   * construction yields the identity state (f_ident);
//   * `accum(x)` folds one input value into the state (f_accum);
//   * `combine(other)` folds another operator's state in on the right —
//     this (+) other, where `this` covers the earlier input positions
//     (f_combine);
//   * one or more generate functions produce the output type from the
//     state: `gen()` serves both roles, or `red_gen()` / `scan_gen(x)`
//     specialize reduction and scan output (f_red_gen, f_scan_gen — note
//     the scan generator may consult the input value at each position);
//   * optional `pre_accum(x)` / `post_accum(x)` observe the first/last
//     local value around the accumulate loop (f_pre_accum, f_post_accum);
//   * optional `static constexpr bool commutative` — assumed true when
//     absent, as in Chapel (§3.1.4);
//   * state travels between ranks either by memcpy (trivially copyable
//     operators) or through `save(bytes::Writer&)` / `load(bytes::Reader&)`
//     for operators with heap state.  `load` overwrites the whole state:
//     the runtime decodes into a copy of a live state, never of an
//     identity, when it has to decode at all.
//
// Because operators may take runtime constructor arguments (e.g. mink's
// k), the algorithms never default-construct them: the caller passes a
// freshly-constructed *prototype* in identity state, and fresh identities
// are obtained by copying it.  Only the scans need a second identity (rank
// 0's exclusive prefix); the reductions copy no state, except to decode a
// peer's bytes for an operator without combine_from_bytes.
//
// Prototypes must be cheap to clone.  The parallel local accumulate
// (src/par/, docs/parallel_local.md) copies the prototype once per input
// chunk — ceil(extent / RSMPI_LOCAL_GRAIN) clones per call when the
// worker pool is enabled — so an identity copy should cost O(state
// size), allocate sparingly, and never touch shared resources.  Every
// operator in src/rs/ops/ satisfies this; an operator whose identity
// copy is expensive should raise the grain or stay on the serial path
// (the pool is opt-in per process via RSMPI_LOCAL_THREADS).
#pragma once

#include <concepts>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>

#include "util/bytes.hpp"

namespace rsmpi::rs {

template <typename Op>
concept Combinable = requires(Op a, const Op& b) { a.combine(b); };

template <typename Op, typename In>
concept Accumulates = requires(Op op, const In& x) { op.accum(x); };

template <typename Op>
concept HasGen = requires(const Op op) { op.gen(); };

template <typename Op>
concept HasRedGen = requires(const Op op) { op.red_gen(); };

template <typename Op, typename In>
concept HasScanGen = requires(const Op op, const In& x) { op.scan_gen(x); };

template <typename Op, typename In>
concept HasPreAccum = requires(Op op, const In& x) { op.pre_accum(x); };

template <typename Op, typename In>
concept HasPostAccum = requires(Op op, const In& x) { op.post_accum(x); };

template <typename Op>
concept HasSaveLoad = requires(const Op cop, Op op, bytes::Writer& w,
                               bytes::Reader& r) {
  cop.save(w);
  op.load(r);
};

// -- Optional zero-copy serialization hooks (ISSUE 3) -----------------------
//
// Operators may additionally provide any of:
//
//   * `save_into(bytes::Writer&)`  — serialize into a caller-supplied
//     (typically pooled) writer; detected in preference to save();
//   * `load_from(bytes::Reader&)`  — overwrite *this* operator's state in
//     place from a reader, reusing existing heap capacity instead of
//     constructing a fresh operator;
//   * `combine_from_bytes(span)`   — fold a serialized peer state directly
//     out of a receive buffer: this (+) decode(bytes), with zero
//     intermediate Op construction.  The span is byte-aligned only; use
//     bytes::load_unaligned for element access.
//
// All three are optional; the helpers below fall back to save/load (or
// memcpy for trivially copyable operators), so the hooks are a pure
// optimization, never a requirement.

template <typename Op>
concept HasSaveInto = requires(const Op op, bytes::Writer& w) {
  op.save_into(w);
};

template <typename Op>
concept HasLoadFrom = requires(Op op, bytes::Reader& r) { op.load_from(r); };

template <typename Op>
concept HasCombineFromBytes =
    requires(Op op, std::span<const std::byte> data) {
      op.combine_from_bytes(data);
    };

// -- Partitionable states (ISSUE 5) -----------------------------------------
//
// An operator whose state is an array of independently combinable elements
// (Counts buckets, Histogram bins, an element-wise vector, or a single
// scalar) may additionally provide:
//
//   * `part_extent()`            — number of elements; must be equal on
//     every rank holding the same prototype and stable under accum/combine;
//   * `part_bytes(lo, hi)`       — serialized size of the element range
//     [lo, hi); must depend only on the range and the prototype
//     configuration (never on accumulated values), so every rank plans the
//     same segmentation;
//   * `save_part(lo, hi, w)`     — append exactly part_bytes(lo, hi) bytes
//     for the range (no framing: both ends derive the range from the
//     schedule step);
//   * `load_part(lo, hi, data)`  — overwrite the range from a peer's
//     save_part bytes;
//   * `combine_part(lo, hi, data)` — fold a peer's save_part bytes into
//     the range: this[lo, hi) = this[lo, hi) (+) decode(data).
//
// The contract (checked by the segmented-schedule tests): for any split of
// [0, part_extent()) into consecutive ranges, combining another state
// range-by-range must equal one whole-state combine(), and save_part over
// the full range followed by load_part must round-trip the state.  The
// bandwidth-optimal schedules (coll/schedules.hpp, coll/pipeline.hpp) are
// only offered to operators modelling these hooks; everything else keeps
// the whole-state path.

template <typename Op>
concept PartitionableState =
    requires(const Op cop, Op op, std::size_t lo, std::size_t hi,
             bytes::Writer& w, std::span<const std::byte> data) {
      { cop.part_extent() } -> std::convertible_to<std::size_t>;
      { cop.part_bytes(lo, hi) } -> std::convertible_to<std::size_t>;
      cop.save_part(lo, hi, w);
      op.load_part(lo, hi, data);
      op.combine_part(lo, hi, data);
    };

/// Whether the runtime may combine disjoint element ranges of Op's state
/// independently (and thus run reduce-scatter/pipelined schedules on it).
template <typename Op>
[[nodiscard]] constexpr bool op_partitionable() {
  return PartitionableState<Op>;
}

// -- Invertible combines (streaming windows) --------------------------------
//
// An operator whose combine has an inverse may provide
//
//   * `uncombine(other)` — undo a prior combine(other):
//     (s (+) other).uncombine(other) == s for states actually produced by
//     combining `other` in.  Group-like operators (Sum, Counts, Histogram)
//     satisfy this exactly; MeanVar only up to floating-point rounding.
//
// Sliding windows over an invertible operator evict expired epochs in O(1)
// by uncombining them from a running aggregate; operators without the hook
// (Min/Max, HyperLogLog, and other semilattices, where combine destroys
// information) take the two-stack suffix-scan evict path instead
// (svc/window.hpp).  The hook is never required.

template <typename Op>
concept InvertibleOp = requires(Op a, const Op& b) { a.uncombine(b); };

/// Serialized size of the whole partitionable state — the `n` the schedule
/// cost formulas are evaluated at.
template <PartitionableState Op>
[[nodiscard]] std::size_t part_state_bytes(const Op& op) {
  return op.part_bytes(0, op.part_extent());
}

/// A complete reduction operator over input type In: accumulable,
/// combinable, copyable (for identity cloning), able to generate a
/// reduction result, and serializable one way or the other.
template <typename Op, typename In>
concept ReductionOp =
    Accumulates<Op, In> && Combinable<Op> && std::copy_constructible<Op> &&
    (HasGen<Op> || HasRedGen<Op>) &&
    (HasSaveLoad<Op> || std::is_trivially_copyable_v<Op>);

/// A complete scan operator additionally generates per-position output.
template <typename Op, typename In>
concept ScanOp = Accumulates<Op, In> && Combinable<Op> &&
                 std::copy_constructible<Op> &&
                 (HasGen<Op> || HasScanGen<Op, In>) &&
                 (HasSaveLoad<Op> || std::is_trivially_copyable_v<Op>);

/// Chapel's rule: an operator without the trait is commutative (§3.1.4).
template <typename Op>
[[nodiscard]] constexpr bool op_commutative() {
  if constexpr (requires { Op::commutative; }) {
    return Op::commutative;
  } else {
    return true;
  }
}

/// Invokes pre_accum when the operator defines it; no-op otherwise.
template <typename Op, typename In>
void pre_accum_if(Op& op, const In& first) {
  if constexpr (HasPreAccum<Op, In>) op.pre_accum(first);
}

/// Invokes post_accum when the operator defines it; no-op otherwise.
template <typename Op, typename In>
void post_accum_if(Op& op, const In& last) {
  if constexpr (HasPostAccum<Op, In>) op.post_accum(last);
}

/// The reduction generate function: red_gen when present, else gen.  An
/// expiring state calls it as an rvalue, so an operator with a
/// `red_gen() &&` overload can move its result out instead of copying it.
template <typename Op>
[[nodiscard]] auto red_result(Op&& op) {
  if constexpr (HasRedGen<std::remove_cvref_t<Op>>) {
    return std::forward<Op>(op).red_gen();
  } else {
    return std::forward<Op>(op).gen();
  }
}

/// The scan generate function: scan_gen(x) when present, else gen.  The
/// paper's scan generator may produce a different value per position based
/// on the input value there (counts does; mink does not).
template <typename Op, typename In>
[[nodiscard]] auto scan_result(const Op& op, const In& x) {
  if constexpr (HasScanGen<Op, In>) {
    return op.scan_gen(x);
  } else {
    return op.gen();
  }
}

/// Result type of a reduction with operator Op.
template <typename Op>
using reduce_result_t = decltype(red_result(std::declval<const Op&>()));

/// Result type of one scan output position.
template <typename Op, typename In>
using scan_result_t =
    decltype(scan_result(std::declval<const Op&>(), std::declval<const In&>()));

/// Serializes an operator's state into a caller-supplied writer (which may
/// wrap a pooled buffer).  Preference order: save_into > save > memcpy of
/// the trivially-copyable representation.
template <typename Op>
void save_op_into(const Op& op, bytes::Writer& w) {
  if constexpr (HasSaveInto<Op>) {
    op.save_into(w);
  } else if constexpr (HasSaveLoad<Op>) {
    op.save(w);
  } else {
    static_assert(std::is_trivially_copyable_v<Op>,
                  "operator must be trivially copyable or provide save/load");
    w.put(op);
  }
}

/// Overwrites `op`'s state in place from serialized bytes.  Preference
/// order: load_from > load > memcpy.  `op` must already carry the right
/// constructor parameters (callers copy the prototype once and reuse it).
template <typename Op>
void load_op_into(Op& op, std::span<const std::byte> data) {
  if constexpr (HasLoadFrom<Op>) {
    bytes::Reader r(data);
    op.load_from(r);
    if (!r.exhausted()) {
      throw ProtocolError("load_op: trailing bytes after operator state");
    }
  } else if constexpr (HasSaveLoad<Op>) {
    bytes::Reader r(data);
    op.load(r);
    if (!r.exhausted()) {
      throw ProtocolError("load_op: trailing bytes after operator state");
    }
  } else {
    static_assert(std::is_trivially_copyable_v<Op>,
                  "operator must be trivially copyable or provide save/load");
    if (data.size() != sizeof(Op)) {
      throw ProtocolError("load_op: operator state has wrong size");
    }
    std::memcpy(static_cast<void*>(&op), data.data(), sizeof(Op));
  }
}

/// Folds a serialized peer state into `op`: op = op (+) decode(data).
/// Uses the operator's combine_from_bytes hook when present (combining
/// straight out of the receive buffer); otherwise decodes into a copy of
/// `op` and combines that.  The copy supplies the operator's configuration
/// only: a load overwrites the whole state, so the copy need not be an
/// identity.
template <typename Op>
void combine_op_from_bytes(Op& op, std::span<const std::byte> data) {
  if constexpr (HasCombineFromBytes<Op>) {
    op.combine_from_bytes(data);
  } else {
    Op other(op);
    load_op_into(other, data);
    op.combine(other);
  }
}

/// Serializes an operator's state.
template <typename Op>
[[nodiscard]] std::vector<std::byte> save_op(const Op& op) {
  bytes::Writer w;
  save_op_into(op, w);
  return std::move(w).take();
}

/// Reconstructs an operator's state from bytes.  `prototype` supplies
/// constructor parameters (it is copied, then overwritten by load).
template <typename Op>
[[nodiscard]] Op load_op(const Op& prototype, std::span<const std::byte> data) {
  Op op(prototype);
  load_op_into(op, data);
  return op;
}

}  // namespace rsmpi::rs
