// LOCAL_SCAN / LOCAL_XSCAN: the paper's local-view scan abstraction (§2).
//
// Each rank contributes one value buffer; the exclusive scan leaves in
// each rank's buffer the combination of all *lower* ranks' contributions
// (identity on rank 0), and the inclusive scan additionally folds in the
// rank's own contribution.  Unlike MPI — whose MPI_Exscan leaves rank 0
// undefined — the paper's abstraction requires the operator's identity
// function precisely so the exclusive scan is total (§2).
//
// The default algorithm is recursive doubling (the Hillis–Steele form of
// the Ladner–Fischer parallel prefix network): ceil(log2 p) rounds in
// which rank r sends its running inclusive value to rank r+d and prepends
// the value received from rank r-d.  Each prepend joins two contiguous
// rank intervals in order, so the schedule is valid for non-commutative
// (associative) operators as well.  It is the global view's own exclusive
// scan (rs::detail::state_xscan) run on the buffer as an operator state
// (coll::SpanState); the inclusive scan then folds in the rank's own
// contribution, as rs::scan does.  The linear chain and Blelloch's sweeps
// are local-view baselines over plain buffers.
#pragma once

#include <span>
#include <vector>

#include "coll/buffer_op.hpp"
#include "coll/schedules.hpp"
#include "mprt/comm.hpp"
#include "util/error.hpp"

namespace rsmpi::coll {

enum class ScanAlgo {
  kAuto,          ///< recursive doubling
  kLinear,        ///< chain through ranks; O(p) latency baseline
  kHillisSteele,  ///< recursive doubling; O(log p) rounds, ~p log p msgs
  kBlelloch,      ///< up/down sweep; 2 log p rounds, 3(p-1) msgs.
                  ///< Power-of-two rank counts only; other counts fall
                  ///< back to recursive doubling.
};

namespace detail {

/// Linear-chain scan: rank r waits for the exclusive prefix of rank r-1,
/// extends it with its own value, and forwards.  O(p) latency but only one
/// combine per rank; the baseline for the microbenchmarks.
template <typename T, LocalViewOp<T> Op>
void scan_linear(mprt::Comm& comm, const Op& op, std::span<T> excl,
                 std::span<T> incl) {
  const int p = comm.size();
  const int rank = comm.rank();
  const int tag = comm.next_collective_tag();

  if (rank > 0) {
    // Receive the inclusive prefix of ranks [0, rank-1] — our exclusive.
    comm.recv_span<T>(rank - 1, tag, excl);
    std::vector<T> tmp(excl.begin(), excl.end());
    op.combine(std::span<T>(tmp),
               std::span<const T>(incl.data(), incl.size()));
    std::copy(tmp.begin(), tmp.end(), incl.begin());
  }
  if (rank + 1 < p) {
    comm.send_span(rank + 1, tag, std::span<const T>(incl.data(),
                                                     incl.size()));
  }
}

/// Blelloch's work-efficient up/down sweep, across ranks (one value per
/// rank), for power-of-two p.  The up-sweep is the in-place binomial
/// reduction of the classic array formulation — after round d, rank k
/// with (k+1) % 2d == 0 holds the combination of ranks (k-2d, k]; ranks
/// keep their pre-combination values implicitly, because each rank *is*
/// one array slot.  The down-sweep then pushes exclusive prefixes back
/// down: at each level the pair (k-d, k) exchanges, k-d adopting k's
/// prefix and k extending it with k-d's up-sweep value (prefix on the
/// left, so non-commutative operators are safe).
///
/// Cost: 2·log2(p) rounds but only 3(p-1) messages, versus recursive
/// doubling's ~p·log2(p) — the classic span-vs-work tradeoff of parallel
/// prefix networks (Ladner–Fischer; Blelloch, the paper's [3] and [11]).
template <typename T, LocalViewOp<T> Op>
void scan_blelloch(mprt::Comm& comm, const Op& op, std::span<T> excl,
                   std::span<T> incl) {
  const int p = comm.size();
  const int rank = comm.rank();
  const int tag = comm.next_collective_tag();

  // `value` plays the role of array slot x[rank]; it starts as the local
  // inclusive contribution and is overwritten by the sweeps.
  std::vector<T> value(incl.begin(), incl.end());
  std::vector<T> received(value.size());

  // Up-sweep: after the loop, rank k with (k+1) % 2d == 0 holds the
  // combination of the 2d ranks ending at k.
  int d = 1;
  for (; d < p; d <<= 1) {
    const bool is_right = (rank + 1) % (2 * d) == 0;
    const bool is_left = (rank + 1) % (2 * d) == d;
    if (is_left) {
      comm.send_span(rank + d, tag, std::span<const T>(value));
    } else if (is_right) {
      comm.recv_span<T>(rank - d, tag, received);
      // received covers earlier ranks: value = received (+) value.
      std::vector<T> tmp(received);
      op.combine(std::span<T>(tmp), std::span<const T>(value));
      value = std::move(tmp);
    }
  }

  // Down-sweep: the root's slot becomes the identity; descending the
  // levels, each left child adopts its parent's prefix and each parent
  // extends it with the left child's up-sweep value.
  if (rank == p - 1) {
    op.ident(std::span<T>(value));
  }
  for (d >>= 1; d >= 1; d >>= 1) {
    const bool is_right = (rank + 1) % (2 * d) == 0;
    const bool is_left = (rank + 1) % (2 * d) == d;
    if (is_right) {
      // Exchange: send my prefix down, fold the left subtree's sum in.
      comm.send_span(rank - d, tag, std::span<const T>(value));
      comm.recv_span<T>(rank - d, tag, received);
      op.combine(std::span<T>(value), std::span<const T>(received));
    } else if (is_left) {
      comm.send_span(rank + d, tag, std::span<const T>(value));
      comm.recv_span<T>(rank + d, tag, value);
    }
  }

  // `value` is now the exclusive prefix of this rank; incl = excl (+) own.
  std::copy(value.begin(), value.end(), excl.begin());
  std::vector<T> own(incl.begin(), incl.end());
  std::copy(excl.begin(), excl.end(), incl.begin());
  op.combine(incl, std::span<const T>(own));
}

/// Runs the buffer baselines — the linear chain, or Blelloch's sweeps at
/// power-of-two p — and returns true; returns false for every other
/// request, which is recursive doubling, the shared state scan.
template <typename T, LocalViewOp<T> Op>
bool scan_baseline(mprt::Comm& comm, const Op& op, std::span<T> values,
                   ScanAlgo algo, bool inclusive) {
  const int p = comm.size();
  const bool blelloch = algo == ScanAlgo::kBlelloch && (p & (p - 1)) == 0;
  if (algo != ScanAlgo::kLinear && !blelloch) return false;
  std::vector<T> other(values.begin(), values.end());
  const std::span<T> excl = inclusive ? std::span<T>(other) : values;
  const std::span<T> incl = inclusive ? values : std::span<T>(other);
  op.ident(excl);
  if (blelloch) {
    scan_blelloch(comm, op, excl, incl);
  } else {
    scan_linear(comm, op, excl, incl);
  }
  return true;
}

}  // namespace detail

/// LOCAL_XSCAN: exclusive scan.  On return `values` holds the combination
/// of all lower ranks' contributions; rank 0 holds the operator identity.
template <typename T, LocalViewOp<T> Op>
void local_xscan(mprt::Comm& comm, std::span<T> values, const Op& op,
                 ScanAlgo algo = ScanAlgo::kAuto) {
  if (detail::scan_baseline(comm, op, values, algo, /*inclusive=*/false)) {
    return;
  }
  SpanState<T, Op> state(values, op);
  rs::detail::state_xscan(comm, state, SpanState<T, Op>(values.size(), op));
}

/// LOCAL_SCAN: inclusive scan.  On return `values` holds the combination
/// of ranks [0, rank].  The inclusive scan needs no identity function, but
/// the buffer interface carries one anyway; as the paper notes (§2), the
/// inclusive scan is derivable from the exclusive scan without
/// communication while the converse requires either an invertible combine
/// or an extra shift.
template <typename T, LocalViewOp<T> Op>
void local_scan(mprt::Comm& comm, std::span<T> values, const Op& op,
                ScanAlgo algo = ScanAlgo::kAuto) {
  if (detail::scan_baseline(comm, op, values, algo, /*inclusive=*/true)) {
    return;
  }
  SpanState<T, Op> state(values, op);
  const SpanState<T, Op> own(state);
  rs::detail::state_xscan(comm, state, SpanState<T, Op>(values.size(), op));
  auto timer = comm.compute_section();
  state.combine(own);
}

// -- Scalar convenience wrappers over binary operators ----------------------

template <typename T, BinaryOperator<T> BinOp>
T local_xscan_value(mprt::Comm& comm, T value, BinOp,
                    ScanAlgo algo = ScanAlgo::kAuto) {
  ElementwiseOp<T, BinOp> op;
  local_xscan(comm, std::span<T>(&value, 1), op, algo);
  return value;
}

template <typename T, BinaryOperator<T> BinOp>
T local_scan_value(mprt::Comm& comm, T value, BinOp,
                   ScanAlgo algo = ScanAlgo::kAuto) {
  ElementwiseOp<T, BinOp> op;
  local_scan(comm, std::span<T>(&value, 1), op, algo);
  return value;
}

}  // namespace rsmpi::coll
