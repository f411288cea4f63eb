// LOCAL_REDUCE / LOCAL_ALLREDUCE: the paper's local-view reduction
// abstraction (§2).  Each rank contributes one already-accumulated value
// buffer; these routines run the combine phase of Figure 1 across ranks.
//
// A buffer plus its operator is an operator state (coll::SpanState), so
// the trees are the global view's own schedules (coll/schedules.hpp) over
// the communicator rotated to the root.  Algorithm selection follows §1's
// discussion of operator properties:
//   * non-commutative (but associative) operators use an order-preserving
//     binomial tree, in which every partial result covers a contiguous
//     rank interval and combines always append on the right;
//   * commutative operators may also use a k-ary combine-as-available tree,
//     which exploits a branching factor greater than two;
//   * commutative element-wise operators may use Rabenseifner's
//     bandwidth-optimal reduce-scatter + allgather;
//   * a linear chain is provided as the baseline the log-tree variants are
//     measured against.
#pragma once

#include <span>
#include <vector>

#include "coll/buffer_op.hpp"
#include "coll/schedules.hpp"
#include "mprt/comm.hpp"
#include "mprt/topology.hpp"
#include "util/error.hpp"

namespace rsmpi::coll {

enum class ReduceAlgo {
  kAuto,           ///< binomial if non-commutative, k-ary unordered otherwise
  kLinear,         ///< rank 0 folds contributions in rank order
  kBinomial,       ///< order-preserving log tree (safe for non-commutative)
  kUnorderedTree,  ///< k-ary combine-as-available (requires commutative)
};

namespace detail {

/// Linear chain: every rank sends to root, which folds in rank order.
template <typename T, LocalViewOp<T> Op>
void reduce_linear(mprt::Comm& comm, int root, std::span<T> values,
                   const Op& op) {
  const int p = comm.size();
  const int tag = comm.next_collective_tag();
  if (comm.rank() != root) {
    comm.send_span(root, tag, std::span<const T>(values));
    return;
  }
  // Fold left-to-right over rank order; the root's own block sits at
  // position `root`, so contributions below it arrive on the left.
  std::vector<T> acc;
  bool have_acc = false;
  std::vector<T> received(values.size());
  for (int r = 0; r < p; ++r) {
    std::span<const T> block;
    if (r == root) {
      block = std::span<const T>(values.data(), values.size());
    } else {
      comm.recv_span<T>(r, tag, received);
      block = std::span<const T>(received);
    }
    if (!have_acc) {
      acc.assign(block.begin(), block.end());
      have_acc = true;
    } else {
      op.combine(std::span<T>(acc), block);
    }
  }
  std::copy(acc.begin(), acc.end(), values.begin());
}

}  // namespace detail

/// LOCAL_REDUCE: combines each rank's buffer across ranks; the result is
/// valid in `values` on `root` only (other ranks' buffers are clobbered
/// with partial results).  Non-commutative operators are handled with an
/// order-preserving schedule regardless of the requested algorithm.
/// `unordered_arity` is the branching factor of the combine-as-available
/// tree (§1: factors greater than two let commutative reductions fold
/// whichever partial results arrive first).
template <typename T, LocalViewOp<T> Op>
void local_reduce(mprt::Comm& comm, int root, std::span<T> values,
                  const Op& op, ReduceAlgo algo = ReduceAlgo::kAuto,
                  int unordered_arity = rs::detail::kUnorderedArity) {
  const int p = comm.size();
  if (root < 0 || root >= p) {
    throw ArgumentError("local_reduce: root rank out of range");
  }
  if (p == 1) return;

  const bool commutative = is_commutative<Op>();
  if (!commutative && algo == ReduceAlgo::kUnorderedTree) {
    throw ArgumentError(
        "local_reduce: combine-as-available schedule requires a commutative "
        "operator");
  }

  // For non-commutative operators with a nonzero root, rotating the tree
  // would destroy rank-order contiguity; instead reduce to rank 0 in order
  // and forward the finished result to the requested root.
  const bool forward_from_zero =
      !commutative && root != 0 &&
      (algo == ReduceAlgo::kBinomial || algo == ReduceAlgo::kAuto);
  const int tree_root = forward_from_zero ? 0 : root;

  if (unordered_arity < 2) {
    throw ArgumentError("local_reduce: unordered arity must be >= 2");
  }
  if (algo == ReduceAlgo::kLinear) {
    detail::reduce_linear(comm, tree_root, values, op);
  } else {
    SpanState<T, Op> state(values, op);
    const auto map =
        mprt::topology::RankMap::rotated(p, comm.rank(), tree_root);
    const int tag = comm.next_collective_tag();
    if (algo == ReduceAlgo::kUnorderedTree ||
        (algo == ReduceAlgo::kAuto && commutative)) {
      rs::detail::state_reduce_unordered(comm, map, tag, state,
                                         unordered_arity);
    } else {
      rs::detail::state_reduce_binomial(comm, map, tag, state);
    }
  }

  if (forward_from_zero) {
    const int tag = comm.next_collective_tag();
    if (comm.rank() == 0) {
      comm.send_span(root, tag, std::span<const T>(values));
    } else if (comm.rank() == root) {
      comm.recv_span<T>(0, tag, values);
    }
  }
}

/// LOCAL_ALLREDUCE: as local_reduce but the result is valid on every rank.
/// Implemented as reduce-to-root plus the shared binomial state broadcast,
/// which preserves operand order for non-commutative operators.  The
/// broadcast move-sends pooled buffers down the tree the reduce sent them
/// up, so a repeated allreduce circulates the same payload buffers instead
/// of piling them up in the root's pool.
template <typename T, LocalViewOp<T> Op>
void local_allreduce(mprt::Comm& comm, std::span<T> values, const Op& op,
                     ReduceAlgo algo = ReduceAlgo::kAuto,
                     int unordered_arity = rs::detail::kUnorderedArity) {
  local_reduce(comm, 0, values, op, algo, unordered_arity);
  SpanState<T, Op> state(values, op);
  rs::detail::state_bcast_binomial(comm, rs::detail::whole(comm),
                                   comm.next_collective_tag(), state);
}

/// In-place allreduce of `values` by Rabenseifner's recursive-halving
/// reduce-scatter + recursive-doubling allgather.  The reduce-to-root +
/// broadcast allreduce moves the whole buffer along every tree edge, about
/// 2·log2(p)·n bytes on the critical path; this schedule moves about
/// 2·(1 − 1/p)·n — the bandwidth-optimal schedule for large aggregated
/// payloads (§2.1 aggregation makes payloads large, and §1 notes
/// commutative operators can "take better advantage of the network").
/// The buffer is cut into element chunks combined in pair order, so the
/// operator must be commutative and element-wise; any other throws
/// ArgumentError.  The buffer must have the same extent on every rank.
template <typename T, LocalViewOp<T> Op>
void local_allreduce_rabenseifner(mprt::Comm& comm, std::span<T> values,
                                  const Op& op) {
  if (!is_commutative<Op>()) {
    throw ArgumentError(
        "rabenseifner allreduce requires a commutative operator");
  }
  if constexpr (!is_elementwise<Op>()) {
    throw ArgumentError(
        "rabenseifner allreduce requires an element-wise operator");
  } else {
    SpanState<T, Op> state(values, op);
    rs::detail::state_allreduce_rabenseifner(comm, state);
  }
}

// -- Scalar convenience wrappers over binary operators ----------------------

/// Reduces one value per rank with a scalar binary operator; result valid
/// on root (other ranks receive their partial result).
template <typename T, BinaryOperator<T> BinOp>
T local_reduce_value(mprt::Comm& comm, int root, T value, BinOp,
                     ReduceAlgo algo = ReduceAlgo::kAuto) {
  ElementwiseOp<T, BinOp> op;
  local_reduce(comm, root, std::span<T>(&value, 1), op, algo);
  return value;
}

/// Allreduce of one value per rank with a scalar binary operator.
template <typename T, BinaryOperator<T> BinOp>
T local_allreduce_value(mprt::Comm& comm, T value, BinOp,
                        ReduceAlgo algo = ReduceAlgo::kAuto) {
  ElementwiseOp<T, BinOp> op;
  local_allreduce(comm, std::span<T>(&value, 1), op, algo);
  return value;
}

}  // namespace rsmpi::coll
