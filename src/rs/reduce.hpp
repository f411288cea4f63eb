// Global-view user-defined reduction (paper Listing 2).
//
// Unlike the local-view routines — which assume each rank has already
// accumulated its data into one partial value — the global-view reduction
// owns *both* phases of Figure 1: it runs the accumulate loop over the
// rank's local slice of the conceptual global array (with the optional
// pre/post hooks on the boundary elements), combines the per-rank states
// along a log tree, and applies the generate function to produce the
// output type.  This is the Chapel expression
//
//     result = op(...) reduce A;
//
// rendered as a C++ function template.
#pragma once

#include <cstddef>
#include <optional>
#include <ranges>

#include "par/accumulate.hpp"
#include "rs/op_concepts.hpp"
#include "rs/state_exchange.hpp"

namespace rsmpi::rs {

namespace detail {

/// The accumulate phase of Listing 2, lines 2–8: pre_accum on the first
/// local value, accum over every local value, post_accum on the last.
/// Local compute is charged to the rank's virtual clock.
///
/// Sized random-access ranges of combinable operators route through the
/// work-stealing worker pool (par::accumulate_indexed): serial by
/// default, parallel when RSMPI_LOCAL_THREADS > 1, and bit-identical to
/// the sequential loop either way — chunk states merge in index order
/// (see docs/parallel_local.md).  Every entry point built on this —
/// reduce / allreduce / scan / reduce_async / scan_async / the svc
/// persistent epochs — therefore gets parallel local accumulation for
/// free.  `op` must arrive in identity state (the documented prototype
/// contract, op_concepts.hpp); it doubles as the chunk-clone source.
/// Other ranges (pure input iterators, non-combinable operators) keep
/// the sequential loop.
template <typename Op, std::ranges::input_range R>
  requires Accumulates<Op, std::ranges::range_value_t<R>>
void accumulate_local(mprt::Comm& comm, Op& op, R&& local) {
  using In = std::ranges::range_value_t<R>;
  if constexpr (std::ranges::random_access_range<R> &&
                std::ranges::sized_range<R> && Combinable<Op> &&
                std::copy_constructible<Op>) {
    const std::size_t n = std::ranges::size(local);
    const auto first = std::ranges::begin(local);
    par::accumulate_indexed(
        comm, op, op, n, [&](std::size_t i) -> decltype(auto) {
          return first[static_cast<std::ranges::range_difference_t<R>>(i)];
        });
  } else {
    auto timer = comm.compute_section();
    auto it = std::ranges::begin(local);
    const auto end = std::ranges::end(local);
    if (it == end) return;
    pre_accum_if(op, static_cast<const In&>(*it));
    if constexpr (HasPostAccum<Op, In>) {
      // `last` is only materialized (and copied per element) when the
      // operator actually observes the final value.
      In last = *it;
      for (; it != end; ++it) {
        const In& x = *it;
        op.accum(x);
        last = x;
      }
      op.post_accum(static_cast<const In&>(last));
    } else {
      for (; it != end; ++it) op.accum(*it);
    }
  }
}

}  // namespace detail

/// Accumulates this rank's local values into `op` and combines states
/// across ranks; returns the fully-combined operator state on every rank.
/// Building block for reduce/allreduce and for callers that want to reuse
/// the state (e.g. to call several generate functions).
///
/// `commutative_override` forces the combine schedule regardless of the
/// operator's trait.  Forcing a non-commutative operator onto the
/// combine-as-available schedule produces wrong answers — it exists to
/// reproduce the paper's §4.1 experiment of flagging `sorted` commutative
/// (no speedup, failed verification) and for A/B benchmarks of the
/// schedules themselves.
template <typename Op, std::ranges::input_range R>
  requires ReductionOp<Op, std::ranges::range_value_t<R>>
Op reduce_state(mprt::Comm& comm, R&& local, Op op,
                std::optional<bool> commutative_override = std::nullopt) {
  detail::accumulate_local(comm, op, std::forward<R>(local));
  detail::state_allreduce(comm, op,
                          commutative_override.value_or(op_commutative<Op>()));
  return op;
}

/// Global-view reduction; the generated result is returned on every rank
/// (Chapel's reduce expression yields its value wherever it is used).  The
/// combined state expires here, so it generates as an rvalue.
///
///   auto mins = rs::reduce(comm, my_slice, ops::MinK<int>(10));
template <typename Op, std::ranges::input_range R>
  requires ReductionOp<Op, std::ranges::range_value_t<R>>
reduce_result_t<Op> reduce(mprt::Comm& comm, R&& local, Op op) {
  return red_result(reduce_state(comm, std::forward<R>(local), std::move(op)));
}

/// Synonym for reduce(); provided because the local-view vocabulary
/// (§2) distinguishes REDUCE from ALLREDUCE and callers porting MPI code
/// expect the name.
template <typename Op, std::ranges::input_range R>
  requires ReductionOp<Op, std::ranges::range_value_t<R>>
reduce_result_t<Op> allreduce(mprt::Comm& comm, R&& local, Op op) {
  return reduce(comm, std::forward<R>(local), std::move(op));
}

/// Root-only variant: the combined result is generated on `root` and
/// std::nullopt is returned elsewhere, saving the broadcast of the final
/// state when only one rank consumes it.
template <typename Op, std::ranges::input_range R>
  requires ReductionOp<Op, std::ranges::range_value_t<R>>
std::optional<reduce_result_t<Op>> reduce_root(mprt::Comm& comm, int root,
                                               R&& local, Op op) {
  detail::accumulate_local(comm, op, std::forward<R>(local));
  if (comm.size() > 1) {
    detail::state_reduce_to_zero(comm, op);
    if (root != 0) {
      const int tag = comm.next_collective_tag();
      if (comm.rank() == 0) {
        detail::send_state(comm, root, tag, op);
      } else if (comm.rank() == root) {
        detail::load_received_state(comm, op, comm.recv_message(0, tag));
      }
    }
  }
  if (comm.rank() != root) return std::nullopt;
  return red_result(std::move(op));
}

}  // namespace rsmpi::rs
