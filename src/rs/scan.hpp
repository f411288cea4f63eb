// Global-view user-defined scan (paper Listing 3) — the paper's headline
// contribution: "the first global-view formulation of user-defined scans".
//
// The algorithm has three stages:
//   1. accumulate: each rank folds its local slice into a state, exactly
//      as the reduction does (pre_accum / accum / post_accum) — including
//      the work-stealing parallel path under detail::accumulate_local
//      when RSMPI_LOCAL_THREADS enables it (stage 3's generate/replay
//      walk is inherently sequential: each position's output depends on
//      the state after every earlier position);
//   2. LOCAL_XSCAN over the per-rank states: each rank obtains the
//      combination of all lower ranks' states (identity on rank 0);
//   3. generate/replay: starting from that prefix state, re-walk the local
//      slice, emitting f_scan_gen at each position and folding the
//      position's value back in with f_accum.
//
// Listing 3 as printed produces the exclusive scan; interchanging its
// lines 12 and 13 (generate before vs. after the accumulate) yields the
// inclusive scan, and `kind` selects between the two.
#pragma once

#include <ranges>
#include <vector>

#include "rs/op_concepts.hpp"
#include "rs/reduce.hpp"
#include "rs/state_exchange.hpp"

namespace rsmpi::rs {

enum class ScanKind { kInclusive, kExclusive };

namespace detail {

/// Stage 3 of Listing 3 (lines 10–13): starting from `op`, the exclusive
/// prefix state, re-walks `local`, emitting f_scan_gen at each position
/// and folding the position's value back in with f_accum — before the
/// generate for the inclusive scan, after it for the exclusive one.
/// rs::scan, rs::scan_async and svc::PersistentScan all finish here.
template <typename Op, std::ranges::forward_range R>
std::vector<scan_result_t<Op, std::ranges::range_value_t<R>>> scan_replay(
    mprt::Comm& comm, Op op, R&& local, ScanKind kind) {
  using In = std::ranges::range_value_t<R>;
  std::vector<scan_result_t<Op, In>> out;
  if constexpr (std::ranges::sized_range<R>) {
    out.reserve(static_cast<std::size_t>(std::ranges::size(local)));
  }
  auto timer = comm.compute_section();
  for (const In& x : local) {
    if (kind == ScanKind::kExclusive) {
      out.push_back(scan_result(op, x));
      op.accum(x);
    } else {
      op.accum(x);
      out.push_back(scan_result(op, x));
    }
  }
  return out;
}

}  // namespace detail

/// Global-view scan over the conceptual concatenation of every rank's
/// local slice.  Returns this rank's slice of the scanned output, one
/// value per local input position.  Requires a forward range because the
/// input is walked twice (accumulate, then generate/replay).
template <typename Op, std::ranges::forward_range R>
  requires ScanOp<Op, std::ranges::range_value_t<R>>
std::vector<scan_result_t<Op, std::ranges::range_value_t<R>>> scan(
    mprt::Comm& comm, R&& local, Op op,
    ScanKind kind = ScanKind::kInclusive) {
  const Op prototype = op;

  // Stage 1: accumulate the local slice (Listing 3 lines 2–8).
  detail::accumulate_local(comm, op, local);

  // Stage 2: exclusive scan of states across ranks (line 9).
  detail::state_xscan(comm, op, prototype);

  // Stage 3: generate + replay (lines 10–13).  `op` now holds the
  // combination of all lower ranks' contributions.
  return detail::scan_replay(comm, std::move(op), local, kind);
}

/// The combine half of the scan in isolation: accumulates this rank's
/// slice and returns the *exclusive prefix state* — the combination of
/// every earlier rank's fully-accumulated state (identity on rank 0).
/// Callers that don't need per-position outputs (e.g. a boundary carry
/// such as "the last value held by any earlier rank") use this directly
/// and skip the generate/replay stage.
template <typename Op, std::ranges::input_range R>
  requires Accumulates<Op, std::ranges::range_value_t<R>> && Combinable<Op> &&
           std::copy_constructible<Op> &&
           (HasSaveLoad<Op> || std::is_trivially_copyable_v<Op>)
Op xscan_state(mprt::Comm& comm, R&& local, Op op) {
  const Op prototype = op;
  detail::accumulate_local(comm, op, std::forward<R>(local));
  detail::state_xscan(comm, op, prototype);
  return op;
}

/// Exclusive scan: position i receives the combination of all earlier
/// positions, and global position 0 receives the generate of the identity
/// state — which is why the abstraction requires f_ident (§2).
template <typename Op, std::ranges::forward_range R>
  requires ScanOp<Op, std::ranges::range_value_t<R>>
auto xscan(mprt::Comm& comm, R&& local, Op op) {
  return scan(comm, std::forward<R>(local), std::move(op),
              ScanKind::kExclusive);
}

}  // namespace rsmpi::rs
