// Pipelined binomial-tree reduce/broadcast over partitionable operator
// states (ISSUE 5).
//
// A whole-state binomial reduce serializes the full state on every tree
// edge, so a rank near the root waits log2(p) full-state hops before it
// can even start combining.  When the operator is partitionable
// (rs/op_concepts.hpp), the state can instead stream through the tree in
// fixed-size segments: while a parent folds segment k, its child is
// already serializing segment k+1, hiding all but the pipeline fill of
// ceil(log2 p) − 1 segment hops.  Modelled critical path drops from
// log2(p)·hop(n) to (log2(p) + m − 1)·hop(n/m) for m segments.
//
// Segment messages share one tag per collective: the runtime's
// per-(source, tag) sequence numbers give FIFO delivery, so segment k
// from a given child always arrives before its segment k+1.  Combines
// touch each element range exactly once per edge in the same receive
// order as the whole-state schedule, so the pipelined reduce preserves
// rank order and works for non-commutative partitionable operators too.
//
// The segment size comes from the caller (state_exchange.hpp reads
// RSMPI_SEGMENT_BYTES, default kDefaultSegmentBytes); segments never cut
// an element, so operators with few large elements degenerate gracefully
// toward the whole-state schedule.
#pragma once

#include <cstddef>
#include <utility>

#include "coll/schedules.hpp"
#include "mprt/comm.hpp"
#include "mprt/topology.hpp"
#include "rs/op_concepts.hpp"

namespace rsmpi::rs::detail {

/// Default pipeline segment size: big enough to amortize per-message
/// overheads (o_s + L + o_r), small enough that the pipeline fill is cheap
/// next to the payload.  Overridable per run via RSMPI_SEGMENT_BYTES.
inline constexpr std::size_t kDefaultSegmentBytes = 64 * 1024;

/// Number of pipeline segments for `op` at the requested segment size:
/// ceil(total / segment_bytes), clamped to the element extent (segments
/// never split an element) and to at least 1.
template <PartitionableState Op>
[[nodiscard]] std::size_t plan_segment_count(const Op& op,
                                             std::size_t segment_bytes) {
  const std::size_t n = op.part_extent();
  if (n <= 1) return 1;
  const std::size_t total = op.part_bytes(0, n);
  if (segment_bytes == 0 || total <= segment_bytes) return 1;
  const std::size_t m = (total + segment_bytes - 1) / segment_bytes;
  return m < n ? m : n;
}

/// Pipelined binomial reduce to rank 0: segment k flows through the same
/// binomial tree as the whole-state schedule, all segments sharing one
/// collective tag (per-source FIFO keeps them ordered).  Order-preserving,
/// so non-commutative partitionable operators are fine.  Ranks other than
/// 0 are left holding partially-reduced garbage, exactly like the
/// whole-state reduce schedules.
template <Combinable Op>
  requires PartitionableState<Op>
void state_reduce_pipelined(mprt::Comm& comm, Op& op,
                            std::size_t segment_bytes = kDefaultSegmentBytes) {
  const int p = comm.size();
  if (p == 1) return;
  const int tag = comm.next_collective_tag();
  const std::size_t n = op.part_extent();
  const std::size_t m = plan_segment_count(op, segment_bytes);
  const auto steps =
      mprt::topology::binomial_reduce_schedule(comm.rank(), p);

  for (std::size_t k = 0; k < m; ++k) {
    const std::size_t lo = mprt::topology::chunk_start(
        n, static_cast<int>(m), static_cast<int>(k));
    const std::size_t hi = mprt::topology::chunk_start(
        n, static_cast<int>(m), static_cast<int>(k) + 1);
    for (const auto& step : steps) {
      if (step.role == mprt::topology::BinomialStep::Role::kSend) {
        send_state_part(comm, step.partner, tag, op, lo, hi);
      } else {
        auto msg = comm.recv_message(step.partner, tag);
        combine_part_received(comm, op, lo, hi, std::move(msg));
      }
    }
  }
}

/// Pipelined binomial broadcast from rank 0: the mirror schedule, with
/// every receiver overwriting the segment before forwarding it.
template <Combinable Op>
  requires PartitionableState<Op>
void state_bcast_pipelined(mprt::Comm& comm, Op& op,
                           std::size_t segment_bytes = kDefaultSegmentBytes) {
  const int p = comm.size();
  if (p == 1) return;
  const int tag = comm.next_collective_tag();
  const std::size_t n = op.part_extent();
  const std::size_t m = plan_segment_count(op, segment_bytes);
  const auto steps = mprt::topology::binomial_bcast_schedule(comm.rank(), p);

  for (std::size_t k = 0; k < m; ++k) {
    const std::size_t lo = mprt::topology::chunk_start(
        n, static_cast<int>(m), static_cast<int>(k));
    const std::size_t hi = mprt::topology::chunk_start(
        n, static_cast<int>(m), static_cast<int>(k) + 1);
    for (const auto& step : steps) {
      if (step.role == mprt::topology::BinomialStep::Role::kSend) {
        send_state_part(comm, step.partner, tag, op, lo, hi);
      } else {
        auto msg = comm.recv_message(step.partner, tag);
        load_part_received(comm, op, lo, hi, std::move(msg));
      }
    }
  }
}

/// Pipelined allreduce: pipelined reduce to rank 0 followed by pipelined
/// broadcast.  The broadcast overwrites every element range on every
/// non-root rank, so the partial reduce states they hold in between never
/// leak into the result.
template <Combinable Op>
  requires PartitionableState<Op>
void state_allreduce_pipelined(
    mprt::Comm& comm, Op& op,
    std::size_t segment_bytes = kDefaultSegmentBytes) {
  state_reduce_pipelined(comm, op, segment_bytes);
  state_bcast_pipelined(comm, op, segment_bytes);
}

}  // namespace rsmpi::rs::detail
