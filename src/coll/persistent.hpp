// Persistent-plan handles for repeated collectives (MPI's persistent
// requests, recast for operator-state allreduce/scan).
//
// A long-lived epoch loop — the streaming service in src/svc runs one per
// tenant stream — executes the *same* collective millions of times: same
// operator configuration, same communicator, same state layout.  Every
// planning decision the one-shot path makes per call is invariant across
// those calls, so it is hoisted here into a PersistentPlan made once:
//
//   * the autotuner argmin over {two-message, butterfly, Rabenseifner,
//     ring, pipelined} (invariant because part_bytes depends only on the
//     range and the prototype configuration, never on accumulated values);
//   * the segment size (RSMPI_SEGMENT_BYTES, read once);
//   * a reserved collective-tag block, re-leased each epoch so the tag
//     window is never exhausted no matter how many epochs run
//     (Comm::TagBlock; see the tag-recycling regression tests);
//   * pre-acquired pooled payload buffers sized to the serialized-state
//     layout, so the first epochs already run allocation-free.
//
// The executor funnels into the same schedule implementations as the
// one-shot dispatch (rs::detail::state_allreduce_with_schedule), so a
// cached plan is bit-identical to a freshly-planned call — the property
// tests/svc/persistent_test.cpp pins across the operator zoo.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "mprt/comm.hpp"
#include "rs/op_concepts.hpp"
#include "rs/state_exchange.hpp"

namespace rsmpi::coll {

/// Tags reserved per persistent allreduce plan: the widest epoch consumes
/// two (two-message and pipelined allreduce each run a reduce plus a
/// broadcast); the rest is headroom for schedule growth.
inline constexpr int kPersistentAllreduceTags = 4;
/// Tags per persistent scan plan (state_xscan consumes one per epoch).
inline constexpr int kPersistentScanTags = 2;

/// Buffers pre-acquired into the rank's pool at plan time.
inline constexpr int kPersistentPrimedBuffers = 4;

/// The frozen planning decisions of one persistent collective.  SPMD like
/// the collectives themselves: every member of the communicator computes
/// an identical plan from identical inputs, without communication.
struct PersistentPlan {
  rs::detail::Schedule schedule = rs::detail::Schedule::kButterfly;
  bool commutative = true;
  /// Serialized-state layout: the planned wire size of one whole state
  /// (from the partitionable hooks when available, else the serialized
  /// prototype — a lower bound for operators whose state grows).
  std::size_t state_bytes = 0;
  std::size_t segment_bytes = rs::detail::kDefaultSegmentBytes;
  mprt::Comm::TagBlock tags;
  /// Completed planned executions (epochs) through this plan.
  std::uint64_t epochs = 0;
};

namespace detail {

/// Acquires and releases `count` buffers of `bytes` capacity so the warm
/// path's first acquire hits the pool instead of the heap.  Plan-time
/// misses are the price of warm-path zero-alloc epochs.
inline void prime_buffer_pool(mprt::Comm& comm, std::size_t bytes,
                              int count) {
  if (bytes == 0) return;
  std::vector<std::vector<std::byte>> primed;
  primed.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    primed.push_back(comm.acquire_buffer(bytes));
  }
  for (auto& buf : primed) comm.recycle_buffer(std::move(buf));
}

}  // namespace detail

/// Plans a persistent allreduce of Op states over `comm`: resolves the
/// schedule (env override or autotuner argmin — counted as exactly one
/// autotune invocation), freezes the segment size, reserves the tag block,
/// and primes the buffer pool.  `commutative_override` mirrors the
/// one-shot dispatch's ablation knob.
template <rs::Combinable Op>
PersistentPlan plan_state_allreduce(
    mprt::Comm& comm, const Op& prototype,
    std::optional<bool> commutative_override = std::nullopt) {
  using rs::detail::Schedule;
  PersistentPlan plan;
  plan.commutative = commutative_override.value_or(rs::op_commutative<Op>());
  plan.schedule = rs::detail::schedule_from_env();
  if constexpr (rs::PartitionableState<Op>) {
    plan.state_bytes = rs::part_state_bytes(prototype);
    plan.segment_bytes = rs::detail::segment_bytes_from_env();
    if (plan.commutative && plan.schedule == Schedule::kAuto) {
      comm.note(mprt::Metric::kAutotuneInvocations);
      plan.schedule = rs::detail::choose_allreduce_schedule(
          comm.cost_model(), comm.size(), plan.state_bytes,
          plan.segment_bytes);
    }
  } else {
    plan.state_bytes = rs::save_op(prototype).size();
  }
  plan.tags = comm.reserve_tag_block(kPersistentAllreduceTags);
  detail::prime_buffer_pool(comm, plan.state_bytes,
                            kPersistentPrimedBuffers);
  if (plan.segment_bytes < plan.state_bytes) {
    // Segmented schedules circulate chunk buffers beside whole states.
    detail::prime_buffer_pool(comm, plan.segment_bytes,
                              kPersistentPrimedBuffers);
  }
  return plan;
}

/// Plans a persistent exclusive scan (state_xscan) over `comm`.  Scans
/// have one schedule, so planning is tag reservation plus pool priming.
template <rs::Combinable Op>
PersistentPlan plan_state_xscan(mprt::Comm& comm, const Op& prototype) {
  PersistentPlan plan;
  plan.commutative = rs::op_commutative<Op>();
  plan.schedule = rs::detail::Schedule::kTwoMessage;  // nominal; unused
  if constexpr (rs::PartitionableState<Op>) {
    plan.state_bytes = rs::part_state_bytes(prototype);
  } else {
    plan.state_bytes = rs::save_op(prototype).size();
  }
  plan.tags = comm.reserve_tag_block(kPersistentScanTags);
  detail::prime_buffer_pool(comm, plan.state_bytes,
                            kPersistentPrimedBuffers);
  return plan;
}

/// One warm epoch of a planned allreduce: leases the plan's tag block
/// (recycling the same tags every epoch — safe because an epoch's
/// messages are consumed within the epoch, and a chaos duplicate dies in
/// the mailbox, whose channel has already delivered its sequence number)
/// and executes the frozen schedule through the same code path as the
/// one-shot dispatch.  No env reads, no cost-model argmins, no allocations
/// once the pool is warm.
template <rs::Combinable Op>
void execute_planned_allreduce(mprt::Comm& comm, Op& op,
                               PersistentPlan& plan) {
  mprt::TagBlockLease lease(comm, plan.tags);
  rs::detail::state_allreduce_with_schedule(comm, op, plan.schedule,
                                            plan.segment_bytes,
                                            plan.commutative);
  plan.epochs += 1;
}

/// One warm epoch of a planned exclusive scan: on return `op` holds the
/// combination of all lower ranks' epoch states (identity on rank 0).
template <rs::Combinable Op>
void execute_planned_xscan(mprt::Comm& comm, Op& op, const Op& prototype,
                           PersistentPlan& plan) {
  mprt::TagBlockLease lease(comm, plan.tags);
  rs::detail::state_xscan(comm, op, prototype);
  plan.epochs += 1;
}

}  // namespace rsmpi::coll
