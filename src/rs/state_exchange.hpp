// Allreduce dispatch for the global-view abstraction: choosing among the
// state schedules and running the choice.
//
// These routines are the LOCAL_REDUCE / LOCAL_XSCAN of Listings 2–3,
// specialized to a single variable-size operator state per rank instead of
// a fixed value buffer.  The schedules themselves live in
// coll/schedules.hpp (binomial, combine-as-available, ring, Rabenseifner,
// exclusive scan), coll/pipeline.hpp and coll/hierarchical.hpp; this
// header adds the recursive-doubling butterfly, the two-message
// reduce-then-broadcast, the planted mutation the model checker hunts,
// and the cost-model autotuner that picks among them.
#pragma once

#include <bit>
#include <cstdlib>
#include <string_view>
#include <utility>
#include <vector>

#include "coll/hierarchical.hpp"
#include "coll/pipeline.hpp"
#include "coll/schedules.hpp"
#include "mprt/comm.hpp"
#include "mprt/cost_model.hpp"
#include "rs/op_concepts.hpp"
#include "util/error.hpp"

namespace rsmpi::rs::detail {

// -- Schedule selection (ISSUE 5) -------------------------------------------
//
// state_allreduce/state_reduce_to_zero pick among the schedules below by
// evaluating the ScheduleCost closed forms against the communicator's cost
// model; RSMPI_SCHEDULE pins a schedule and RSMPI_SEGMENT_BYTES sets the
// pipeline granularity (see docs/schedules.md).

enum class Schedule {
  kAuto,         // argmin of the cost-model predictions
  kTwoMessage,   // reduce to rank 0 + broadcast (legacy; order-preserving)
  kButterfly,    // recursive doubling, whole state per round
  kRabenseifner, // chunked recursive halving + doubling (partitionable)
  kRing,         // chunked reduce-scatter + allgather ring (partitionable)
  kPipelined,    // segmented binomial tree(s) (partitionable)
  kHierarchical, // two-level node-leader schedule (two-tier cost models)
};

/// Reads RSMPI_SCHEDULE (unset or "auto" → kAuto; unknown values throw, so
/// typos fail loudly instead of silently benchmarking the wrong schedule).
inline Schedule schedule_from_env() {
  const char* raw = std::getenv("RSMPI_SCHEDULE");
  if (raw == nullptr) return Schedule::kAuto;
  const std::string_view v(raw);
  if (v.empty() || v == "auto") return Schedule::kAuto;
  if (v == "two_message" || v == "reduce_bcast") return Schedule::kTwoMessage;
  if (v == "butterfly") return Schedule::kButterfly;
  if (v == "rabenseifner") return Schedule::kRabenseifner;
  if (v == "ring") return Schedule::kRing;
  if (v == "pipelined") return Schedule::kPipelined;
  if (v == "hierarchical") return Schedule::kHierarchical;
  throw ArgumentError("RSMPI_SCHEDULE: unknown schedule name");
}

/// Reads RSMPI_SEGMENT_BYTES (pipeline segment size; default 64 KiB).
inline std::size_t segment_bytes_from_env() {
  const char* raw = std::getenv("RSMPI_SEGMENT_BYTES");
  if (raw == nullptr || *raw == '\0') return kDefaultSegmentBytes;
  const unsigned long long v = std::strtoull(raw, nullptr, 10);
  return v == 0 ? std::size_t{1} : static_cast<std::size_t>(v);
}

/// Cost-model argmin over the allreduce schedules available to a
/// commutative, partitionable operator.  Ties break toward the earlier
/// entry in the candidate order below, which lists the simpler schedules
/// first (butterfly before the segmented ones).
inline Schedule choose_allreduce_schedule(const mprt::CostModel& model, int p,
                                          std::size_t state_bytes,
                                          std::size_t segment_bytes) {
  using SC = mprt::ScheduleCost;
  std::vector<std::pair<Schedule, double>> candidates = {
      {Schedule::kButterfly, SC::butterfly(model, p, state_bytes)},
      {Schedule::kTwoMessage, SC::two_message(model, p, state_bytes)},
      {Schedule::kRabenseifner, SC::rabenseifner(model, p, state_bytes)},
      {Schedule::kRing, SC::ring(model, p, state_bytes)},
      {Schedule::kPipelined,
       SC::pipelined_tree_allreduce(model, p, state_bytes, segment_bytes)},
  };
  if (model.two_tier()) {
    // Only meaningful on a two-tier machine, and listed last: flat
    // schedules win ties, and this autotuner only runs for commutative
    // partitionable operators, so the different-bracketing caveat of the
    // hierarchical schedule (see coll/hierarchical.hpp) never applies.
    candidates.emplace_back(
        Schedule::kHierarchical,
        SC::hierarchical(model, p, state_bytes, /*seg_ok=*/true));
  }
  Schedule best = candidates[0].first;
  double best_cost = candidates[0].second;
  for (const auto& [s, cost] : candidates) {
    if (cost < best_cost) {
      best = s;
      best_cost = cost;
    }
  }
  return best;
}

/// DELIBERATELY WRONG allreduce variant, kept only as the model checker's
/// detection target (tests/verify/mutation_test.cpp): it routes the
/// operator through the combine-as-available tree *regardless of
/// commutativity* — the classic ordering bug of selecting a
/// commutative-only schedule for a non-commutative operator.  Never
/// dispatched by state_allreduce; calling it with a non-commutative
/// operator produces order-dependent results the exhaustive explorer must
/// catch with a minimal replayable trace.
template <Combinable Op>
void state_allreduce_mutation_unordered(mprt::Comm& comm, Op& op) {
  if (comm.size() == 1) return;
  state_reduce_unordered(comm, whole(comm), comm.next_collective_tag(), op);
  state_bcast_binomial(comm, whole(comm), comm.next_collective_tag(), op);
}

/// Reduces operator states to rank 0, choosing the schedule from the
/// operator's commutativity trait (or an explicit override used by the
/// commutativity ablation benchmark).  Partitionable states stream through
/// the pipelined binomial tree when RSMPI_SCHEDULE forces it or the cost
/// model strictly prefers it (large states); the pipeline is
/// order-preserving, so this holds for non-commutative operators too.
template <Combinable Op>
void state_reduce_to_zero(mprt::Comm& comm, Op& op,
                          bool commutative = op_commutative<Op>()) {
  if (comm.size() == 1) return;
  if constexpr (PartitionableState<Op>) {
    const Schedule forced = schedule_from_env();
    if (forced == Schedule::kPipelined ||
        (forced == Schedule::kAuto && [&] {
          using SC = mprt::ScheduleCost;
          const auto& model = comm.cost_model();
          const std::size_t bytes = part_state_bytes(op);
          return SC::pipelined_tree_reduce(model, comm.size(), bytes,
                                           segment_bytes_from_env()) <
                 SC::tree_reduce(model, comm.size(), bytes);
        }())) {
      state_reduce_pipelined(comm, op, segment_bytes_from_env());
      return;
    }
  }
  if (commutative) {
    state_reduce_unordered(comm, whole(comm), comm.next_collective_tag(), op);
  } else {
    state_reduce_binomial(comm, op);
  }
}

/// Legacy allreduce shape: reduce to rank 0, then broadcast the finished
/// state.  2·log p rounds with rank 0 as a bandwidth hotspot; kept as the
/// only order-preserving option (non-commutative operators) and as the
/// baseline the butterfly is benchmarked against.
template <Combinable Op>
void state_allreduce_reduce_bcast(mprt::Comm& comm, Op& op,
                                  bool commutative = op_commutative<Op>()) {
  if (comm.size() == 1) return;
  state_reduce_to_zero(comm, op, commutative);
  state_bcast_binomial(comm, whole(comm), comm.next_collective_tag(), op);
}

/// Recursive-doubling (butterfly) allreduce: log p rounds, every rank
/// sends and receives once per round, no root hotspot.  Requires
/// commutativity — in round d, rank r folds partner r^d's partial on the
/// right regardless of which side of r it sits on.  Non-powers-of-two are
/// folded in Rabenseifner-style: the trailing p - 2^k ranks deposit their
/// state into a butterfly member first and receive the finished result
/// back at the end (2 extra rounds for those ranks only).
template <Combinable Op>
void state_allreduce_butterfly(mprt::Comm& comm, Op& op) {
  const int p = comm.size();
  if (p == 1) return;
  const int tag = comm.next_collective_tag();
  const int rank = comm.rank();
  const int p2 =
      static_cast<int>(std::bit_floor(static_cast<unsigned>(p)));

  if (rank >= p2) {
    // Outside the butterfly: contribute, then receive the final state.
    send_state(comm, rank - p2, tag, op);
    load_received_state(comm, op, comm.recv_message(rank - p2, tag));
    return;
  }
  if (rank + p2 < p) {
    combine_received_state(comm, op, comm.recv_message(rank + p2, tag));
  }
  for (int d = 1; d < p2; d <<= 1) {
    const int partner = rank ^ d;
    send_state(comm, partner, tag, op);
    combine_received_state(comm, op, comm.recv_message(partner, tag));
  }
  if (rank + p2 < p) {
    send_state(comm, rank + p2, tag, op);
  }
}

/// Executes an allreduce with an already-resolved schedule decision — the
/// shared back half of the fresh dispatch below and of the persistent-plan
/// executor (coll/persistent.hpp), so a cached plan runs bit-identically
/// to a freshly-planned call.  Performs no planning of its own: no env
/// reads, no cost-model argmins.  Non-commutative operators always take
/// the order-preserving reduce+bcast; non-partitionable commutative ones
/// fall back to the whole-state butterfly for any segmented schedule name.
template <Combinable Op>
void state_allreduce_with_schedule(mprt::Comm& comm, Op& op,
                                   Schedule schedule,
                                   std::size_t segment_bytes,
                                   bool commutative) {
  if (comm.size() == 1) return;
  if (!commutative) {
    // The hierarchical schedule is order-preserving when its leader tier
    // is pinned to the ordered binomial, so a forced request is honoured
    // on a two-tier model; everything else takes the flat reduce+bcast.
    if (schedule == Schedule::kHierarchical &&
        comm.cost_model().two_tier()) {
      state_allreduce_hierarchical(comm, op, /*commutative=*/false);
      return;
    }
    state_allreduce_reduce_bcast(comm, op, /*commutative=*/false);
    return;
  }
  if constexpr (PartitionableState<Op>) {
    switch (schedule) {
      case Schedule::kTwoMessage:
        state_allreduce_reduce_bcast(comm, op, /*commutative=*/true);
        return;
      case Schedule::kRabenseifner:
        state_allreduce_rabenseifner(comm, op);
        return;
      case Schedule::kRing:
        state_allreduce_ring(comm, op);
        return;
      case Schedule::kPipelined:
        state_allreduce_pipelined(comm, op, segment_bytes);
        return;
      case Schedule::kHierarchical:
        state_allreduce_hierarchical(comm, op, /*commutative=*/true);
        return;
      case Schedule::kAuto:
      case Schedule::kButterfly:
        state_allreduce_butterfly(comm, op);
        return;
    }
  } else {
    if (schedule == Schedule::kTwoMessage) {
      state_allreduce_reduce_bcast(comm, op, /*commutative=*/true);
    } else if (schedule == Schedule::kHierarchical) {
      state_allreduce_hierarchical(comm, op, /*commutative=*/true);
    } else {
      state_allreduce_butterfly(comm, op);
    }
  }
}

/// Allreduce dispatch.  Non-commutative operators always take the
/// order-preserving reduce+bcast.  Commutative *partitionable* operators
/// are autotuned: the cost-model argmin over {two-message, butterfly,
/// Rabenseifner, ring, pipelined}, overridable via RSMPI_SCHEDULE.
/// Commutative non-partitionable operators keep the whole-state butterfly
/// (segmented schedule names in RSMPI_SCHEDULE gracefully fall back to it;
/// only two_message is honoured, since it needs no partitioning).  The
/// `commutative` override is used by the ablation benchmarks and by tests
/// pinning a specific schedule.
template <Combinable Op>
void state_allreduce(mprt::Comm& comm, Op& op,
                     bool commutative = op_commutative<Op>()) {
  if (comm.size() == 1) return;
  if (!commutative) {
    // Never autotuned for noncommutative operators (the hierarchical
    // bracketing differs from the flat reduce tree's), but an explicit
    // RSMPI_SCHEDULE=hierarchical is honoured on a two-tier model — the
    // ordered leader tier keeps it legal.
    if (schedule_from_env() == Schedule::kHierarchical &&
        comm.cost_model().two_tier()) {
      state_allreduce_hierarchical(comm, op, /*commutative=*/false);
      return;
    }
    state_allreduce_reduce_bcast(comm, op, /*commutative=*/false);
    return;
  }
  const Schedule forced = schedule_from_env();
  Schedule schedule = forced;
  std::size_t segment_bytes = kDefaultSegmentBytes;
  if constexpr (PartitionableState<Op>) {
    segment_bytes = segment_bytes_from_env();
    if (forced == Schedule::kAuto) {
      comm.note(mprt::Metric::kAutotuneInvocations);
      schedule = choose_allreduce_schedule(comm.cost_model(), comm.size(),
                                           part_state_bytes(op), segment_bytes);
    }
  }
  state_allreduce_with_schedule(comm, op, schedule, segment_bytes,
                                /*commutative=*/true);
}

}  // namespace rsmpi::rs::detail
