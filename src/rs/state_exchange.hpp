// Combine-phase plumbing for the global-view abstraction: moving operator
// *state* between ranks and folding it with f_combine.
//
// These routines are the LOCAL_REDUCE / LOCAL_XSCAN of Listings 2–3,
// specialized to a single variable-size operator state per rank instead of
// a fixed value buffer.  Schedules offered: order-preserving binomial
// (non-commutative safe), combine-as-available k-ary tree (commutative
// only), recursive-doubling butterfly allreduce (commutative only), and a
// deferred-prefix exclusive scan.
//
// The hot path is zero-copy end to end (ISSUE 3): states are serialized
// into pooled buffers (Comm::acquire_buffer), handed to the receiver by
// move (no sender-side copy), folded straight out of the receive buffer
// (combine_op_from_bytes — no intermediate Op when the operator provides
// combine_from_bytes), and the receive buffer is recycled into the
// receiving rank's pool.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <numeric>
#include <string_view>
#include <utility>
#include <vector>

#include "coll/bcast.hpp"
#include "coll/hierarchical.hpp"
#include "coll/pipeline.hpp"
#include "coll/ring.hpp"
#include "mprt/comm.hpp"
#include "mprt/cost_model.hpp"
#include "mprt/topology.hpp"
#include "rs/op_concepts.hpp"
#include "util/error.hpp"

namespace rsmpi::rs::detail {

inline constexpr int kUnorderedArity = 4;

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

// send_state / combine_received_state — the whole-state transfer
// primitives these schedules are built on — live in coll/ring.hpp beside
// their segmented analogues, included above.

// -- Model-checking instrumentation (ISSUE 7) -------------------------------

/// Largest fan-in for which all n! fold orders are locally simulated before
/// branching (5! = 120 serializations; fan-ins past the probe bound skip
/// the pruning and branch directly).
inline constexpr std::size_t kMaxProbeChildren = 5;

inline std::uint64_t fold_order_count(std::size_t n) {
  std::uint64_t f = 1;
  for (std::size_t i = 2; i <= n; ++i) f *= i;
  return f;
}

/// Folds `pending` received states into `op` in an order dictated by the
/// schedule oracle — the instrumented replacement for fold-on-arrival at
/// the collectives with genuine arrival-order freedom.  The candidate list
/// is canonicalized by (source, seq) so it is identical on every run
/// regardless of physical arrival order; all nondeterminism is then in the
/// oracle's choices.
///
/// Soundness of the pruning: before branching, every one of the n! fold
/// orders is simulated locally on state copies (combine_op_from_bytes and
/// save_op touch no communicator, so the probe has no side effects).  If
/// all orders serialize to identical bytes, the orders are interchangeable
/// *for these concrete states* — any downstream behaviour depends only on
/// the folded state's bytes — so one canonical order is applied without
/// consuming a decision, and note_pruned records the n!-1 sibling orders
/// skipped.  This is checked, never assumed from the operator's
/// commutativity trait: an op whose combine is commutative semantically
/// but not byte-wise (e.g. insertion-ordered containers) still branches.
/// When orders differ, the oracle chooses fold steps one at a time, with
/// payload-identical candidates grouped (folding either of two
/// byte-identical states is the same fold) for symmetry reduction.
template <Combinable Op>
void oracle_fold_messages(mprt::Comm& comm, mprt::ScheduleOracle& oracle,
                          Op& op, const Op& prototype,
                          std::vector<mprt::Message>&& pending) {
  const std::size_t n = pending.size();
  if (n == 0) return;
  if (n > 1) {
    std::sort(pending.begin(), pending.end(),
              [](const mprt::Message& a, const mprt::Message& b) {
                return std::pair(a.source, a.seq) <
                       std::pair(b.source, b.seq);
              });
  }
  if (n == 1) {
    combine_received_state(comm, op, prototype, std::move(pending[0]));
    return;
  }

  if (n <= kMaxProbeChildren) {
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::vector<std::byte> canonical;
    bool all_identical = true;
    bool first = true;
    do {
      Op probe = op;
      for (const std::size_t i : order) {
        combine_op_from_bytes(probe, prototype, pending[i].payload());
      }
      std::vector<std::byte> bytes = save_op(probe);
      if (first) {
        canonical = std::move(bytes);
        first = false;
      } else if (bytes != canonical) {
        all_identical = false;
        break;
      }
    } while (std::next_permutation(order.begin(), order.end()));
    if (all_identical) {
      oracle.note_pruned(comm.rank(), fold_order_count(n) - 1);
      for (auto& msg : pending) {
        combine_received_state(comm, op, prototype, std::move(msg));
      }
      return;
    }
  }

  std::vector<std::size_t> remaining(n);
  std::iota(remaining.begin(), remaining.end(), 0);
  while (!remaining.empty()) {
    // Distinct-payload representatives, in canonical order.
    std::vector<std::size_t> reps;
    for (const std::size_t i : remaining) {
      bool duplicate = false;
      for (const std::size_t r : reps) {
        const auto a = pending[i].payload();
        const auto b = pending[r].payload();
        if (a.size() == b.size() &&
            std::equal(a.begin(), a.end(), b.begin())) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) reps.push_back(i);
    }
    std::size_t pick = reps[0];
    if (reps.size() > 1) {
      const int choice =
          oracle.choose(comm.rank(), static_cast<int>(reps.size()));
      pick = reps[static_cast<std::size_t>(choice)];
    }
    combine_received_state(comm, op, prototype, std::move(pending[pick]));
    remaining.erase(std::find(remaining.begin(), remaining.end(), pick));
  }
}

/// Binomial-tree reduction of operator states to rank 0, preserving rank
/// order so non-commutative combines see (earlier ranks) (+) (later ranks).
template <Combinable Op>
void state_reduce_binomial(mprt::Comm& comm, Op& op, const Op& prototype) {
  const int p = comm.size();
  const int tag = comm.next_collective_tag();
  const int rank = comm.rank();
  for (const auto& step : mprt::topology::binomial_reduce_schedule(rank, p)) {
    if (step.role == mprt::topology::BinomialStep::Role::kSend) {
      send_state(comm, step.partner, tag, op);
    } else {
      auto msg = comm.recv_message(step.partner, tag);
      combine_received_state(comm, op, prototype, std::move(msg));
    }
  }
}

/// Combine-as-available k-ary tree to rank 0; requires commutativity.
template <Combinable Op>
void state_reduce_unordered(mprt::Comm& comm, Op& op, const Op& prototype,
                            int arity = kUnorderedArity) {
  const int p = comm.size();
  const int tag = comm.next_collective_tag();
  const int rank = comm.rank();
  // Children of node r are arity*r+1 .. arity*r+arity, clipped to [0, p).
  const int first_child = arity * rank + 1;
  const int num_children =
      first_child >= p ? 0 : std::min(arity, p - first_child);
  mprt::ScheduleOracle* oracle = comm.schedule_oracle();
  if (oracle != nullptr && num_children > 1) {
    // Model-checking mode: the fold-on-arrival loop below is the genuine
    // arrival-order race this collective embodies.  Receive the full
    // fan-in, then fold in an oracle-dictated order — the receive loop's
    // own wildcard matching is canonicalized by the mailbox, so the only
    // nondeterminism left is the fold order the oracle drives.
    std::vector<mprt::Message> pending;
    pending.reserve(static_cast<std::size_t>(num_children));
    for (int i = 0; i < num_children; ++i) {
      pending.push_back(comm.recv_message(mprt::kAnySource, tag));
    }
    oracle_fold_messages(comm, *oracle, op, prototype, std::move(pending));
  } else {
    for (int i = 0; i < num_children; ++i) {
      auto msg = comm.recv_message(mprt::kAnySource, tag);
      combine_received_state(comm, op, prototype, std::move(msg));
    }
  }
  if (rank != 0) {
    send_state(comm, (rank - 1) / arity, tag, op);
  }
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
void state_allreduce_mutation_unordered(mprt::Comm& comm, Op& op,
                                        const Op& prototype) {
  if (comm.size() == 1) return;
  state_reduce_unordered(comm, op, prototype);
  auto state = comm.rank() == 0 ? save_op(op) : std::vector<std::byte>{};
  state = coll::bcast_bytes(comm, 0, state);
  if (comm.rank() != 0) {
    load_op_into(op, state);
  }
}

/// Reduces operator states to rank 0, choosing the schedule from the
/// operator's commutativity trait (or an explicit override used by the
/// commutativity ablation benchmark).  Partitionable states stream through
/// the pipelined binomial tree when RSMPI_SCHEDULE forces it or the cost
/// model strictly prefers it (large states); the pipeline is
/// order-preserving, so this holds for non-commutative operators too.
template <Combinable Op>
void state_reduce_to_zero(mprt::Comm& comm, Op& op, const Op& prototype,
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
    state_reduce_unordered(comm, op, prototype);
  } else {
    state_reduce_binomial(comm, op, prototype);
  }
}

/// Legacy allreduce shape: reduce to rank 0, then broadcast the finished
/// state.  2·log p rounds with rank 0 as a bandwidth hotspot; kept as the
/// only order-preserving option (non-commutative operators) and as the
/// baseline the butterfly is benchmarked against.
template <Combinable Op>
void state_allreduce_reduce_bcast(mprt::Comm& comm, Op& op,
                                  const Op& prototype,
                                  bool commutative = op_commutative<Op>()) {
  if (comm.size() == 1) return;
  state_reduce_to_zero(comm, op, prototype, commutative);
  auto state = comm.rank() == 0 ? save_op(op) : std::vector<std::byte>{};
  state = coll::bcast_bytes(comm, 0, state);
  if (comm.rank() != 0) {
    load_op_into(op, state);
  }
}

/// Recursive-doubling (butterfly) allreduce: log p rounds, every rank
/// sends and receives once per round, no root hotspot.  Requires
/// commutativity — in round d, rank r folds partner r^d's partial on the
/// right regardless of which side of r it sits on.  Non-powers-of-two are
/// folded in Rabenseifner-style: the trailing p - 2^k ranks deposit their
/// state into a butterfly member first and receive the finished result
/// back at the end (2 extra rounds for those ranks only).
template <Combinable Op>
void state_allreduce_butterfly(mprt::Comm& comm, Op& op, const Op& prototype) {
  const int p = comm.size();
  if (p == 1) return;
  const int tag = comm.next_collective_tag();
  const int rank = comm.rank();
  const int p2 =
      static_cast<int>(std::bit_floor(static_cast<unsigned>(p)));

  if (rank >= p2) {
    // Outside the butterfly: contribute, then receive the final state.
    send_state(comm, rank - p2, tag, op);
    auto msg = comm.recv_message(rank - p2, tag);
    {
      auto timer = comm.compute_section();
      load_op_into(op, msg.payload());
    }
    comm.recycle_buffer(msg.release_storage());
    return;
  }
  if (rank + p2 < p) {
    auto msg = comm.recv_message(rank + p2, tag);
    combine_received_state(comm, op, prototype, std::move(msg));
  }
  for (int d = 1; d < p2; d <<= 1) {
    const int partner = rank ^ d;
    send_state(comm, partner, tag, op);
    auto msg = comm.recv_message(partner, tag);
    combine_received_state(comm, op, prototype, std::move(msg));
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
                                   const Op& prototype, Schedule schedule,
                                   std::size_t segment_bytes,
                                   bool commutative) {
  if (comm.size() == 1) return;
  if (!commutative) {
    // The hierarchical schedule is order-preserving when its leader tier
    // is pinned to the ordered binomial, so a forced request is honoured
    // on a two-tier model; everything else takes the flat reduce+bcast.
    if (schedule == Schedule::kHierarchical &&
        comm.cost_model().two_tier()) {
      state_allreduce_hierarchical(comm, op, prototype,
                                   /*commutative=*/false);
      return;
    }
    state_allreduce_reduce_bcast(comm, op, prototype, /*commutative=*/false);
    return;
  }
  if constexpr (PartitionableState<Op>) {
    switch (schedule) {
      case Schedule::kTwoMessage:
        state_allreduce_reduce_bcast(comm, op, prototype, /*commutative=*/true);
        return;
      case Schedule::kRabenseifner:
        state_allreduce_rabenseifner(comm, op, prototype);
        return;
      case Schedule::kRing:
        state_allreduce_ring(comm, op);
        return;
      case Schedule::kPipelined:
        state_allreduce_pipelined(comm, op, segment_bytes);
        return;
      case Schedule::kHierarchical:
        state_allreduce_hierarchical(comm, op, prototype,
                                     /*commutative=*/true);
        return;
      case Schedule::kAuto:
      case Schedule::kButterfly:
        state_allreduce_butterfly(comm, op, prototype);
        return;
    }
  } else {
    if (schedule == Schedule::kTwoMessage) {
      state_allreduce_reduce_bcast(comm, op, prototype, /*commutative=*/true);
    } else if (schedule == Schedule::kHierarchical) {
      state_allreduce_hierarchical(comm, op, prototype, /*commutative=*/true);
    } else {
      state_allreduce_butterfly(comm, op, prototype);
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
void state_allreduce(mprt::Comm& comm, Op& op, const Op& prototype,
                     bool commutative = op_commutative<Op>()) {
  if (comm.size() == 1) return;
  if (!commutative) {
    // Never autotuned for noncommutative operators (the hierarchical
    // bracketing differs from the flat reduce tree's), but an explicit
    // RSMPI_SCHEDULE=hierarchical is honoured on a two-tier model — the
    // ordered leader tier keeps it legal.
    if (schedule_from_env() == Schedule::kHierarchical &&
        comm.cost_model().two_tier()) {
      state_allreduce_hierarchical(comm, op, prototype,
                                   /*commutative=*/false);
      return;
    }
    state_allreduce_reduce_bcast(comm, op, prototype, /*commutative=*/false);
    return;
  }
  const Schedule forced = schedule_from_env();
  Schedule schedule = forced;
  std::size_t segment_bytes = kDefaultSegmentBytes;
  if constexpr (PartitionableState<Op>) {
    segment_bytes = segment_bytes_from_env();
    if (forced == Schedule::kAuto) {
      comm.note_autotune_invocation();
      schedule = choose_allreduce_schedule(comm.cost_model(), comm.size(),
                                           part_state_bytes(op), segment_bytes);
    }
  }
  state_allreduce_with_schedule(comm, op, prototype, schedule, segment_bytes,
                                /*commutative=*/true);
}

/// Round- and computation-efficient exclusive scan of operator states: on
/// return `op` holds the combination of all lower ranks' input states
/// (identity, i.e. a copy of `prototype`, on rank 0).  Valid for
/// non-commutative operators — every prepend joins contiguous rank
/// intervals in order.
///
/// Only the forwarded *window* (the inclusive combination of the most
/// recent 2d ranks) is maintained on the critical path — one combine per
/// doubling step, and none at all once the rank has made its last send
/// (rank + 2d >= p).  Received partials are parked unparsed and folded
/// into the exclusive prefix after the last send, off the chain of
/// combines downstream ranks are waiting on.  The fold replays the
/// bracketing of the eager formulation — which keeps the window and the
/// exclusive prefix up to date at every step, two combines per step on
/// the critical path — exactly, so results are bit-identical to it for
/// every operator, including non-commutative and floating-point ones
/// (tests/rs/xscan_baseline.hpp holds it as the baseline).
template <Combinable Op>
void state_xscan(mprt::Comm& comm, Op& op, const Op& prototype) {
  const int p = comm.size();
  const int rank = comm.rank();
  if (p == 1) {
    op = prototype;
    return;
  }
  const int tag = comm.next_collective_tag();

  Op window = op;  // combination of [max(0, rank-2d+1), rank]
  std::vector<mprt::Message> deferred;  // step-d messages, ascending d
  for (int d = 1; d < p; d <<= 1) {
    if (rank + d < p) {
      send_state(comm, rank + d, tag, window);
    }
    if (rank - d >= 0) {
      deferred.push_back(comm.recv_message(rank - d, tag));
      if (rank + 2 * d < p) {
        // The window is only needed while there are sends left; update it
        // with the single on-critical-path combine: window = recv (+) window.
        Op received = load_op(prototype, deferred.back().payload());
        auto timer = comm.compute_section();
        received.combine(window);
        window = std::move(received);
      }
    }
  }

  // Off the critical path: fold the parked partials into the exclusive
  // prefix, prepending in ascending-d order (each message covers the
  // interval immediately left of everything folded so far).
  Op excl = prototype;
  for (auto& msg : deferred) {
    Op received = load_op(prototype, msg.payload());
    comm.recycle_buffer(msg.release_storage());
    auto timer = comm.compute_section();
    received.combine(excl);
    excl = std::move(received);
  }
  op = std::move(excl);
}

}  // namespace rsmpi::rs::detail
