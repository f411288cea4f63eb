// The combine schedules over operator states, each written once over a
// rank map (mprt::topology::RankMap).
//
// A schedule here names its peers by *position*, and the map turns a
// position into a communicator rank.  So one implementation serves the
// whole communicator (the flat global-view allreduce), the communicator
// rotated to a root (the local view's rooted trees), one node and the
// node leaders (the hierarchical schedule's phases, coll/hierarchical.hpp).
// The local view (coll/local_reduce.hpp, coll/local_scan.hpp) runs these
// same schedules: a caller's buffer plus its combine function is an
// operator state (coll::SpanState) — the paper's §3 special case in which
// input, state and output types are equal and accumulate is combine.
//
// Each schedule takes its tag from the caller: the flat entry points
// reserve one per call, the hierarchical schedule hands each phase one of
// its three.  The schedules:
//
//   * binomial reduce to position 0, order-preserving (non-commutative
//     safe: a receive always appends the partner's interval on the right);
//   * binomial broadcast of the finished state from position 0;
//   * the combine-as-available k-ary tree to position 0 (commutative
//     only), which folds its fan-in in arrival-stamp order;
//   * the ring and chunked Rabenseifner allreduces over
//     partitionable states — commutative only, since chunks fold in
//     pair/ring order, not rank order.  Chunk boundaries come from
//     mprt::topology::chunk_start, so extents smaller than the map size
//     degenerate gracefully to empty segments.  Segment messages carry the
//     raw save_part bytes with no framing — both ends derive the element
//     range from the schedule step, and the hooks validate sizes;
//   * the deferred-prefix recursive-doubling exclusive scan.
//
// The hot path is zero-copy end to end: states are serialized
// into pooled buffers (Comm::acquire_buffer), handed to the receiver by
// move, folded straight out of the receive buffer (combine_op_from_bytes)
// and the receive buffer is recycled into the receiving rank's pool.  No
// schedule copies a state to decode with, so only the exclusive scan takes
// an identity: rank 0's prefix.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "mprt/comm.hpp"
#include "mprt/topology.hpp"
#include "rs/op_concepts.hpp"

namespace rsmpi::rs::detail {

using mprt::topology::RankMap;

/// The whole communicator as a rank map (position = rank).
inline RankMap whole(const mprt::Comm& comm) {
  return RankMap::whole(comm.size(), comm.rank());
}

// -- Transfer primitives ------------------------------------------------------

/// Serializes into a pooled buffer of `size` bytes with `save(writer)` and
/// move-sends it.  A serialization that outgrows the buffer grows it on
/// the heap, which the pool's hit would hide, so it counts one
/// mprt.pool_regrows.
template <typename Save>
void send_pooled(mprt::Comm& comm, int dest, int tag, std::size_t size,
                 Save&& save) {
  std::vector<std::byte> buf = comm.acquire_buffer(size);
  const std::size_t capacity = buf.capacity();
  bytes::Writer w(std::move(buf));
  save(w);
  std::vector<std::byte> payload = std::move(w).take();
  if (payload.capacity() > capacity) comm.note(mprt::Metric::kPoolRegrows);
  comm.send_bytes(dest, tag, std::move(payload));
}

/// Serializes `op` into a pooled buffer and move-sends it: after warm-up
/// the whole send path performs zero heap allocations and zero payload
/// copies (small states travel inline in the Message itself).  A state
/// that knows its serialized size up front (`wire_bytes()`: the array
/// states and the span state) asks the pool for a buffer that large, so
/// it reuses the large buffer its peers sent back rather than regrowing a
/// small one.
template <Combinable Op>
void send_state(mprt::Comm& comm, int dest, int tag, const Op& op) {
  std::size_t size = 0;
  if constexpr (requires { op.wire_bytes(); }) size = op.wire_bytes();
  send_pooled(comm, dest, tag, size,
              [&](bytes::Writer& w) { save_op_into(op, w); });
}

/// Folds a received serialized state into `op` (op = op (+) decode) and
/// recycles the receive buffer into this rank's pool.
template <Combinable Op>
void combine_received_state(mprt::Comm& comm, Op& op, mprt::Message&& msg) {
  {
    auto timer = comm.compute_section();
    combine_op_from_bytes(op, msg.payload());
  }
  comm.recycle_buffer(msg.release_storage());
}

/// Overwrites `op` with a received serialized state and recycles the
/// receive buffer.
template <Combinable Op>
void load_received_state(mprt::Comm& comm, Op& op, mprt::Message&& msg) {
  {
    auto timer = comm.compute_section();
    load_op_into(op, msg.payload());
  }
  comm.recycle_buffer(msg.release_storage());
}

/// Serializes the element range [lo, hi) of `op` into a pooled buffer and
/// move-sends it: the segmented analogue of send_state, zero-copy after
/// warm-up (and, with the size-class pool bins, reusing segment-sized
/// buffers rather than cannibalizing whole-state ones).
template <PartitionableState Op>
void send_state_part(mprt::Comm& comm, int dest, int tag, const Op& op,
                     std::size_t lo, std::size_t hi) {
  send_pooled(comm, dest, tag, op.part_bytes(lo, hi),
              [&](bytes::Writer& w) { op.save_part(lo, hi, w); });
}

/// Folds a received segment into [lo, hi) of `op` and recycles the buffer.
template <PartitionableState Op>
void combine_part_received(mprt::Comm& comm, Op& op, std::size_t lo,
                           std::size_t hi, mprt::Message&& msg) {
  {
    auto timer = comm.compute_section();
    op.combine_part(lo, hi, msg.payload());
  }
  comm.recycle_buffer(msg.release_storage());
}

/// Overwrites [lo, hi) of `op` from a received segment (allgather phase).
template <PartitionableState Op>
void load_part_received(mprt::Comm& comm, Op& op, std::size_t lo,
                        std::size_t hi, mprt::Message&& msg) {
  {
    auto timer = comm.compute_section();
    op.load_part(lo, hi, msg.payload());
  }
  comm.recycle_buffer(msg.release_storage());
}

// -- Binomial trees -----------------------------------------------------------

/// Binomial-tree reduction of operator states to position 0, preserving
/// position order so non-commutative combines see (earlier positions) (+)
/// (later positions).  Positions other than 0 are left holding partials.
template <Combinable Op>
void state_reduce_binomial(mprt::Comm& comm, const RankMap& map, int tag,
                           Op& op) {
  for (const auto& step :
       mprt::topology::binomial_reduce_schedule(map.pos, map.size)) {
    if (step.role == mprt::topology::BinomialStep::Role::kSend) {
      send_state(comm, map.rank(step.partner), tag, op);
    } else {
      combine_received_state(comm, op,
                             comm.recv_message(map.rank(step.partner), tag));
    }
  }
}

/// The flat binomial reduce to rank 0 on a fresh collective tag.
template <Combinable Op>
void state_reduce_binomial(mprt::Comm& comm, Op& op) {
  state_reduce_binomial(comm, whole(comm), comm.next_collective_tag(), op);
}

/// Binomial broadcast of position 0's state: every other position's state
/// is overwritten with it.
template <Combinable Op>
void state_bcast_binomial(mprt::Comm& comm, const RankMap& map, int tag,
                          Op& op) {
  for (const auto& step :
       mprt::topology::binomial_bcast_schedule(map.pos, map.size)) {
    if (step.role == mprt::topology::BinomialStep::Role::kSend) {
      send_state(comm, map.rank(step.partner), tag, op);
    } else {
      load_received_state(comm, op,
                          comm.recv_message(map.rank(step.partner), tag));
    }
  }
}

// -- Combine-as-available tree ----------------------------------------------

/// Branching factor of the combine-as-available tree (§1: factors greater
/// than two let commutative reductions fold whichever partials are ready).
inline constexpr int kUnorderedArity = 4;

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
                          Op& op, std::vector<mprt::Message>&& pending) {
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
    combine_received_state(comm, op, std::move(pending[0]));
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
        combine_op_from_bytes(probe, pending[i].payload());
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
        combine_received_state(comm, op, std::move(msg));
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
    combine_received_state(comm, op, std::move(pending[pick]));
    remaining.erase(std::find(remaining.begin(), remaining.end(), pick));
  }
}

/// Combine-as-available k-ary tree to position 0; requires commutativity.
/// Children of position i are arity·i+1 .. arity·i+arity.  The fan-in is
/// taken first and then charged and folded in (arrival stamp, source)
/// order — the order the modelled machine receives it in — so one
/// program's clocks do not depend on the order the host delivered the
/// messages.  Under a schedule oracle (model checking) the oracle dictates
/// the fold order instead.
template <Combinable Op>
void state_reduce_unordered(mprt::Comm& comm, const RankMap& map, int tag,
                            Op& op, int arity = kUnorderedArity) {
  const int first_child = arity * map.pos + 1;
  const int num_children =
      first_child >= map.size ? 0 : std::min(arity, map.size - first_child);
  std::vector<mprt::Message> fan_in;
  fan_in.reserve(static_cast<std::size_t>(num_children));
  for (int i = 0; i < num_children; ++i) {
    fan_in.push_back(comm.take_message(mprt::kAnySource, tag));
  }
  std::sort(fan_in.begin(), fan_in.end(),
            [](const mprt::Message& a, const mprt::Message& b) {
              return std::pair(a.arrival_vtime_s, a.source) <
                     std::pair(b.arrival_vtime_s, b.source);
            });
  mprt::ScheduleOracle* oracle = comm.schedule_oracle();
  if (oracle != nullptr && num_children > 1) {
    for (const mprt::Message& msg : fan_in) comm.charge_receive(msg);
    oracle_fold_messages(comm, *oracle, op, std::move(fan_in));
  } else {
    for (mprt::Message& msg : fan_in) {
      comm.charge_receive(msg);
      combine_received_state(comm, op, std::move(msg));
    }
  }
  if (map.pos != 0) {
    send_state(comm, map.rank((map.pos - 1) / arity), tag, op);
  }
}

// -- Segmented allreduces -----------------------------------------------------

/// Ring allreduce: reduce-scatter (size−1 steps, each position combines
/// one incoming chunk per step) followed by allgather (size−1 steps
/// circulating the finished chunks).  Works for any size; requires
/// commutativity.  Per-rank traffic is 2·(size−1)/size·n bytes, the
/// bandwidth-optimal volume, at the price of 2·(size−1) latency terms.
template <Combinable Op>
  requires PartitionableState<Op>
void state_allreduce_ring(mprt::Comm& comm, const RankMap& map, int tag,
                          Op& op) {
  const int p = map.size;
  const int pos = map.pos;
  const std::size_t n = op.part_extent();
  const int next = map.rank((pos + 1) % p);
  const int prev = map.rank((pos + p - 1) % p);
  const auto bounds = [&](int c) {
    const int cc = ((c % p) + p) % p;
    return std::pair{mprt::topology::chunk_start(n, p, cc),
                     mprt::topology::chunk_start(n, p, cc + 1)};
  };

  // Reduce-scatter: in step s, position i sends chunk (i − s) mod p
  // downstream and folds incoming chunk (i − s − 1) mod p.  After p − 1
  // steps, position i holds the fully reduced chunk (i + 1) mod p.
  for (int s = 0; s < p - 1; ++s) {
    const auto [slo, shi] = bounds(pos - s);
    send_state_part(comm, next, tag, op, slo, shi);
    const auto [rlo, rhi] = bounds(pos - s - 1);
    combine_part_received(comm, op, rlo, rhi, comm.recv_message(prev, tag));
  }

  // Allgather: circulate the finished chunks once more around the ring,
  // each position overwriting the chunk it receives.
  for (int s = 0; s < p - 1; ++s) {
    const auto [slo, shi] = bounds(pos + 1 - s);
    send_state_part(comm, next, tag, op, slo, shi);
    const auto [rlo, rhi] = bounds(pos - s);
    load_part_received(comm, op, rlo, rhi, comm.recv_message(prev, tag));
  }
}

/// The flat ring allreduce on a fresh collective tag.
template <Combinable Op>
  requires PartitionableState<Op>
void state_allreduce_ring(mprt::Comm& comm, Op& op) {
  if (comm.size() == 1) return;
  state_allreduce_ring(comm, whole(comm), comm.next_collective_tag(), op);
}

/// Chunked Rabenseifner allreduce over partitionable state: recursive-
/// halving reduce-scatter + recursive-doubling allgather.  2·log2(size)
/// latency terms with the same 2·(1 − 1/size)·n bandwidth as the ring —
/// the usual winner at power-of-two sizes.  Other sizes fold the
/// remainder positions into even neighbours first (whole-state,
/// MPICH-style) and hand them the finished state last, which costs two
/// full-state hops; at large n the ring overtakes it there.  Commutative
/// operators only.
template <Combinable Op>
  requires PartitionableState<Op>
void state_allreduce_rabenseifner(mprt::Comm& comm, const RankMap& map,
                                  int tag, Op& op) {
  const int pos = map.pos;
  const std::size_t n = op.part_extent();
  const int pof2 = 1 << mprt::topology::floor_log2(map.size);
  const int rem = map.size - pof2;

  // Fold the remainder: the first 2·rem positions pair up; odds deposit
  // their whole state with the even neighbour and sit out until the end.
  int vpos;  // position within the power-of-two core, or folded away
  if (pos < 2 * rem) {
    if (pos % 2 == 1) {
      send_state(comm, map.rank(pos - 1), tag, op);
      load_received_state(comm, op, comm.recv_message(map.rank(pos - 1), tag));
      return;
    }
    combine_received_state(comm, op, comm.recv_message(map.rank(pos + 1), tag));
    vpos = pos / 2;
  } else {
    vpos = pos - rem;
  }
  const auto peer = [&](int v) { return map.rank(v < rem ? 2 * v : v + rem); };
  const auto start = [&](int c) {
    return mprt::topology::chunk_start(n, pof2, c);
  };

  // Phase 1: recursive-halving reduce-scatter.  Invariant: this position
  // holds the partial reduction of chunk range [lo, hi), containing chunk
  // vpos.
  int lo = 0, hi = pof2;
  for (int dist = pof2 / 2; dist >= 1; dist /= 2) {
    const int partner = peer(vpos ^ dist);
    const int mid = (lo + hi) / 2;
    const bool keep_low = vpos < mid;
    const int send_lo = keep_low ? mid : lo;
    const int send_hi = keep_low ? hi : mid;
    const int keep_lo = keep_low ? lo : mid;
    const int keep_hi = keep_low ? mid : hi;
    send_state_part(comm, partner, tag, op, start(send_lo), start(send_hi));
    combine_part_received(comm, op, start(keep_lo), start(keep_hi),
                          comm.recv_message(partner, tag));
    lo = keep_lo;
    hi = keep_hi;
  }

  // Phase 2: recursive-doubling allgather.  Invariant: this position holds
  // the *final* values of the aligned chunk range [lo, hi) of width dist.
  for (int dist = 1; dist < pof2; dist *= 2) {
    const int partner = peer(vpos ^ dist);
    send_state_part(comm, partner, tag, op, start(lo), start(hi));
    const int block = 2 * dist;
    const int base = (vpos / block) * block;
    const int plo = (lo == base) ? base + dist : base;
    load_part_received(comm, op, start(plo), start(plo + dist),
                       comm.recv_message(partner, tag));
    lo = base;
    hi = base + block;
  }

  // Hand the folded-away odd neighbour its finished state.
  if (pos < 2 * rem) send_state(comm, map.rank(pos + 1), tag, op);
}

/// The flat Rabenseifner allreduce on a fresh collective tag.
template <Combinable Op>
  requires PartitionableState<Op>
void state_allreduce_rabenseifner(mprt::Comm& comm, Op& op) {
  if (comm.size() == 1) return;
  state_allreduce_rabenseifner(comm, whole(comm), comm.next_collective_tag(),
                               op);
}

// -- Exclusive scan -----------------------------------------------------------

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
