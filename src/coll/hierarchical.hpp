// Two-level (topology-aware) allreduce over operator states (ISSUE 10).
//
// Flat schedules treat all rank pairs as equal, but a cluster of SMP nodes
// is not flat: same-node hops are an order of magnitude cheaper than the
// fabric (mprt::CostModel's two-tier parameters).  This schedule exploits
// the contiguous NodeMap (mprt/topology.hpp):
//
//   phase 1  intra-node binomial reduce to the node leader (cheap hops),
//   phase 2  allreduce among the leaders only (the expensive tier moves
//            p/rpn states instead of p), and
//   phase 3  intra-node binomial broadcast of the finished state.
//
// Each phase is a shared schedule of coll/schedules.hpp over a rank map:
// phases 1 and 3 run the binomial reduce and the binomial state broadcast
// over the node's ranks, and phase 2 runs the flat two-message, ring or
// Rabenseifner allreduce over the node leaders.  The leader tier is picked
// by ScheduleCost::hierarchical_leader, the same function the autotuner's
// closed form evaluates — so the model and the implementation never
// disagree about which variant ran.  Ring and Rabenseifner fold chunks
// out of rank order and so require commutativity; the two-message tier
// (binomial reduce, then broadcast) is the only one noncommutative
// operators may use.
//
// Noncommutative safety: phase 1 preserves rank order within each node
// (binomial_reduce_schedule's contiguous-interval invariant), the ordered
// leader tier combines whole node intervals in node order, and node
// intervals are contiguous in global rank order — so the full reduction is
// a bracketing of r_0 (+) r_1 (+) ... (+) r_{p-1} in order.  The bracketing
// differs from the flat schedules' in general, so for operators verified
// bit-exactly against a specific fold tree the hierarchical schedule is
// only ever *forced* (RSMPI_SCHEDULE=hierarchical), never autotuned.
#pragma once

#include "coll/schedules.hpp"
#include "mprt/comm.hpp"
#include "mprt/cost_model.hpp"
#include "mprt/topology.hpp"
#include "rs/op_concepts.hpp"

namespace rsmpi::rs::detail {

/// Two-level allreduce (see file comment).  Legal for noncommutative
/// operators — pass `commutative = false` to pin the ordered leader tier;
/// with `commutative = true` a partitionable operator's leader tier takes
/// the cost model's pick among two-message, ring and Rabenseifner.
template <Combinable Op>
void state_allreduce_hierarchical(mprt::Comm& comm, Op& op,
                                  bool commutative = op_commutative<Op>()) {
  const int p = comm.size();
  if (p == 1) return;
  const mprt::CostModel& model = comm.cost_model();
  const mprt::topology::NodeMap nodes(
      p, model.two_tier() ? model.ranks_per_node : 1);
  const int rank = comm.rank();
  const RankMap node = RankMap::node(nodes, rank);

  // Every rank reserves the same 3-tag block SPMD-style, whether or not it
  // participates in a given phase — tag sequences must never diverge
  // across ranks.
  const int tag = comm.reserve_collective_tags(3);

  // Phase 1: intra-node binomial reduce to the leader, rank order
  // preserved.
  state_reduce_binomial(comm, node, tag, op);

  // Phase 2: allreduce among the leaders over the expensive tier.
  if (nodes.is_leader(rank) && nodes.num_nodes() > 1) {
    using Tier = mprt::ScheduleCost::LeaderTier;
    const RankMap leaders = RankMap::leaders(nodes, rank);
    Tier tier = Tier::kTwoMessage;
    if constexpr (PartitionableState<Op>) {
      if (commutative) {
        tier = mprt::ScheduleCost::hierarchical_leader(
                   model, nodes.num_nodes(), part_state_bytes(op))
                   .tier;
      }
      if (tier == Tier::kRabenseifner) {
        state_allreduce_rabenseifner(comm, leaders, tag + 1, op);
      } else if (tier == Tier::kRing) {
        state_allreduce_ring(comm, leaders, tag + 1, op);
      }
    }
    if (tier == Tier::kTwoMessage) {
      state_reduce_binomial(comm, leaders, tag + 1, op);
      state_bcast_binomial(comm, leaders, tag + 1, op);
    }
  }

  // Phase 3: intra-node binomial broadcast of the finished state.
  state_bcast_binomial(comm, node, tag + 2, op);
}

}  // namespace rsmpi::rs::detail
