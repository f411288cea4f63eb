// Persistent collectives: the service-facing handles over the plan/execute
// split of coll/persistent.hpp.
//
// A handle is created once per (operator configuration, communicator) and
// then driven for the life of the stream:
//
//   svc::PersistentReduce<ops::Histogram<double>> merge(comm, proto);
//   for (;;) {
//     auto counts = merge.execute(epoch_batch);   // zero warm-path planning
//   }
//
// Creation pays the autotuner argmin, the env reads, the tag-block
// reservation, and the pool priming; execute() replays the frozen plan.
// Results are bit-identical to the one-shot rs::reduce/rs::scan calls
// because the executor shares their schedule implementations.
#pragma once

#include <optional>
#include <ranges>
#include <utility>
#include <vector>

#include "coll/persistent.hpp"
#include "mprt/comm.hpp"
#include "rs/op_concepts.hpp"
#include "rs/reduce.hpp"
#include "rs/scan.hpp"

namespace rsmpi::svc {

/// Persistent allreduce of operator states.  The prototype (identity
/// state plus constructor configuration) is captured at creation; every
/// epoch starts from a fresh copy of it.
template <rs::Combinable Op>
class PersistentReduce {
 public:
  PersistentReduce(mprt::Comm& comm, Op prototype,
                   std::optional<bool> commutative_override = std::nullopt)
      : comm_(&comm),
        prototype_(std::move(prototype)),
        plan_(coll::plan_state_allreduce(comm, prototype_,
                                         commutative_override)) {}

  /// One epoch: accumulate this rank's batch, merge states across ranks
  /// through the frozen plan, return the fully-combined state (identical
  /// on every rank).
  template <std::ranges::input_range R>
    requires rs::Accumulates<Op, std::ranges::range_value_t<R>>
  Op execute_state(R&& local) {
    Op op = prototype_;
    rs::detail::accumulate_local(*comm_, op, std::forward<R>(local));
    coll::execute_planned_allreduce(*comm_, op, plan_);
    return op;
  }

  /// One epoch over an already-accumulated partial state (the service's
  /// path: keyed routing accumulates per-shard partials first).  Merges in
  /// place.
  void execute_combine(Op& op) {
    coll::execute_planned_allreduce(*comm_, op, plan_);
  }

  /// Convenience: epoch merge plus the reduction generate.
  template <std::ranges::input_range R>
    requires rs::Accumulates<Op, std::ranges::range_value_t<R>>
  rs::reduce_result_t<Op> execute(R&& local) {
    return rs::red_result(execute_state(std::forward<R>(local)));
  }

  /// Reserves a fresh tag block for the plan.  Called (identically on
  /// every member — all members observe the same failed epoch) after an
  /// epoch aborts mid-collective, so stale messages parked under the old
  /// tags can never be matched by a later epoch.
  void rotate_tags() {
    plan_.tags = comm_->reserve_tag_block(coll::kPersistentAllreduceTags);
  }

  [[nodiscard]] const coll::PersistentPlan& plan() const { return plan_; }
  [[nodiscard]] const Op& prototype() const { return prototype_; }

 private:
  mprt::Comm* comm_;
  Op prototype_;
  coll::PersistentPlan plan_;
};

/// Persistent global-view scan: per epoch, the full accumulate /
/// state-xscan / generate-replay pipeline of rs::scan, with the xscan's
/// tag drawn from the handle's reserved block so epoch loops never walk
/// the tag window.
template <rs::Combinable Op>
class PersistentScan {
 public:
  PersistentScan(mprt::Comm& comm, Op prototype)
      : comm_(&comm),
        prototype_(std::move(prototype)),
        plan_(coll::plan_state_xscan(comm, prototype_)) {}

  /// One epoch: returns this rank's slice of the scanned output.
  template <std::ranges::forward_range R>
    requires rs::ScanOp<Op, std::ranges::range_value_t<R>>
  std::vector<rs::scan_result_t<Op, std::ranges::range_value_t<R>>> execute(
      R&& local, rs::ScanKind kind = rs::ScanKind::kInclusive) {
    Op op = prototype_;
    rs::detail::accumulate_local(*comm_, op, local);
    coll::execute_planned_xscan(*comm_, op, prototype_, plan_);
    return rs::detail::scan_replay(*comm_, std::move(op), local, kind);
  }

  /// One epoch, states only: the exclusive prefix state of this rank.
  template <std::ranges::input_range R>
    requires rs::Accumulates<Op, std::ranges::range_value_t<R>>
  Op execute_state(R&& local) {
    Op op = prototype_;
    rs::detail::accumulate_local(*comm_, op, std::forward<R>(local));
    coll::execute_planned_xscan(*comm_, op, prototype_, plan_);
    return op;
  }

  [[nodiscard]] const coll::PersistentPlan& plan() const { return plan_; }

 private:
  mprt::Comm* comm_;
  Op prototype_;
  coll::PersistentPlan plan_;
};

}  // namespace rsmpi::svc
