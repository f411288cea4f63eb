// Asynchronous global-view reductions and scans.
//
// rs::reduce_async / rs::scan_async run the accumulate phase immediately
// (it is local compute, through detail::accumulate_local — so the
// work-stealing worker pool applies here too when RSMPI_LOCAL_THREADS
// enables it) and hand the combine phase — the only part that talks to
// other ranks — to the rank's nonblocking progress engine (coll/nb).  The caller receives a Future and keeps computing; calling
// coll::nb::poll() between compute chunks lets the combine tree climb
// while the rank's virtual clock advances through the compute, so the
// communication cost overlaps and the modelled critical path shrinks.
//
// The state machines here are the nonblocking restatement of
// rs/state_exchange.hpp: the same binomial / combine-as-available /
// recursive-doubling schedules over serialized operator states, with every
// blocking recv_message replaced by a polled nonblocking receive.  Because
// states travel as tagged messages (not into preallocated buffers),
// variable-size operator states work exactly as they do in the blocking
// paths.
#pragma once

#include <bit>
#include <functional>
#include <memory>
#include <optional>
#include <ranges>
#include <utility>
#include <vector>

#include "coll/nb/iallreduce.hpp"
#include "coll/nb/istate_ring.hpp"
#include "coll/nb/progress.hpp"
#include "mprt/comm.hpp"
#include "mprt/topology.hpp"
#include "rs/op_concepts.hpp"
#include "rs/reduce.hpp"
#include "rs/scan.hpp"
#include "util/error.hpp"

namespace rsmpi::rs {

/// Handle to an asynchronous reduction or scan result.  `get()` waits for
/// the in-flight combine (making progress on every pending operation of
/// this rank while it does) and then generates the result; it may be
/// called once or many times — the result is cached.  The communicator and
/// the operator state live until the future's last copy is destroyed, but
/// `get()`/`wait()` must be called before the communicator's rank exits.
template <typename T>
class Future {
 public:
  Future() = default;
  Future(coll::nb::Request request, std::function<T()> finalize)
      : request_(request), finalize_(std::move(finalize)) {}

  /// True if this future was produced by an async call (not default).
  [[nodiscard]] bool valid() const { return static_cast<bool>(finalize_); }

  /// True when the combine phase has completed (no progress is made).
  [[nodiscard]] bool done() const { return request_.done(); }

  /// One progress pass; true when the combine phase has completed.
  bool test() { return request_.test(); }

  /// Blocks (making progress) until the combine phase completes.
  void wait() { request_.wait(); }

  /// Waits, then generates and caches the result.
  T& get() {
    if (!finalize_) {
      throw ArgumentError("Future::get: future is not valid");
    }
    if (!result_.has_value()) {
      request_.wait();
      result_.emplace(finalize_());
    }
    return *result_;
  }

  /// The underlying request, for wait_all / test_any batching.
  [[nodiscard]] coll::nb::Request& request() { return request_; }

 private:
  coll::nb::Request request_;
  std::function<T()> finalize_;
  std::optional<T> result_;
};

namespace detail {

/// Shared home for the operator state while the combine is in flight.
/// Owned jointly by the Operation (in the progress engine) and by the
/// Future's finalize closure, so it survives whichever is dropped first.
template <typename Op>
struct AsyncOpState {
  Op op;
  Op prototype;
  AsyncOpState(Op op_, Op prototype_)
      : op(std::move(op_)), prototype(std::move(prototype_)) {}
};

/// Nonblocking state_allreduce: reduce serialized operator states to rank
/// 0 (order-preserving binomial for non-commutative operators,
/// combine-as-available k-ary tree otherwise), then binomial-broadcast the
/// finished state.  Combine work is charged through compute_section, as in
/// the blocking schedules.
template <Combinable Op>
class StateAllreduceOp final : public coll::nb::Operation {
 public:
  StateAllreduceOp(mprt::Comm& comm, std::shared_ptr<AsyncOpState<Op>> state,
                   bool commutative, int reduce_tag, int bcast_tag)
      : comm_(comm),
        state_(std::move(state)),
        reduce_tag_(reduce_tag),
        bcast_tag_(bcast_tag),
        commutative_(commutative) {
    const int p = comm.size();
    const int rank = comm.rank();
    if (commutative_) {
      for (int c = kUnorderedArity * rank + 1;
           c <= kUnorderedArity * rank + kUnorderedArity && c < p; ++c) {
        ++children_left_;
      }
    } else {
      reduce_steps_ = mprt::topology::binomial_reduce_schedule(rank, p);
    }
    bcast_steps_ = mprt::topology::binomial_bcast_schedule(rank, p);
  }

  bool step() override {
    bool progressed = false;
    const int rank = comm_.rank();
    while (phase_ != Phase::kDone) {
      switch (phase_) {
        case Phase::kReduce: {
          if (commutative_) {
            // Fold whichever child's state lands first (§1's
            // combine-as-available optimization), then hand up.
            if (children_left_ > 0) {
              auto msg =
                  comm_.try_recv_message(mprt::kAnySource, reduce_tag_);
              if (!msg.has_value()) return progressed;
              if (comm_.schedule_oracle() != nullptr) {
                // Model-checking mode: park the arrival and fold the full
                // fan-in below in an oracle-dictated order, so the
                // fold-on-arrival race is enumerated, not raced.
                pending_.push_back(std::move(*msg));
              } else {
                combine_received_state(comm_, state_->op, state_->prototype,
                                       std::move(*msg));
              }
              --children_left_;
              progressed = true;
              continue;
            }
            if (!pending_.empty()) {
              oracle_fold_messages(comm_, *comm_.schedule_oracle(),
                                   state_->op, state_->prototype,
                                   std::move(pending_));
              pending_.clear();
              progressed = true;
            }
            if (rank != 0) {
              send_state(comm_, (rank - 1) / kUnorderedArity, reduce_tag_,
                         state_->op);
              progressed = true;
            }
            next_ = 0;
            phase_ = Phase::kBcast;
            continue;
          }
          if (next_ >= reduce_steps_.size()) {
            next_ = 0;
            phase_ = Phase::kBcast;
            continue;
          }
          const auto& s = reduce_steps_[next_];
          if (s.role == mprt::topology::BinomialStep::Role::kSend) {
            send_state(comm_, s.partner, reduce_tag_, state_->op);
          } else {
            auto msg = comm_.try_recv_message(s.partner, reduce_tag_);
            if (!msg.has_value()) return progressed;
            combine_received_state(comm_, state_->op, state_->prototype,
                                   std::move(*msg));
          }
          ++next_;
          progressed = true;
          continue;
        }
        case Phase::kBcast: {
          if (next_ >= bcast_steps_.size()) {
            phase_ = Phase::kDone;
            continue;
          }
          const auto& s = bcast_steps_[next_];
          if (s.role == mprt::topology::BinomialStep::Role::kRecv) {
            auto msg = comm_.try_recv_message(s.partner, bcast_tag_);
            if (!msg.has_value()) return progressed;
            {
              auto timer = comm_.compute_section();
              load_op_into(state_->op, msg->payload());
            }
            comm_.recycle_buffer(msg->release_storage());
          } else {
            send_state(comm_, s.partner, bcast_tag_, state_->op);
          }
          ++next_;
          progressed = true;
          continue;
        }
        case Phase::kDone:
          break;
      }
    }
    return progressed;
  }

  [[nodiscard]] bool done() const override { return phase_ == Phase::kDone; }

 private:
  enum class Phase { kReduce, kBcast, kDone };

  mprt::Comm& comm_;
  std::shared_ptr<AsyncOpState<Op>> state_;
  int reduce_tag_;
  int bcast_tag_;
  bool commutative_;
  int children_left_ = 0;
  std::vector<mprt::Message> pending_;  // parked arrivals (oracle mode only)
  std::vector<mprt::topology::BinomialStep> reduce_steps_;
  std::vector<mprt::topology::BinomialStep> bcast_steps_;
  std::size_t next_ = 0;
  Phase phase_ = Phase::kReduce;
};

/// Nonblocking recursive-doubling (butterfly) state allreduce — the
/// state_allreduce_butterfly schedule of rs/state_exchange.hpp as a polled
/// state machine.  log p rounds, one tag, no root hotspot; commutative
/// operators only.
template <Combinable Op>
class StateButterflyAllreduceOp final : public coll::nb::Operation {
 public:
  StateButterflyAllreduceOp(mprt::Comm& comm,
                            std::shared_ptr<AsyncOpState<Op>> state, int tag)
      : comm_(comm),
        state_(std::move(state)),
        tag_(tag),
        p2_(static_cast<int>(
            std::bit_floor(static_cast<unsigned>(comm.size())))) {}

  bool step() override {
    bool progressed = false;
    const int p = comm_.size();
    const int rank = comm_.rank();
    while (phase_ != Phase::kDone) {
      switch (phase_) {
        case Phase::kFoldIn: {
          if (rank >= p2_) {
            // Outside the butterfly: deposit the local state, then wait
            // for the finished result.
            send_state(comm_, rank - p2_, tag_, state_->op);
            phase_ = Phase::kAwaitResult;
            progressed = true;
            continue;
          }
          if (rank + p2_ < p) {
            auto msg = comm_.try_recv_message(rank + p2_, tag_);
            if (!msg.has_value()) return progressed;
            combine_received_state(comm_, state_->op, state_->prototype,
                                   std::move(*msg));
            progressed = true;
          }
          phase_ = Phase::kExchange;
          continue;
        }
        case Phase::kExchange: {
          if (d_ >= p2_) {
            if (rank + p2_ < p) {
              send_state(comm_, rank + p2_, tag_, state_->op);
              progressed = true;
            }
            phase_ = Phase::kDone;
            continue;
          }
          const int partner = rank ^ d_;
          if (!sent_) {
            send_state(comm_, partner, tag_, state_->op);
            sent_ = true;
            progressed = true;
          }
          auto msg = comm_.try_recv_message(partner, tag_);
          if (!msg.has_value()) return progressed;
          combine_received_state(comm_, state_->op, state_->prototype,
                                 std::move(*msg));
          d_ <<= 1;
          sent_ = false;
          progressed = true;
          continue;
        }
        case Phase::kAwaitResult: {
          auto msg = comm_.try_recv_message(rank - p2_, tag_);
          if (!msg.has_value()) return progressed;
          {
            auto timer = comm_.compute_section();
            load_op_into(state_->op, msg->payload());
          }
          comm_.recycle_buffer(msg->release_storage());
          phase_ = Phase::kDone;
          progressed = true;
          continue;
        }
        case Phase::kDone:
          break;
      }
    }
    return progressed;
  }

  [[nodiscard]] bool done() const override { return phase_ == Phase::kDone; }

 private:
  enum class Phase { kFoldIn, kExchange, kAwaitResult, kDone };

  mprt::Comm& comm_;
  std::shared_ptr<AsyncOpState<Op>> state_;
  int tag_;
  int p2_;
  int d_ = 1;
  bool sent_ = false;
  Phase phase_ = Phase::kFoldIn;
};

/// Nonblocking state_xscan: the deferred-prefix recursive-doubling
/// exclusive scan of rs/state_exchange.hpp as a polled state machine.  On
/// completion state->op holds the combination of all lower ranks' input
/// states (identity on rank 0).  Only the forwarded window is combined
/// inside the doubling loop; parked partials fold into the exclusive
/// prefix after the last send.
template <Combinable Op>
class StateXscanOp final : public coll::nb::Operation {
 public:
  StateXscanOp(mprt::Comm& comm, std::shared_ptr<AsyncOpState<Op>> state,
               int tag)
      : comm_(comm),
        state_(std::move(state)),
        tag_(tag),
        window_(state_->op) {}

  bool step() override {
    bool progressed = false;
    const int p = comm_.size();
    const int rank = comm_.rank();
    while (d_ < p) {
      if (!sent_) {
        if (rank + d_ < p) {
          send_state(comm_, rank + d_, tag_, window_);
        }
        sent_ = true;
        progressed = true;
      }
      if (rank - d_ >= 0) {
        auto msg = comm_.try_recv_message(rank - d_, tag_);
        if (!msg.has_value()) return progressed;
        deferred_.push_back(std::move(*msg));
        if (rank + 2 * d_ < p) {
          // Window still feeds a later send: one combine on the critical
          // path, window = received (+) window.
          Op received = load_op(state_->prototype, deferred_.back().payload());
          auto timer = comm_.compute_section();
          received.combine(window_);
          window_ = std::move(received);
        }
      }
      d_ <<= 1;
      sent_ = false;
      progressed = true;
    }
    if (!finished_) {
      Op excl = state_->prototype;
      for (auto& msg : deferred_) {
        Op received = load_op(state_->prototype, msg.payload());
        comm_.recycle_buffer(msg.release_storage());
        auto timer = comm_.compute_section();
        received.combine(excl);
        excl = std::move(received);
      }
      deferred_.clear();
      state_->op = std::move(excl);
      finished_ = true;
      progressed = true;
    }
    return progressed;
  }

  [[nodiscard]] bool done() const override { return finished_; }

 private:
  mprt::Comm& comm_;
  std::shared_ptr<AsyncOpState<Op>> state_;
  int tag_;
  Op window_;  // combination of [max(0, rank-2d+1), rank]
  std::vector<mprt::Message> deferred_;  // step-d messages, ascending d
  int d_ = 1;
  bool sent_ = false;
  bool finished_ = false;
};

/// Launches the nonblocking state allreduce for an already-accumulated
/// operator state; shared by reduce_async and the C bindings.  Commutative
/// operators get a single-tag schedule — the bandwidth-optimal ring when
/// the state is partitionable and RSMPI_SCHEDULE forces it or the cost
/// model prefers it over the butterfly (the only two shapes the progress
/// engine offers), the whole-state butterfly otherwise.  Non-commutative
/// operators take the order-preserving binomial reduce + bcast (two tags).
template <Combinable Op>
coll::nb::Request launch_state_allreduce(
    mprt::Comm& comm, std::shared_ptr<AsyncOpState<Op>> state,
    bool commutative) {
  if (comm.size() == 1) return coll::nb::Request{};
  if (commutative) {
    const int tag = comm.reserve_collective_tags(1);
    if constexpr (PartitionableState<Op>) {
      const Schedule forced = schedule_from_env();
      using SC = mprt::ScheduleCost;
      const bool use_ring =
          forced == Schedule::kRing ||
          (forced == Schedule::kAuto &&
           SC::ring(comm.cost_model(), comm.size(),
                    part_state_bytes(state->op)) <
               SC::butterfly(comm.cost_model(), comm.size(),
                             part_state_bytes(state->op)));
      if (use_ring) {
        return coll::nb::ProgressEngine::current().launch(
            comm,
            std::make_unique<coll::nb::IStateRingAllreduceOp<AsyncOpState<Op>>>(
                comm, std::move(state), tag),
            tag, 1);
      }
    }
    return coll::nb::ProgressEngine::current().launch(
        comm,
        std::make_unique<StateButterflyAllreduceOp<Op>>(comm, std::move(state),
                                                        tag),
        tag, 1);
  }
  const int tag = comm.reserve_collective_tags(2);
  return coll::nb::ProgressEngine::current().launch(
      comm,
      std::make_unique<StateAllreduceOp<Op>>(comm, std::move(state),
                                             /*commutative=*/false, tag,
                                             tag + 1),
      tag, 2);
}

}  // namespace detail

/// Asynchronous global-view reduction.  Accumulates the local slice now
/// (local compute, charged to the clock), starts the cross-rank combine in
/// the background, and returns a future whose get() yields the same value
/// on every rank as rs::reduce.  Interleave coll::nb::poll() with your
/// compute to overlap the combine with it.
///
///   auto fut = rs::reduce_async(comm, my_slice, ops::MinK<int>(10));
///   for (auto& chunk : work) { process(chunk); coll::nb::poll(); }
///   auto mins = fut.get();
template <typename Op, std::ranges::input_range R>
  requires ReductionOp<Op, std::ranges::range_value_t<R>>
Future<reduce_result_t<Op>> reduce_async(mprt::Comm& comm, R&& local, Op op) {
  const Op prototype = op;
  detail::accumulate_local(comm, op, std::forward<R>(local));
  auto state = std::make_shared<detail::AsyncOpState<Op>>(std::move(op),
                                                          prototype);
  auto request =
      detail::launch_state_allreduce(comm, state, op_commutative<Op>());
  return Future<reduce_result_t<Op>>(
      request, [state]() { return red_result(state->op); });
}

/// Asynchronous global-view scan.  Accumulates the local slice now, runs
/// the cross-rank exclusive scan of states in the background, and replays
/// the slice at get() to produce this rank's output positions — equal to
/// rs::scan's.  The local values are copied into the future so the caller
/// may overwrite the input range while the scan is in flight.
template <typename Op, std::ranges::forward_range R>
  requires ScanOp<Op, std::ranges::range_value_t<R>>
Future<std::vector<scan_result_t<Op, std::ranges::range_value_t<R>>>>
scan_async(mprt::Comm& comm, R&& local, Op op,
           ScanKind kind = ScanKind::kInclusive) {
  using In = std::ranges::range_value_t<R>;
  using Out = scan_result_t<Op, In>;

  const Op prototype = op;
  detail::accumulate_local(comm, op, local);
  auto slice = std::make_shared<std::vector<In>>(std::ranges::begin(local),
                                                 std::ranges::end(local));
  auto state = std::make_shared<detail::AsyncOpState<Op>>(std::move(op),
                                                          prototype);

  coll::nb::Request request;
  if (comm.size() > 1) {
    const int tag = comm.reserve_collective_tags(1);
    request = coll::nb::ProgressEngine::current().launch(
        comm, std::make_unique<detail::StateXscanOp<Op>>(comm, state, tag),
        tag, 1);
  } else {
    state->op = prototype;  // exclusive prefix of rank 0 is the identity
  }

  auto finalize = [state, slice, kind, comm = &comm]() {
    Op replay = state->op;
    std::vector<Out> out;
    out.reserve(slice->size());
    auto timer = comm->compute_section();
    for (const In& x : *slice) {
      if (kind == ScanKind::kExclusive) {
        out.push_back(scan_result(replay, x));
        replay.accum(x);
      } else {
        replay.accum(x);
        out.push_back(scan_result(replay, x));
      }
    }
    return out;
  };
  return Future<std::vector<Out>>(request, std::move(finalize));
}

/// Waits on every future in the pack (progressing all pending operations).
template <typename... Ts>
void wait_all_futures(Future<Ts>&... futures) {
  (futures.wait(), ...);
}

}  // namespace rsmpi::rs
