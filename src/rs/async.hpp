// Asynchronous global-view reductions and scans.
//
// rs::reduce_async / rs::scan_async run the accumulate phase immediately
// (it is local compute, through detail::accumulate_local — so the
// work-stealing worker pool applies here too when RSMPI_LOCAL_THREADS
// enables it) and hand the combine phase — the only part that talks to
// other ranks — to the rank's nonblocking progress engine (coll/nb).  The
// caller receives a Future and keeps computing; calling coll::nb::poll()
// between compute chunks lets the combine climb while the rank's virtual
// clock advances through the compute, so the communication cost overlaps
// and the modelled critical path shrinks.
//
// The combine phase is the blocking code itself — state_allreduce, with
// its autotuner and RSMPI_SCHEDULE, and state_xscan from
// rs/state_exchange.hpp — run on an operation coroutine of the progress
// engine.  The async path therefore sends exactly the messages the
// blocking one does, and variable-size operator states work the same.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <ranges>
#include <utility>
#include <vector>

#include "coll/nb/progress.hpp"
#include "mprt/comm.hpp"
#include "rs/op_concepts.hpp"
#include "rs/reduce.hpp"
#include "rs/scan.hpp"
#include "util/error.hpp"

namespace rsmpi::rs {

/// Handle to an asynchronous reduction or scan result.  `get()` waits for
/// the in-flight combine (making progress on every pending operation of
/// this rank while it does) and then generates the result; it may be
/// called once or many times — the result is cached, and a failed combine
/// rethrows its error on every call.  The communicator and
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

/// Launches state_allreduce, autotuner included, for an already-
/// accumulated operator state on the rank's progress engine.  The state is
/// owned jointly by the operation's body and by the Future's finalize
/// closure, so it survives whichever is dropped first.
template <Combinable Op>
coll::nb::Request launch_state_allreduce(mprt::Comm& comm,
                                         std::shared_ptr<Op> state,
                                         bool commutative) {
  if (comm.size() == 1) return coll::nb::Request{};
  return coll::nb::ProgressEngine::current().launch(
      comm, [state, commutative](mprt::Comm& c) {
        state_allreduce(c, *state, commutative);
      });
}

}  // namespace detail

/// Asynchronous global-view reduction.  Accumulates the local slice now
/// (local compute, charged to the clock), starts the cross-rank combine in
/// the background, and returns a future whose get() yields the same value
/// on every rank as rs::reduce.  Interleave coll::nb::poll() with your
/// compute to overlap the combine with it.  Copies of a Future share its
/// state, so get() generates from it as an lvalue: the one state copy an
/// array result costs here.
///
///   auto fut = rs::reduce_async(comm, my_slice, ops::MinK<int>(10));
///   for (auto& chunk : work) { process(chunk); coll::nb::poll(); }
///   auto mins = fut.get();
template <typename Op, std::ranges::input_range R>
  requires ReductionOp<Op, std::ranges::range_value_t<R>>
Future<reduce_result_t<Op>> reduce_async(mprt::Comm& comm, R&& local, Op op) {
  detail::accumulate_local(comm, op, std::forward<R>(local));
  auto state = std::make_shared<Op>(std::move(op));
  auto request =
      detail::launch_state_allreduce(comm, state, op_commutative<Op>());
  return Future<reduce_result_t<Op>>(
      request, [state]() { return red_result(*state); });
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

  // The scan keeps an identity beside the state: rank 0's exclusive prefix.
  auto identity = std::make_shared<const Op>(op);
  detail::accumulate_local(comm, op, local);
  auto slice = std::make_shared<std::vector<In>>(std::ranges::begin(local),
                                                 std::ranges::end(local));
  auto state = std::make_shared<Op>(std::move(op));

  coll::nb::Request request;
  if (comm.size() > 1) {
    request = coll::nb::ProgressEngine::current().launch(
        comm, [state, identity](mprt::Comm& c) {
          detail::state_xscan(c, *state, *identity);
        });
  } else {
    *state = *identity;  // exclusive prefix of rank 0 is the identity
  }

  auto finalize = [state, slice, kind, comm = &comm]() {
    return detail::scan_replay(*comm, *state, *slice, kind);
  };
  return Future<std::vector<Out>>(request, std::move(finalize));
}

/// Waits on every future in the pack (progressing all pending operations).
template <typename... Ts>
void wait_all_futures(Future<Ts>&... futures) {
  (futures.wait(), ...);
}

}  // namespace rsmpi::rs
