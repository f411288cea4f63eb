// The RSMPI surface syntax (paper §4), rendered in C++.
//
// The paper's RSMPI is a C extension — `rsmpi operator sorted { state
// {...} void ident(...) ... }` — that a Perl preprocessor lowers to plain
// MPI.  The C++ rendering needs no preprocessor: an RSMPI operator is a
// plain struct in exactly Listing 8's shape,
//
//   struct Sorted {
//     using In = int;
//     struct State { int first, last, status; };  // `state { ... }`
//     static constexpr bool commutative = false;  // `non-commutative`
//     static void ident(State& s);
//     static void pre_accum(State& s, const In& i);    // optional
//     static void accum(State& s, const In& i);
//     static void post_accum(State& s, const In& i);   // optional
//     static void combine(State& s1, const State& s2);
//     static int generate(const State& s);
//     static Out scan_generate(const State& s, const In& i);  // optional
//   };
//
// and the call sites mirror the RSMPI routines, including §4's
// convenience that the world communicator is the default when none is
// passed:
//
//   int sorted = 0;
//   RSMPI_Reduceall<Sorted>(&sorted, keys);
//
// Internally each struct is adapted onto the global-view operator
// protocol (rs/op_concepts.hpp), so every schedule, trait, and test of
// the core library applies unchanged.  The state must be trivially
// copyable — the natural condition for a C-born interface — which also
// makes serialization automatic.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <ranges>
#include <span>
#include <vector>

#include "mprt/comm.hpp"
#include "mprt/runtime.hpp"
#include "rs/async.hpp"
#include "rs/reduce.hpp"
#include "rs/scan.hpp"

namespace rsmpi::c_api {

namespace detail {

template <typename COp>
concept HasCPreAccum = requires(typename COp::State& s,
                                const typename COp::In& x) {
  COp::pre_accum(s, x);
};

template <typename COp>
concept HasCPostAccum = requires(typename COp::State& s,
                                 const typename COp::In& x) {
  COp::post_accum(s, x);
};

template <typename COp>
concept HasCScanGenerate = requires(const typename COp::State& s,
                                    const typename COp::In& x) {
  COp::scan_generate(s, x);
};

template <typename COp>
concept HasCGenerate = requires(const typename COp::State& s) {
  COp::generate(s);
};

/// Bridges a Listing-8-style struct onto the operator-class protocol.
template <typename COp>
class Adapter {
 public:
  using In = typename COp::In;
  using State = typename COp::State;
  static_assert(std::is_trivially_copyable_v<State>,
                "RSMPI operator state must be trivially copyable");

  static constexpr bool commutative = [] {
    if constexpr (requires { COp::commutative; }) {
      return COp::commutative;
    } else {
      return true;  // the paper's default (§3.1.4)
    }
  }();

  Adapter() { COp::ident(state_); }

  void accum(const In& x) { COp::accum(state_, x); }

  void pre_accum(const In& x)
    requires HasCPreAccum<COp>
  {
    COp::pre_accum(state_, x);
  }

  void post_accum(const In& x)
    requires HasCPostAccum<COp>
  {
    COp::post_accum(state_, x);
  }

  void combine(const Adapter& other) { COp::combine(state_, other.state_); }

  [[nodiscard]] auto red_gen() const
    requires HasCGenerate<COp>
  {
    return COp::generate(state_);
  }

  [[nodiscard]] auto scan_gen(const In& x) const
    requires HasCScanGenerate<COp>
  {
    return COp::scan_generate(state_, x);
  }

  [[nodiscard]] const State& state() const { return state_; }

 private:
  State state_;
};

}  // namespace detail

/// RSMPI_Reduceall: global-view reduction, result on every rank.
template <typename COp, std::ranges::input_range R, typename Out>
void RSMPI_Reduceall(Out* result, R&& values,
                     mprt::Comm& comm = mprt::this_comm()) {
  *result = rs::reduce(comm, std::forward<R>(values),
                       detail::Adapter<COp>{});
}

/// RSMPI_Reduce: result generated on `root` only; other ranks' outputs
/// are untouched.
template <typename COp, std::ranges::input_range R, typename Out>
void RSMPI_Reduce(Out* result, int root, R&& values,
                  mprt::Comm& comm = mprt::this_comm()) {
  auto out = rs::reduce_root(comm, root, std::forward<R>(values),
                             detail::Adapter<COp>{});
  if (out.has_value()) *result = std::move(*out);
}

/// RSMPI_Scan: inclusive global-view scan of this rank's slice.
template <typename COp, std::ranges::forward_range R, typename Out>
void RSMPI_Scan(std::vector<Out>* result, R&& values,
                mprt::Comm& comm = mprt::this_comm()) {
  *result = rs::scan(comm, std::forward<R>(values), detail::Adapter<COp>{},
                     rs::ScanKind::kInclusive);
}

/// RSMPI_Exscan: exclusive global-view scan; global position 0 receives
/// the generate of the identity state (unlike MPI_Exscan, which leaves it
/// undefined — the reason the abstraction demands an ident function, §2).
template <typename COp, std::ranges::forward_range R, typename Out>
void RSMPI_Exscan(std::vector<Out>* result, R&& values,
                  mprt::Comm& comm = mprt::this_comm()) {
  *result = rs::scan(comm, std::forward<R>(values), detail::Adapter<COp>{},
                     rs::ScanKind::kExclusive);
}

// -- Runtime statistics ------------------------------------------------------

/// Per-rank runtime counters: one value per row of the runtime's metrics
/// table (mprt/metrics.hpp) — traffic, payload buffers, schedule
/// autotuning, fault recovery, the parallel local fold, and the run-wide
/// scheduler and chaos totals.  Index it by row, e.g.
/// `stats[mprt::Metric::kMessagesSent]`.
using RSMPI_Stats = mprt::Metrics;

/// RSMPI_GetStats: fills `stats` with a snapshot of this rank's metrics.
/// Readable mid-run (e.g. once per service epoch), without communication.
inline void RSMPI_GetStats(RSMPI_Stats* stats,
                           mprt::Comm& comm = mprt::this_comm()) {
  *stats = comm.metrics();
}

// -- Nonblocking variants (MPI-3 shape) -------------------------------------

/// Status codes returned by RSMPI_Wait/RSMPI_Test, MPI_SUCCESS-style.  A
/// non-success code means the collective could not complete: the request
/// handle is freed, the result pointer is left unwritten, and the rank may
/// handle the failure (e.g. a peer killed by a fault plan) instead of
/// hanging or unwinding.
inline constexpr int RSMPI_SUCCESS = 0;
/// A RecvDeadline expired while the operation was waiting for a message.
inline constexpr int RSMPI_ERR_TIMEOUT = 1;
/// A rank of the machine exited while the operation needed it.
inline constexpr int RSMPI_ERR_PEER_LOST = 2;

/// Opaque request handle for the nonblocking RSMPI routines.  A default-
/// constructed handle is the RSMPI analogue of MPI_REQUEST_NULL: RSMPI_Wait
/// on it returns immediately and RSMPI_Test reports completion.  Handles
/// are freed (reset to null) by the Wait/Test that completes them.
struct RSMPI_Request {
  coll::nb::Request request;
  std::function<void()> finalize;

  [[nodiscard]] bool valid() const { return static_cast<bool>(finalize); }
};

/// RSMPI_Ireduceall: starts the reduction and returns immediately; the
/// result pointer is written by the RSMPI_Wait/RSMPI_Test that completes
/// the returned request, so `result` must stay alive until then.
template <typename COp, std::ranges::input_range R, typename Out>
RSMPI_Request RSMPI_Ireduceall(Out* result, R&& values,
                               mprt::Comm& comm = mprt::this_comm()) {
  auto future = std::make_shared<rs::Future<
      rs::reduce_result_t<detail::Adapter<COp>>>>(rs::reduce_async(
      comm, std::forward<R>(values), detail::Adapter<COp>{}));
  RSMPI_Request req;
  req.request = future->request();
  req.finalize = [future, result]() { *result = future->get(); };
  return req;
}

/// RSMPI_Iscan: nonblocking inclusive scan; the output vector is written
/// by the completing Wait/Test.
template <typename COp, std::ranges::forward_range R, typename Out>
RSMPI_Request RSMPI_Iscan(std::vector<Out>* result, R&& values,
                          mprt::Comm& comm = mprt::this_comm()) {
  using Adapter = detail::Adapter<COp>;
  using In = typename COp::In;
  auto future = std::make_shared<
      rs::Future<std::vector<rs::scan_result_t<Adapter, In>>>>(
      rs::scan_async(comm, std::forward<R>(values), Adapter{},
                     rs::ScanKind::kInclusive));
  RSMPI_Request req;
  req.request = future->request();
  req.finalize = [future, result]() { *result = std::move(future->get()); };
  return req;
}

/// RSMPI_Wait: blocks (progressing every pending operation on this rank)
/// until the request completes, writes its result, nulls the handle, and
/// returns RSMPI_SUCCESS.  A timeout or lost peer frees the handle and
/// returns the matching error code instead of propagating the exception —
/// the MPI convention of surfacing failures as status codes.
inline int RSMPI_Wait(RSMPI_Request* request) {
  if (!request->valid()) return RSMPI_SUCCESS;
  try {
    request->request.wait();
    request->finalize();
  } catch (const TimeoutError&) {
    *request = RSMPI_Request{};
    return RSMPI_ERR_TIMEOUT;
  } catch (const PeerLostError&) {
    *request = RSMPI_Request{};
    return RSMPI_ERR_PEER_LOST;
  }
  *request = RSMPI_Request{};
  return RSMPI_SUCCESS;
}

/// RSMPI_Test: one progress pass; returns 1 and completes the request (as
/// RSMPI_Wait would) if it is done, 0 otherwise.  Null handles test as
/// complete, matching MPI_Test on MPI_REQUEST_NULL.  When `status` is
/// non-null it receives RSMPI_SUCCESS or the error code; a failed request
/// reports complete (flag 1) with the code, and the handle is freed.
inline int RSMPI_Test(RSMPI_Request* request, int* status = nullptr) {
  if (status != nullptr) *status = RSMPI_SUCCESS;
  if (!request->valid()) return 1;
  try {
    if (!request->request.test()) return 0;
    request->finalize();
  } catch (const TimeoutError&) {
    *request = RSMPI_Request{};
    if (status != nullptr) *status = RSMPI_ERR_TIMEOUT;
    return 1;
  } catch (const PeerLostError&) {
    *request = RSMPI_Request{};
    if (status != nullptr) *status = RSMPI_ERR_PEER_LOST;
    return 1;
  }
  *request = RSMPI_Request{};
  return 1;
}

/// RSMPI_Waitall over a batch of requests; returns the first non-success
/// status (every request is waited and freed regardless).
inline int RSMPI_Waitall(std::span<RSMPI_Request> requests) {
  int status = RSMPI_SUCCESS;
  for (auto& request : requests) {
    const int s = RSMPI_Wait(&request);
    if (status == RSMPI_SUCCESS) status = s;
  }
  return status;
}

}  // namespace rsmpi::c_api
