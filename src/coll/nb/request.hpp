// Request handles for nonblocking collectives (MPI-3 shape).
//
// A Request names one in-flight operation — a blocking collective running
// on an operation coroutine — owned by the rank's ProgressEngine
// (coll/nb/progress.hpp).  Handles are small and copyable, like
// MPI_Request: copies refer to the same operation, and a
// default-constructed handle is the analogue of MPI_REQUEST_NULL — already
// complete, wait() is a no-op.  An operation that finishes during launch
// still returns a handle, already done: waiting on it joins its finish
// time into the rank clock.  An operation whose collective threw completes
// with that error, and the rank's other operations are not affected: every
// wait(), test() or test_any() that observes it rethrows the exception.
//
// Progress happens only at launch, inside wait()/test() and at explicit
// ProgressEngine::poll() calls — there is no progress thread.  All handles
// of a rank must be used by that rank.
#pragma once

#include <cstdint>
#include <span>

namespace rsmpi::coll::nb {

class ProgressEngine;

/// Handle to one pending nonblocking operation.
class Request {
 public:
  /// Null handle: refers to no operation and reads as complete.
  Request() = default;

  /// False for null handles.
  [[nodiscard]] bool valid() const { return engine_ != nullptr; }

  /// True when the operation has completed.  Does not attempt progress.
  [[nodiscard]] bool done() const;

  /// Makes one progress pass over the rank's pending operations and
  /// returns whether this one has completed (MPI_Test).  A completion
  /// reported here joins the operation's finish time into the rank clock.
  bool test();

  /// Progresses the rank's pending operations until this one completes
  /// (MPI_Wait), then joins its finish time into the rank clock.  Never
  /// blocks in a mailbox receive, so waiting on one operation can never
  /// deadlock another that still needs progress.
  void wait();

 private:
  friend class ProgressEngine;
  friend int test_any(std::span<Request> requests);
  Request(ProgressEngine* engine, std::uint64_t id)
      : engine_(engine), id_(id) {}

  ProgressEngine* engine_ = nullptr;
  std::uint64_t id_ = 0;
};

/// Waits for every request in the batch (MPI_Waitall).  Waiting on any one
/// of them progresses all pending operations of the rank, so completion
/// order does not matter.
void wait_all(std::span<Request> requests);

/// One progress pass, then returns the index of some completed request
/// (observing its completion, as test does), or -1 if none is complete yet
/// (MPI_Testany).  Null requests count as complete.  Rethrows the error of
/// a failed request it meets first; it does so again on every call until
/// the caller drops that request (test() each one to find it).
int test_any(std::span<Request> requests);

}  // namespace rsmpi::coll::nb
