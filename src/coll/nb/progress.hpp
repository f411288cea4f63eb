// The per-rank progress engine for nonblocking collectives.
//
// Every in-flight nonblocking operation is a state machine (Operation)
// advanced over Comm::try_recv_message: sends are posted eagerly (they
// never block), receives are polled, and a step that cannot advance simply
// returns until the next pass.  There are no progress threads — progress
// happens at launch, inside Request::wait/test and at explicit poll()
// points, which is exactly the MPI guidance of calling MPI_Test inside
// compute loops to overlap communication with computation.
//
// Virtual-clock accounting: every in-flight operation carries its own
// progress timeline, seeded with the rank clock at launch, and every pass
// (launch, poll, test, wait) runs the operation on it.  The rank clock is
// swapped to the operation's last progress point for the step, so each
// queued message is processed at max(op time, arrival) — where a rank
// polling without pause would have processed it — and send and combine
// charges land on the operation's time; then the rank clock is restored.
// The operation's finish time joins the rank clock only when the rank
// observes the completion: Request::wait, a test or test_any that reports
// it done, or Future::get.  With receives from named sources, the
// modelled critical path is therefore a function of the message schedule
// alone — not of which messages happened to be queued at a poll, nor of
// how the host scheduled the ranks.  (A wildcard receive still folds
// whichever match is queued first, as its blocking counterpart does.)
//
// The engine lives in the rank's fiber slot, reachable via
// ProgressEngine::current().  Operations hold references to their Comm and
// to user buffers; both must outlive the request's completion.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "coll/nb/request.hpp"
#include "mprt/comm.hpp"

namespace rsmpi::coll::nb {

/// One in-flight nonblocking collective, advanced as a state machine.
class Operation {
 public:
  virtual ~Operation() = default;

  /// Attempts to advance as far as possible without blocking; returns
  /// true if any state change occurred (a message taken or sent).
  virtual bool step() = 0;

  /// True when the operation has run to completion.
  [[nodiscard]] virtual bool done() const = 0;
};

/// Registry of a rank's pending operations.  One per rank.
class ProgressEngine {
 public:
  /// The calling rank's engine.  Throws outside a run() body.
  static ProgressEngine& current();

  /// Registers an operation and advances it as far as it will go.  If it
  /// completes immediately (single-rank communicators, lucky timing), the
  /// returned handle is already done and nothing is enqueued.  `first_tag`
  /// and `tag_count` describe the collective-tag window the operation
  /// reserved on `comm`; they are recorded in the rank's pending-operation
  /// table.
  Request launch(mprt::Comm& comm, std::unique_ptr<Operation> op,
                 int first_tag, int tag_count);

  /// Steps every pending operation once, each on its own timeline, and
  /// retires the completed ones; the rank clock does not move until the
  /// rank observes a completion.  Returns true if any operation made
  /// progress.  Call this from compute loops to overlap communication
  /// with computation.
  bool poll();

  /// Number of operations still in flight on this engine.
  [[nodiscard]] std::size_t in_flight() const { return slots_.size(); }

 private:
  friend class Request;
  friend int test_any(std::span<Request> requests);

  struct Slot {
    std::uint64_t id = 0;
    std::unique_ptr<Operation> op;
    mprt::Comm* comm = nullptr;  // its clock, and pending-table bookkeeping
    std::uint64_t pending_id = 0;
    /// The operation's progress timeline: the virtual time up to which it
    /// has been advanced.
    double vtime = 0.0;
  };

  /// A retired operation whose completion the rank has not observed yet.
  struct Finished {
    std::uint64_t id = 0;
    mprt::Comm* comm = nullptr;
    double vtime = 0.0;  ///< finish time on the operation's timeline
  };

  /// One step of `slot`'s operation on its own timeline.
  static bool advance(Slot& slot);

  [[nodiscard]] bool is_complete(std::uint64_t id) const;
  /// Joins a completed operation's finish time into the rank clock (the
  /// first observation does; later ones find nothing left to join).
  void observe(std::uint64_t id);
  void wait(std::uint64_t id);

  std::vector<Slot> slots_;
  std::vector<Finished> finished_;
  std::uint64_t next_id_ = 1;
};

/// Convenience: one progress pass on the calling rank's engine.
inline bool poll() { return ProgressEngine::current().poll(); }

}  // namespace rsmpi::coll::nb
