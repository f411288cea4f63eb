// The per-rank progress engine for nonblocking collectives.
//
// A nonblocking operation is its blocking counterpart's own code running on
// an operation coroutine (an mprt::Fiber): launch hands the engine a body
// that runs a blocking collective on the Comm it is given, and the engine
// starts it.  Whenever the blocking code would wait for a message, the
// scheduler's park hook (mprt/scheduler.hpp) suspends the coroutine back to
// the pass that resumed it, and the rank keeps running.  There are no
// progress threads — progress happens at launch, inside Request::wait/test
// and at explicit poll() points, which is exactly the MPI guidance of
// calling MPI_Test inside compute loops to overlap communication with
// computation.  A pass in which no operation sends, receives or finishes
// yields the rank, like any poll that finds nothing.
//
// Tags: launch reserves one block of kOperationTags collective tags and
// runs the body on Comm::with_tag_block, so a collective that reserves its
// next tag mid-flight still agrees with its peers however many operations
// the rank launched meanwhile.
//
// Virtual-clock accounting: every in-flight operation carries its own
// progress timeline, seeded with the rank clock at launch, and every pass
// (launch, poll, test, wait) runs the operation on it.  The rank clock —
// its time and its ports — is swapped for the operation's while its
// coroutine runs, so each queued message is processed at max(op time,
// arrival) — where a rank polling without pause would have processed it —
// and send, receive and combine charges land on the operation's timeline;
// then the rank clock is restored.  The operation's timeline joins the
// rank clock only when the rank observes the completion: Request::wait, a
// test or test_any that reports it done, or Future::get.  The operation
// books ports of its own, so whether the host posts its sends before or
// after the rank's own moves no clock either.  With receives from named
// sources, the modelled critical path is therefore a function of the
// message schedule alone — not of which messages happened to be queued
// at a poll, nor of how the host scheduled the ranks.  (A wildcard
// receive still folds whichever match is queued first, as its blocking
// counterpart does.)
//
// Errors: an exception that escapes the body finishes the operation, which
// is retired with it like a completed one, so the rank's other operations
// keep progressing.  The error stays with its request: every wait, test or
// test_any that observes that request rethrows it (the engine keeps the
// record of a failed operation for the rank's lifetime).  Launch rethrows
// at once anything but a PeerLostError, which is left for the request's
// observers.  A receive deadline (Comm::set_recv_deadline) therefore
// surfaces from the wait or test of the operation it expired in.
//
// The engine lives in the rank's fiber slot, reachable via
// ProgressEngine::current().  Bodies hold references to user buffers,
// which must outlive the request's completion.  An operation dropped
// unfinished — its rank exited without waiting — is unwound, so the
// objects on its coroutine stack are destroyed.  Finished coroutines keep
// their stacks on a spare list that later launches re-arm.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "coll/nb/request.hpp"
#include "mprt/comm.hpp"
#include "mprt/fiber.hpp"
#include "mprt/scheduler.hpp"

namespace rsmpi::coll::nb {

/// Collective tags reserved per nonblocking operation: the most any
/// blocking collective takes is the hierarchical allreduce's 3.
inline constexpr int kOperationTags = 4;

/// One in-flight nonblocking collective: a blocking collective running on
/// its own coroutine, over a tag-leased handle of its communicator.
class Operation {
 public:
  /// Arms a coroutine to run `body` on `comm`: re-arms `spare`, a finished
  /// operation's, or maps a new one of `stack_bytes`.
  Operation(std::uint64_t id, mprt::Comm comm,
            std::function<void(mprt::Comm&)> body,
            std::unique_ptr<mprt::Fiber> spare, std::size_t stack_bytes);
  ~Operation();

  Operation(const Operation&) = delete;
  Operation& operator=(const Operation&) = delete;

  /// Resumes the coroutine on the operation's own timeline until it waits
  /// or finishes.  True if the coroutine sent or received a message or
  /// finished.
  bool step(mprt::FiberSlot& slot);

  /// True once the body has returned or thrown.
  [[nodiscard]] bool done() const { return fiber_->finished(); }
  /// What the body threw, or null.
  [[nodiscard]] std::exception_ptr error() const { return error_; }

  /// Hands the finished coroutine's stack back for re-arming.
  std::unique_ptr<mprt::Fiber> release_fiber() { return std::move(fiber_); }

  [[nodiscard]] std::uint64_t id() const { return id_; }
  /// The operation's timeline: its finish (or last progress) time and
  /// the ports its sends and receives booked.
  [[nodiscard]] const mprt::VirtualClock& timeline() const {
    return timeline_;
  }

 private:
  std::uint64_t id_;
  mprt::Comm comm_;
  std::function<void(mprt::Comm&)> body_;
  std::unique_ptr<mprt::Fiber> fiber_;
  std::exception_ptr error_;
  mprt::VirtualClock timeline_;
};

/// Registry of a rank's pending operations.  One per rank.
class ProgressEngine {
 public:
  explicit ProgressEngine(mprt::FiberSlot& slot) : slot_(slot) {}
  ~ProgressEngine();

  /// The calling rank's engine.  Throws outside a run() body.
  static ProgressEngine& current();

  /// Starts `body` — a blocking collective over the Comm it is given, a
  /// tag-leased handle of `comm` — on a coroutine and runs it until it
  /// first waits.  If it completes right away, the returned handle is
  /// already done.  An exception the body throws now propagates from
  /// here, except a PeerLostError (see the file comment).
  Request launch(mprt::Comm& comm, std::function<void(mprt::Comm&)> body);

  /// Steps every pending operation once, each on its own timeline, and
  /// retires the finished ones, failed or not; the rank clock does not
  /// move until the rank observes a completion.  Returns true if any
  /// operation made progress.  Call this from compute loops to overlap
  /// communication with computation.
  bool poll();

  /// Number of operations still in flight on this engine.
  [[nodiscard]] std::size_t in_flight() const { return ops_.size(); }

 private:
  friend class Request;
  friend int test_any(std::span<Request> requests);

  /// A retired operation whose completion the rank has not observed yet,
  /// or one that failed (kept, so every observation rethrows).
  struct Finished {
    std::uint64_t id = 0;
    mprt::VirtualClock timeline;  ///< the operation's, at its finish
    std::exception_ptr error;  ///< what the body threw, or null
  };

  /// Moves finished operations to finished_ and their stacks to spare_.
  void retire_done();

  [[nodiscard]] bool is_complete(std::uint64_t id) const;
  /// Joins a completed operation's timeline into the rank clock (the
  /// first observation does; later ones find nothing left to join), or
  /// rethrows its error, on every observation.
  void observe(std::uint64_t id);
  void wait(std::uint64_t id);

  mprt::FiberSlot& slot_;  // the rank's: its world comm, clock and mailbox
  std::vector<std::unique_ptr<Operation>> ops_;
  std::vector<Finished> finished_;
  std::vector<std::unique_ptr<mprt::Fiber>> spare_;
  std::uint64_t next_id_ = 1;
};

/// Convenience: one progress pass on the calling rank's engine.
inline bool poll() { return ProgressEngine::current().poll(); }

}  // namespace rsmpi::coll::nb
