// Virtual-rank scheduler: the runtime's only executor.  Every rank is a
// fiber, multiplexed onto a small pool of OS worker threads.
//
// Execution model.  Each rank is a Fiber (mprt/fiber.hpp) that a worker
// resumes off a shared FIFO ready queue.  A rank runs until its blocking
// mailbox wait finds nothing deliverable, at which point the mailbox's
// RankWaiter hook parks the fiber: it switches back to its worker
// (Fiber::suspend), which picks up the next ready rank.  A sender's
// Mailbox::put wakes the parked receiver through the same hook, requeueing
// its fiber — possibly onto a different worker; fibers migrate freely.  A
// busy poll that finds nothing (try_recv, probe, nonblocking test) yields
// instead: the fiber goes to the back of the ready queue and stays
// runnable, so polling ranks never starve the ranks they wait for.
//
// The park/wake race is resolved by a three-state gate per fiber
// (idle / notified / parked):
//   * wake():   prev = gate.exchange(notified); if prev == parked, requeue.
//   * scheduler, after the fiber switches out: CAS(idle -> parked); on
//     failure a wake landed mid-switch — reset to idle and requeue at once.
//   * the fiber, on resume: gate.store(idle), then re-check its predicate
//     under the mailbox lock.
// A wakeup is never lost because every waker publishes its event (message,
// abort, peer loss) under the mailbox lock *before* calling wake(), and a
// woken fiber always re-checks the predicate after resetting the gate.
//
// Deadlock detection is exact, not timing-based: under the scheduler mutex
// every live fiber is in exactly one of three states — running (counted),
// in the ready queue, or fully parked (the running-count decrement and the
// park CAS happen under one mutex hold).  If live > 0, nothing is running,
// nothing is ready and no timed park is pending, then no rank can ever be
// woken (only rank fibers send; the caller's thread is joined on the pool;
// the par/ worker pools never touch mailboxes) — the scheduler sets a
// sticky deadlocked flag and wakes every parked fiber, whose mailbox wait
// loops convert it into DeadlockError.  This is also the model checker's
// liveness check: oracle-driven runs execute on the same scheduler.
//
// Operation coroutines.  A nonblocking collective (coll/nb) runs its
// blocking code on a coroutine of its own, a Fiber that the rank's progress
// passes resume.  While a pass runs one, the rank's FiberSlot names it, and
// a park or yield — the blocking code waiting on its mailbox — suspends
// that coroutine back to the pass instead of suspending the rank.  The
// blocking collectives need no change to run either way.
//
// Compute sections never span a park or a yield: a ComputeTimer charges
// the CPU clock of the worker thread, which runs other fibers while this
// one is off it.  Both throw rsmpi::Error when the calling worker has a
// compute section open (mprt/cost_model.hpp counts them per thread).  A
// coroutine's suspension does not leave the rank, so it is not checked;
// the pass's own yield is.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

#include "mprt/mailbox.hpp"

namespace rsmpi::mprt {

class Comm;
class Fiber;

/// A rank's execution context: its world communicator (this_comm) and its
/// nonblocking progress engine (coll/nb).  It lives with the fiber, not in
/// a thread_local, because every rank multiplexed onto a worker would
/// share the thread_local.  The nb_engine slot is opaque to keep mprt
/// independent of coll/.
struct FiberSlot {
  Comm* comm = nullptr;
  std::shared_ptr<void> nb_engine;
  /// The operation coroutine a progress pass is running right now, or
  /// nullptr: the park hook suspends it instead of the rank.
  Fiber* op_fiber = nullptr;
  /// The earliest receive deadline an operation coroutine parked on in
  /// the current progress pass (time_point::max() if none), copied off the
  /// coroutine's stack: a waiting rank parks no longer than this.
  std::chrono::steady_clock::time_point op_deadline =
      std::chrono::steady_clock::time_point::max();
  /// The run's fiber stack size, which operation coroutines use too.
  std::size_t stack_bytes = 0;
  int rank = -1;
};

/// The calling rank's fiber slot, or nullptr outside any run() body.
[[nodiscard]] FiberSlot* current_fiber_slot();

/// Worker pool + ready queue + park gates for one run.  Not reusable:
/// construct, install waiters, run(), read counters, destroy.
class VirtualScheduler {
 public:
  /// RSMPI_STACK_BYTES override for per-fiber stacks, else the 256 KiB
  /// default.
  [[nodiscard]] static std::size_t default_stack_bytes();

  VirtualScheduler(int num_ranks, int workers, std::size_t stack_bytes);
  ~VirtualScheduler();

  VirtualScheduler(const VirtualScheduler&) = delete;
  VirtualScheduler& operator=(const VirtualScheduler&) = delete;

  [[nodiscard]] int workers() const;

  /// Rank `rank`'s park/resume endpoint, for Mailbox::set_rank_waiter.
  [[nodiscard]] RankWaiter& waiter(int rank);

  /// Runs `rank_body(r)` for every rank on the worker pool; returns when
  /// all fibers have finished.  The body must catch its own exceptions
  /// (the runtime's rank wrapper does).
  void run(const std::function<void(int)>& rank_body);

  /// Total park transitions (a fiber fully suspended awaiting a wake).
  [[nodiscard]] std::uint64_t park_events() const;

  /// Peak number of simultaneously parked fibers.
  [[nodiscard]] int peak_parked() const;

  /// True once the exact deadlock detector fired during run().
  [[nodiscard]] bool deadlock_declared() const;

  struct Impl;  // public so scheduler.cpp's thread_local can name it

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace rsmpi::mprt
