// Per-rank mailbox: an unbounded MPSC message queue with MPI-style
// (source, tag) matching, wildcard receives, and abort-aware blocking.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "mprt/message.hpp"

namespace rsmpi::mprt {

/// Park/resume endpoint of one rank.  Every rank is a fiber multiplexed
/// onto a small worker pool, so a mailbox wait must not block its worker
/// thread; instead the mailbox routes the wait through this hook, which
/// suspends the owning fiber and hands the worker to another rank.
/// Implemented by the scheduler (mprt/scheduler.cpp); the mailbox stays
/// ignorant of fibers.
class RankWaiter {
 public:
  virtual ~RankWaiter() = default;

  /// Suspends the owning rank until wake() (or the optional deadline, or a
  /// scheduler-wide deadlock declaration).  Called by the owning rank with
  /// its mailbox lock held via `lock`; the implementation releases the
  /// lock across the suspension and reacquires it before returning.  May
  /// return spuriously — callers re-check their predicate in a loop.
  virtual void park(std::unique_lock<std::mutex>& lock,
                    const std::chrono::steady_clock::time_point* deadline) = 0;

  /// Steps the owning rank aside without parking: it stays runnable and
  /// resumes after the other ready ranks had a turn.  Called by the owning
  /// rank, without the mailbox lock, after a poll found nothing.
  virtual void yield() = 0;

  /// Makes the owning rank runnable (idempotent; callable from any thread;
  /// the caller must not hold the mailbox lock).  A wake that races the
  /// park is never lost: the gate protocol turns it into an immediate
  /// re-run of the parking rank.
  virtual void wake() = 0;

  /// True once the scheduler has proven no parked rank can ever be woken
  /// (every live rank parked, no timers pending).  Mailbox wait loops
  /// convert this into DeadlockError.
  [[nodiscard]] virtual bool deadlock_declared() const = 0;
};

/// Thread-safe mailbox owned by one rank.  Any rank may `put`; only the
/// owning rank calls `take`/`try_take`/`probe`.  Matching preserves
/// per-(source, tag) FIFO order: `take` always returns the *oldest* queued
/// message that satisfies the pattern, so two same-tag messages from the
/// same sender are received in send order (the MPI non-overtaking rule).
///
/// "Oldest" is defined by Message::seq, not by queue position: a fault
/// plan (mprt/sim.hpp) may physically enqueue messages out of order or
/// enqueue the same message twice, and the sequence numbers let every
/// receive path — blocking take, try_take and probe — agree on one
/// delivery order and deliver each sequence number at most once
/// (duplicates are counted and discarded against the numbers their channel
/// has already delivered).
///
/// Blocking waits park the owner through its RankWaiter; a blocking wait
/// with nothing queued on a mailbox without one (a hand-built harness)
/// throws rsmpi::Error.  Polls that find nothing yield the owner.
class Mailbox {
 public:
  Mailbox() = default;
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Enqueues a message; wakes the owner if it is parked in take().
  /// `front` enqueues at the head instead of the tail — the fault plans'
  /// physical-reorder injection (delivery order is unaffected for
  /// sequenced messages, which is the property the harness verifies).
  void put(Message msg, bool front = false);

  /// Blocks until a message matching (context, source, tag) is available
  /// and removes it.  Source and tag may be wildcards
  /// (kAnySource/kAnyTag); the context is always exact.  Throws AbortError
  /// if the runtime is aborted, PeerLostError if a rank of the machine
  /// exited, and DeadlockError if no rank can ever send, while waiting.
  Message take(std::int64_t context, int source, int tag);

  /// Bounded-wait take: like take(), but gives up and returns std::nullopt
  /// after `timeout_s` seconds of real time without a match.  Comm layers
  /// retry/backoff (RecvDeadline) on top of this primitive.
  std::optional<Message> take_for(std::int64_t context, int source, int tag,
                                  double timeout_s);

  /// Non-blocking take; std::nullopt (after yielding the owner) when no
  /// queued message matches.
  std::optional<Message> try_take(std::int64_t context, int source, int tag);

  /// True when a message matching the pattern is queued (MPI_Iprobe);
  /// yields the owner when none is.  Stale duplicates are purged first so
  /// probe never reports a message take would refuse to deliver.
  [[nodiscard]] bool probe(std::int64_t context, int source, int tag);

  /// Records that a fault plan dropped `msg` on its way here.  Until then
  /// the non-overtaking rule orders only queued messages, so a receive on
  /// the dropped message's stream would take its successor in its place;
  /// from now on every later message of the (context, source, tag) stream
  /// stays queued, and a receive on it waits as it would for the lost one,
  /// until a receive gives up on it (forget_lost).
  void note_lost(const Message& msg);

  /// Ends that hold on every stream the pattern (context, source, tag)
  /// matches, wildcards included: the receive that gives up on a lost
  /// message has reported the loss — Comm calls this before it throws
  /// TimeoutError, and a receive the deadlock detector ends does it
  /// itself.  Later messages of the stream flow again, so a tag reused
  /// after the error works; a one-shot collective's leftovers stay queued
  /// but no receive asks for their tag again.
  void forget_lost(std::int64_t context, int source, int tag);

  /// Number of queued (unmatched) messages; primarily for tests.
  [[nodiscard]] std::size_t pending() const;

  /// Duplicate deliveries discarded by sequence-number suppression.
  [[nodiscard]] std::uint64_t duplicates_suppressed() const;

  /// Delivered-sequence ranges held for duplicate suppression, summed over
  /// channels; primarily for tests.
  [[nodiscard]] std::size_t delivered_ranges() const;

  /// Puts the mailbox into the aborted state: all current and future
  /// blocking takes throw AbortError.  Used for fail-fast teardown when a
  /// sibling rank throws.
  void abort();

  /// Records that global rank `global_rank` has exited.  Receives that
  /// find no matching message then throw PeerLostError instead of
  /// blocking forever on a sender that will never send; already-queued
  /// messages remain deliverable.
  void notify_peer_lost(int global_rank);

  /// Restricts which lost peers poison this mailbox's receives.  With a
  /// scope installed, only exits of the listed *global* ranks make empty
  /// receives throw PeerLostError; exits of out-of-scope ranks are ignored
  /// (their loss is some other communicator's problem).  std::nullopt — the
  /// default — restores the machine-wide behaviour: any lost rank poisons
  /// every blocked receive.  The service layer scopes each stream's merges
  /// to the stream's own shard group so one dead tenant cannot take down
  /// the others.
  void set_peer_loss_scope(std::optional<std::vector<int>> global_ranks);

  /// Snapshot of the global ranks known to have exited (regardless of the
  /// installed scope).  The service layer reads this after catching
  /// PeerLostError to learn *which* shard died.
  [[nodiscard]] std::vector<int> lost_peers() const;

  /// With deterministic wildcard selection on, a kAnySource take whose
  /// pattern several streams satisfy picks the lowest (source, seq)
  /// candidate instead of the first by physical queue position — removing
  /// the one put-order race wildcard matching otherwise has.  Installed on
  /// model-checking runs so a recorded trace replays exactly.
  void set_deterministic_wildcard(bool on) { deterministic_wildcard_ = on; }

  /// Monotonic count of mailbox events (puts, aborts, peer losses).
  /// Snapshot it *before* a progress pass and hand it to idle_wait so an
  /// arrival during the pass is never slept through.
  [[nodiscard]] std::uint64_t event_count() const;

  /// Parks the owning rank until this mailbox sees an event newer than
  /// `seen_events`, or until `deadline` (time_point::max() for none): the
  /// progress engine's wait between fruitless passes.  Throws AbortError when the runtime is torn
  /// down and DeadlockError when no rank can ever send again.
  void idle_wait(std::uint64_t seen_events,
                 std::chrono::steady_clock::time_point deadline);

  /// Installs the owner's park/resume endpoint.  Set once before the
  /// run's workers start.
  void set_rank_waiter(RankWaiter* waiter) { waiter_ = waiter; }

  /// Yields the owner, as a fruitless poll does.  Called by the owner,
  /// holding no lock.
  void yield_owner() const {
    if (waiter_ != nullptr) waiter_->yield();
  }

 private:
  /// The sequence numbers one channel has delivered, as sorted, disjoint,
  /// non-adjacent closed ranges.  A channel is numbered densely from 1 and
  /// each of its messages is eventually received, dropped or left queued,
  /// so the set settles at one range plus one per number never delivered.
  class DeliveredSeqs {
   public:
    [[nodiscard]] bool contains(std::uint64_t seq) const;
    void insert(std::uint64_t seq);
    [[nodiscard]] std::size_t ranges() const { return ranges_.size(); }

   private:
    struct Range {
      std::uint64_t first;
      std::uint64_t last;
    };
    std::vector<Range> ranges_;
  };

  /// Index of the oldest eligible message matching the pattern, after
  /// purging already-delivered duplicates; npos when none.  Caller holds
  /// the lock.
  [[nodiscard]] std::size_t select_locked(std::int64_t context, int source,
                                          int tag);

  /// Removes index `idx` from the queue, recording its sequence number as
  /// delivered on its channel.  Caller holds the lock.
  Message remove_locked(std::size_t idx);

  /// Throws if the mailbox is aborted (always) or an in-scope peer is lost
  /// (when the caller found no deliverable message).  Caller holds the lock.
  void throw_if_dead_locked(bool have_match) const;

  /// The first lost peer the current loss scope cares about, or -1.
  /// Caller holds the lock.
  [[nodiscard]] int relevant_lost_locked() const;

  /// Parks the owner (`lock` released across the park) until this mailbox
  /// may have seen a new event.  Returns with the lock held; the caller
  /// re-checks its predicate.  Throws DeadlockError when the scheduler has
  /// declared a global deadlock, and rsmpi::Error without a RankWaiter.
  void wait_for_event_locked(
      std::unique_lock<std::mutex>& lock,
      const std::chrono::steady_clock::time_point* deadline,
      const char* what);

  /// wait_for_event_locked for a receive on (context, source, tag): a
  /// DeadlockError ending the wait also ends the hold on the streams the
  /// receive matches (forget_lost).  Caller holds the lock.
  void wait_for_match_locked(
      std::unique_lock<std::mutex>& lock,
      const std::chrono::steady_clock::time_point* deadline,
      std::int64_t context, int source, int tag);

  void forget_lost_locked(std::int64_t context, int source, int tag);

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  mutable std::mutex mutex_;
  std::deque<Message> queue_;
  RankWaiter* waiter_ = nullptr;  // the owner's park/resume endpoint
  bool deterministic_wildcard_ = false;
  std::uint64_t events_ = 0;  // bumped on every put/abort/loss, for idle_wait
  std::unordered_map<Channel, DeliveredSeqs, ChannelHash> delivered_;
  std::uint64_t duplicates_suppressed_ = 0;
  /// Lowest dropped sequence number per (context, source, tag) stream;
  /// empty unless a fault plan drops messages.
  std::map<std::tuple<std::int64_t, int, int>, std::uint64_t> lost_;
  bool aborted_ = false;
  std::vector<int> lost_peers_;  // global ranks that exited
  std::optional<std::vector<int>> loss_scope_;  // nullopt = every peer
};

}  // namespace rsmpi::mprt
