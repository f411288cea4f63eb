// Communicator handle given to each rank's body function.
//
// A Comm is a rank's view of one *communication context*: its identity
// within the group (rank/size), typed point-to-point messaging to group
// members, and the rank's virtual clock (shared by all of the rank's
// communicators).  The runtime constructs the world communicator spanning
// all ranks; Comm::split derives subcommunicators whose traffic is fully
// isolated from the parent's, MPI-style.  Collective operations are built
// on top of this interface in src/coll and work unchanged on
// subcommunicators.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mprt/buffer_pool.hpp"
#include "mprt/cost_model.hpp"
#include "mprt/mailbox.hpp"
#include "mprt/message.hpp"
#include "mprt/metrics.hpp"
#include "mprt/sim.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace rsmpi::mprt {

class Runtime;

/// Bounded-wait policy for blocking receives.  When set on a rank, every
/// blocking recv waits in `retries` slices whose lengths grow by `backoff`
/// and sum to `timeout_s`; if no matching message arrives within the
/// budget the receive throws TimeoutError instead of hanging — the
/// recovery path for messages a fault plan dropped.  All times are real
/// (wall-clock) seconds: a rank blocked in recv makes no virtual progress,
/// so the deadline must come from the host clock.
struct RecvDeadline {
  double timeout_s = 1.0;
  int retries = 4;
  double backoff = 2.0;
};

/// Per-rank mutable state shared by every communicator of that rank: the
/// virtual clock, the rank's metrics and the payload buffer pool.  Owned
/// by the runtime; only touched by the rank itself.
struct RankState {
  VirtualClock clock;
  /// Last sequence number sent on each (context, destination) channel; the
  /// next send on the channel stamps one more.  Dense per-channel numbers
  /// let the receiving mailbox keep what it delivered as a few ranges.
  std::unordered_map<Channel, std::uint64_t, ChannelHash> sent_seqs;
  std::optional<RecvDeadline> recv_deadline;
  /// This rank's values of the metrics table (mprt/metrics.hpp).
  Metrics metrics;
  BufferPool pool;  ///< recycled payload buffers (rank-local)
  /// (name, value) pairs published via Comm::publish_stat; summed by name
  /// into RunResult::user_stats after the join.  The channel through which
  /// higher layers (e.g. svc::StatCollector) surface their own aggregates.
  std::vector<std::pair<std::string, double>> published_stats;
};

/// Identity/status returned by receives that used wildcards.  `source` is
/// a rank within the receiving communicator.
struct RecvStatus {
  int source = 0;
  int tag = 0;
};

/// One rank's endpoint into one communicator.  World communicators are
/// created by the runtime, one per rank; subcommunicators by split().
/// A Comm must only be used by its own rank.  All messaging is two-sided
/// and buffered: send never blocks.
class Comm {
 public:
  /// World communicator over all ranks; called by the runtime.
  Comm(Runtime& runtime, int global_rank);

  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;
  Comm(Comm&&) = default;

  /// This rank's position within this communicator's group.
  [[nodiscard]] int rank() const { return group_rank_; }
  /// Number of ranks in this communicator's group.
  [[nodiscard]] int size() const { return static_cast<int>(group_.size()); }
  /// This rank's position in the world communicator.
  [[nodiscard]] int global_rank() const { return global_rank_; }

  /// The communication cost model shared by all ranks.
  [[nodiscard]] const CostModel& cost_model() const;

  /// This rank's virtual clock — shared across all of the rank's
  /// communicators, because a rank has one timeline.
  [[nodiscard]] VirtualClock& clock() { return state_->clock; }
  [[nodiscard]] const VirtualClock& clock() const { return state_->clock; }

  /// Convenience RAII compute timer bound to this rank's clock and model.
  [[nodiscard]] ComputeTimer compute_section() {
    return ComputeTimer(state_->clock, cost_model());
  }

  // -- Subcommunicators ----------------------------------------------------

  /// Collectively partitions this communicator: ranks passing the same
  /// `color` (>= 0) form a new group, ordered by (key, parent rank).  Every
  /// member of this communicator must call split the same number of times
  /// in the same order.  The new communicator's traffic is isolated from
  /// the parent's by a fresh context id.
  Comm split(int color, int key);

  // -- Byte-level point-to-point ------------------------------------------

  /// Sends a payload to group rank `dest` with `tag`.  Buffered and
  /// non-blocking: returns as soon as the payload is enqueued at the
  /// destination mailbox.  Charges send overhead to this clock and stamps
  /// the message with its modelled arrival time.  This overload *copies*
  /// the payload (counted in mprt.payload_copies; also charged at
  /// CostModel::copy_per_byte_s when nonzero).
  void send_bytes(int dest, int tag, std::span<const std::byte> payload);

  /// Move-based send: adopts the caller's buffer as the message payload —
  /// no copy, no allocation (payloads <= Message::kInlineCapacity are
  /// demoted to inline storage, and the buffer is recycled into this
  /// rank's pool).  Pair with acquire_buffer() for a fully pooled path.
  void send_bytes(int dest, int tag, std::vector<std::byte>&& payload);

  // -- Payload buffer pool -------------------------------------------------

  /// An empty buffer with at least `reserve_bytes` capacity from this
  /// rank's pool (heap-allocating, and counting mprt.payload_allocs, on
  /// miss).
  [[nodiscard]] std::vector<std::byte> acquire_buffer(
      std::size_t reserve_bytes);

  /// Returns a consumed payload's storage to this rank's pool.  The
  /// canonical receive-side idiom:
  ///
  ///   Message msg = comm.recv_message(src, tag);
  ///   ... combine out of msg.payload() ...
  ///   comm.recycle_buffer(msg.release_storage());
  void recycle_buffer(std::vector<std::byte>&& storage) {
    state_->pool.release(std::move(storage), state_->metrics);
  }

  /// Raises this rank's pool retention caps so at least `buffers`
  /// recycled payloads survive per size class.  A plan-time knob for
  /// persistent handles and services whose warm path recycles wide
  /// fan-ins (see BufferPool::ensure_retention); never shrinks.
  void reserve_pool_capacity(std::size_t buffers) {
    state_->pool.ensure_retention(buffers);
  }

  // -- Receive deadlines ---------------------------------------------------

  /// Installs (or clears, with std::nullopt) a bounded-wait policy for
  /// this rank's blocking receives.  Shared by all of the rank's
  /// communicators, like the clock: a rank has one patience.
  void set_recv_deadline(std::optional<RecvDeadline> deadline) {
    state_->recv_deadline = std::move(deadline);
  }
  [[nodiscard]] const std::optional<RecvDeadline>& recv_deadline() const {
    return state_->recv_deadline;
  }

  /// Blocks until a message matching (source, tag) on this communicator
  /// arrives; merges the message's arrival time into this clock and
  /// charges receive overhead.  Wildcards kAnySource/kAnyTag are allowed.
  /// With a RecvDeadline installed, waits with retry/backoff and throws
  /// TimeoutError when the budget is exhausted; throws PeerLostError if a
  /// rank of the machine exited while this one was waiting.
  Message recv_message(int source, int tag) {
    Message msg = take_message(source, tag);
    charge_receive(msg);
    return msg;
  }

  /// recv_message in two halves, for a schedule that takes several
  /// messages before it accounts for them in an order of its own (the
  /// combine-as-available tree charges its fan-in in arrival-stamp order,
  /// not in the order the host happened to deliver it).  take_message
  /// waits, matches and counts exactly as recv_message does — so a
  /// nonblocking progress pass sees the message as progress — but leaves
  /// the clock alone; charge_receive merges the arrival stamp and charges
  /// the receive overhead.
  Message take_message(int source, int tag);
  void charge_receive(const Message& msg);

  /// True when a matching message is already queued (non-blocking probe).
  /// A probe that finds nothing yields this rank to the others, so a probe
  /// loop makes progress on any number of workers.
  [[nodiscard]] bool probe(int source, int tag);

  /// Non-blocking receive: takes a matching message if one is queued,
  /// std::nullopt otherwise (after yielding, like probe).  Clock
  /// accounting matches recv_message.
  std::optional<Message> try_recv_message(int source, int tag);

  // -- Typed point-to-point -----------------------------------------------

  /// Sends one trivially-copyable value, through the span overload: a
  /// value of at most Message::kInlineCapacity bytes is copied into the
  /// Message and allocates nothing.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void send(int dest, int tag, const T& value) {
    send_bytes(dest, tag, std::as_bytes(std::span<const T, 1>(&value, 1)));
  }

  /// Receives one trivially-copyable value.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T recv(int source, int tag, RecvStatus* status = nullptr) {
    Message msg = recv_message(source, tag);
    if (status != nullptr) *status = RecvStatus{msg.source, msg.tag};
    return bytes::from_bytes<T>(msg.payload());
  }

  /// Sends a contiguous sequence of trivially-copyable values.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void send_span(int dest, int tag, std::span<const T> values) {
    send_bytes(dest, tag,
               std::span<const std::byte>(
                   reinterpret_cast<const std::byte*>(values.data()),
                   values.size_bytes()));
  }

  /// Receives a sequence whose length the receiver does not know a priori.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> recv_vector(int source, int tag,
                             RecvStatus* status = nullptr) {
    Message msg = recv_message(source, tag);
    if (status != nullptr) *status = RecvStatus{msg.source, msg.tag};
    const std::span<const std::byte> payload = msg.payload();
    if (payload.size() % sizeof(T) != 0) {
      throw ProtocolError("recv_vector: payload size " +
                          std::to_string(payload.size()) +
                          " is not a multiple of element size " +
                          std::to_string(sizeof(T)));
    }
    std::vector<T> out(payload.size() / sizeof(T));
    if (!out.empty()) {
      std::memcpy(out.data(), payload.data(), payload.size());
    }
    return out;
  }

  /// Receives a sequence of exactly `out.size()` values into `out`.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void recv_span(int source, int tag, std::span<T> out) {
    Message msg = recv_message(source, tag);
    const std::span<const std::byte> payload = msg.payload();
    if (payload.size() != out.size_bytes()) {
      throw ProtocolError("recv_span: expected " +
                          std::to_string(out.size_bytes()) + " bytes, got " +
                          std::to_string(payload.size()));
    }
    if (!out.empty()) {
      std::memcpy(out.data(), payload.data(), payload.size());
    }
  }

  /// Non-blocking typed receive.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::optional<T> try_recv(int source, int tag,
                            RecvStatus* status = nullptr) {
    auto msg = try_recv_message(source, tag);
    if (!msg.has_value()) return std::nullopt;
    if (status != nullptr) *status = RecvStatus{msg->source, msg->tag};
    return bytes::from_bytes<T>(msg->payload());
  }

  /// Combined send+receive with distinct partners, deadlock-free because
  /// sends are buffered.  The common idiom of pairwise exchanges.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T sendrecv(int dest, int send_tag, const T& value, int source,
             int recv_tag) {
    send(dest, send_tag, value);
    return recv<T>(source, recv_tag);
  }

  // -- Collective tag management ------------------------------------------

  /// Tags at or above this value are reserved for collective operations;
  /// user point-to-point traffic should stay below it.
  static constexpr int kCollectiveTagBase = 1 << 20;

  /// Size of the collective tag window [kCollectiveTagBase, INT_MAX].  The
  /// sequence wraps only after ~2^31 collectives — long-lived nonblocking
  /// operations would need that many collectives in flight at once before
  /// a wildcard receive could alias two of them.  (A previous 16-bit
  /// window aliased after 65536 collectives; see tag_window_test.)
  static constexpr std::int64_t kCollectiveTagWindow =
      static_cast<std::int64_t>(std::numeric_limits<int>::max()) -
      kCollectiveTagBase + 1;

  /// A contiguous range of collective tags owned by a persistent handle.
  /// Reserved once (advancing the SPMD sequence), then re-leased every
  /// epoch via begin_tag_block/end_tag_block so an epoch loop of millions
  /// of collectives consumes a bounded slice of the tag window instead of
  /// marching through — and eventually wrapping — it.  Re-using the same
  /// tags across epochs is safe because each epoch's messages are fully
  /// consumed before the next epoch starts, and stale chaos-duplicates are
  /// discarded by the mailbox: their sequence number is already among the
  /// numbers their channel delivered.
  struct TagBlock {
    int first_tag = 0;
    int count = 0;
  };

  /// Reserves `count` consecutive tags for a long-lived handle and returns
  /// them as a leasable block.  Advances the SPMD sequence exactly once.
  TagBlock reserve_tag_block(int count) {
    return TagBlock{reserve_collective_tags(count), count};
  }

  /// Begins serving collective-tag reservations from `block` instead of
  /// the global sequence.  While the lease is active, reserve requests walk
  /// a cursor from the block's start (throwing if the block is too small)
  /// and the SPMD sequence does not advance.  Leases do not nest.
  void begin_tag_block(const TagBlock& block) {
    if (active_block_.has_value()) {
      throw ArgumentError(
          "begin_tag_block: a tag-block lease is already active on this "
          "communicator (leases do not nest)");
    }
    active_block_ = block;
    block_cursor_ = 0;
  }

  /// Ends the active lease; subsequent reservations use the global
  /// sequence again.
  void end_tag_block() { active_block_.reset(); }

  /// A handle on this communicator — same context, group and rank state —
  /// whose collective-tag reservations all come from `block`, for good.
  /// A nonblocking operation runs its blocking collective on one: the
  /// collective may reserve tags mid-flight, after the rank has launched
  /// other operations, and the block keeps those tags its own.  Do not
  /// split the handle: its split sequence starts over at zero.
  [[nodiscard]] Comm with_tag_block(const TagBlock& block) const {
    Comm handle(runtime_, global_rank_, context_, group_, group_rank_);
    handle.tag_window_ = tag_window_;
    handle.active_block_ = block;
    return handle;
  }

  /// Total collective tags consumed from the global sequence.  Persistent
  /// handles hold this flat across warm epochs (the tag-recycling
  /// regression tests assert exactly that).
  [[nodiscard]] std::int64_t collective_tags_consumed() const {
    return collective_seq_;
  }

  /// Shrinks the collective tag window so tests can exercise the wrap
  /// logic in millions (not billions) of epochs.  Test-only; every rank of
  /// a communicator must install the same window or tags stop agreeing.
  void set_collective_tag_window_for_test(std::int64_t window) {
    if (window < 1 || window > kCollectiveTagWindow) {
      throw ArgumentError("set_collective_tag_window_for_test: window " +
                          std::to_string(window) + " outside [1, " +
                          std::to_string(kCollectiveTagWindow) + "]");
    }
    tag_window_ = window;
  }

  /// Reserves `count` consecutive tags for one collective operation and
  /// returns the first.  Because ranks execute a communicator's
  /// collectives SPMD-style in the same order, the n-th reservation on
  /// every member returns the same tags, isolating concurrent wildcard
  /// receives of adjacent collectives from each other.  A reservation
  /// never straddles the window's wrap point: if the remaining window is
  /// too small, every rank skips to the window start together.  Under an
  /// active tag-block lease the tags come from the leased block and the
  /// sequence does not move.
  int reserve_collective_tags(int count) {
    if (count < 1 || static_cast<std::int64_t>(count) > tag_window_) {
      throw ArgumentError("reserve_collective_tags: count " +
                          std::to_string(count) + " outside [1, " +
                          std::to_string(tag_window_) + "]");
    }
    if (active_block_.has_value()) {
      if (block_cursor_ + count > active_block_->count) {
        throw ArgumentError(
            "reserve_collective_tags: leased tag block of " +
            std::to_string(active_block_->count) +
            " tags exhausted (collective needs " + std::to_string(count) +
            " more); reserve a larger block for this persistent handle");
      }
      const int tag = active_block_->first_tag + block_cursor_;
      block_cursor_ += count;
      return tag;
    }
    std::int64_t pos = collective_seq_ % tag_window_;
    if (pos + count > tag_window_) {
      collective_seq_ += tag_window_ - pos;
      pos = 0;
    }
    collective_seq_ += count;
    return kCollectiveTagBase + static_cast<int>(pos);
  }

  /// Returns a fresh tag for one collective invocation.
  int next_collective_tag() { return reserve_collective_tags(1); }

  // -- Metrics (mprt/metrics.hpp) ------------------------------------------

  /// A snapshot of this rank's metrics, with the rows that live elsewhere
  /// (duplicates its mailbox suppressed, the scheduler's and the fault
  /// plan's run-wide values) read now.  Safe to call mid-run, without
  /// communication.
  [[nodiscard]] Metrics metrics() const;

  /// Folds `value` into this rank's row `m` by the row's merge rule; the
  /// increment site of a counter outside mprt.
  void note(Metric m, std::uint64_t value = 1) {
    state_->metrics.add(m, value);
  }

  /// Zeroes this rank's counters, to measure one phase of a run.
  void reset_counters() { state_->metrics = Metrics{}; }

  // Single rows, read by the benchmark harness (perfbench/).
  struct PoolStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  [[nodiscard]] PoolStats pool_stats() const {
    return {state_->metrics[Metric::kPoolHits],
            state_->metrics[Metric::kPoolMisses]};
  }
  [[nodiscard]] std::uint64_t messages_sent() const {
    return state_->metrics[Metric::kMessagesSent];
  }
  [[nodiscard]] std::uint64_t bytes_sent() const {
    return state_->metrics[Metric::kBytesSent];
  }
  [[nodiscard]] std::uint64_t messages_received() const {
    return state_->metrics[Metric::kMessagesReceived];
  }
  [[nodiscard]] std::uint64_t payload_allocs() const {
    return state_->metrics[Metric::kPayloadAllocs];
  }
  [[nodiscard]] std::uint64_t autotune_invocations() const {
    return state_->metrics[Metric::kAutotuneInvocations];
  }
  [[nodiscard]] std::uint64_t local_parallel_sections() const {
    return state_->metrics[Metric::kParSections];
  }
  [[nodiscard]] std::uint64_t local_chunks() const {
    return state_->metrics[Metric::kParChunks];
  }
  [[nodiscard]] std::uint64_t local_steals() const {
    return state_->metrics[Metric::kParSteals];
  }
  [[nodiscard]] std::uint64_t recv_retries() const {
    return state_->metrics[Metric::kRecvRetries];
  }
  [[nodiscard]] std::uint64_t park_events() const {
    return metrics()[Metric::kParkEvents];
  }

  /// Publishes a named metric from this rank; after the join, run() sums
  /// same-named entries across ranks into RunResult::user_stats.  Publish
  /// aggregates (e.g. once per run from a stat collector), not per-event
  /// samples — entries accumulate until the run ends.
  void publish_stat(std::string name, double value) {
    state_->published_stats.emplace_back(std::move(name), value);
  }

  // -- Model-checking hooks (ISSUE 7) -------------------------------------

  /// The run's schedule oracle, or nullptr outside model-checking runs.
  /// Collectives with genuine arrival-order freedom consult it to branch
  /// deterministically instead of folding in racy arrival order.
  [[nodiscard]] ScheduleOracle* schedule_oracle() const;

  /// Monotonic event count of this rank's mailbox.  Snapshot before a
  /// nonblocking progress pass and hand to idle_wait.
  [[nodiscard]] std::uint64_t mail_events() const;

  /// Parks this rank until its mailbox sees an event newer than
  /// `seen_events`, or until `deadline`.  Throws DeadlockError when no rank
  /// can ever send.
  void idle_wait(std::uint64_t seen_events,
                 std::chrono::steady_clock::time_point deadline);

  /// Steps this rank aside without parking, as a poll that finds nothing
  /// does: it stays runnable and resumes after the other ready ranks.
  void yield_rank();

  /// Group membership of this communicator: group rank -> global rank.
  [[nodiscard]] const std::vector<int>& group_global_ranks() const {
    return group_;
  }

  /// Scopes which lost peers poison this *rank's* receives (all of the
  /// rank's communicators share one mailbox, hence one scope — install the
  /// scope around each stream's work and restore it after).  std::nullopt
  /// restores the default: any lost rank anywhere unblocks this rank's
  /// receives with PeerLostError.
  void set_peer_loss_scope(std::optional<std::vector<int>> global_ranks);

  /// Global ranks known (by this rank's mailbox) to have exited.  Read
  /// after catching PeerLostError to learn which peer died — e.g. to mark
  /// the dead shard's streams degraded while others keep flowing.
  [[nodiscard]] std::vector<int> lost_peers() const;

 private:
  /// Subcommunicator constructor; used by split().
  Comm(Runtime& runtime, int global_rank, std::int64_t context,
       std::vector<int> group, int group_rank);

  /// Chaos hook at the top of every send: charges fault-plan compute skew
  /// and throws RankKilledError at the configured kill point.  No-op
  /// without a fault plan.
  void chaos_pre_send();

  /// Stamps the sequence number and enqueues `msg` at `dest`'s mailbox,
  /// applying the fault plan (drop/duplicate/delay/reorder) when active.
  void deliver(int dest, Message&& msg);

  /// Charges the tier-resolved send overhead and counts the payload against
  /// the tier.intra_bytes / tier.inter_bytes rows (two-tier models only).
  void charge_send(int dest_global, std::size_t nbytes);

  /// Tier-resolved receive overhead for a message from `source_group_rank`.
  [[nodiscard]] double recv_overhead_from(int source_group_rank) const;

  /// The blocking take behind recv_message: plain blocking wait, or
  /// retry/backoff slices under the rank's RecvDeadline.
  Message take_blocking(int source, int tag);

  Runtime& runtime_;
  RankState* state_;
  int global_rank_;
  std::int64_t context_ = 0;
  std::vector<int> group_;  // group rank -> global rank
  int group_rank_ = 0;
  std::int64_t collective_seq_ = 0;
  std::int64_t tag_window_ = kCollectiveTagWindow;
  std::optional<TagBlock> active_block_;
  int block_cursor_ = 0;
  int split_seq_ = 0;
};

/// RAII lease of a persistent handle's tag block: collectives issued while
/// the lease lives draw their tags from the block (identically on every
/// rank, since the leases are SPMD like the collectives themselves) and
/// the communicator's tag sequence stands still.
class TagBlockLease {
 public:
  TagBlockLease(Comm& comm, const Comm::TagBlock& block) : comm_(&comm) {
    comm_->begin_tag_block(block);
  }
  TagBlockLease(const TagBlockLease&) = delete;
  TagBlockLease& operator=(const TagBlockLease&) = delete;
  ~TagBlockLease() { comm_->end_tag_block(); }

 private:
  Comm* comm_;
};

}  // namespace rsmpi::mprt
