// Multi-tenant streaming aggregation service.
//
// A Service hosts many named streams on one communicator.  Each stream is
// a keyed, sharded, windowed aggregation of one operator:
//
//   * every rank ingests events (stage) for any stream, and staging routes
//     them: each event is copied once, into a pooled send buffer open for
//     its owning shard — a member rank chosen by the stream's ShardMap;
//   * each epoch, every member is sent its batch as one message, stamped
//     with a RouteHeader (empty batches included, so receives match
//     deterministically);
//   * each shard folds its own batch and every received one in place, in
//     source-rank order (so the fold is deterministic), into a partial
//     operator state via the stream's extract function;
//   * the partials are merged across the stream's subcommunicator through
//     a persistent allreduce and pushed into the stream's window, which
//     emits a result whenever a window boundary closes.
//
// Degradation is per stream.  The service scopes the rank's peer-loss
// wakeups to the live service ranks; when a rank dies, exactly the
// streams it shards are marked degraded (their merges can never complete)
// while every other stream keeps flowing — the dead rank is dropped from
// their routing sources and from the loss scope, and the one torn epoch
// is abandoned consistently by all members (the merge cannot complete
// without all of them, so every member observes the failure).  A torn
// epoch drops the events staged for it: routing seals every batch before
// it sends any, so the next epoch stages into fresh ones.  Messages a
// torn epoch left behind cannot corrupt later epochs: routed batches
// carry the epoch number (stale ones are discarded on receipt, and
// per-(source, tag) FIFO means a receiver can never consume a newer epoch
// first), and aborted merges rotate to a fresh tag block.
//
// All planning — autotuner argmins, tag reservation, buffer priming, pool
// retention for every stream's open batches — happens in add_stream; the
// per-epoch path neither plans nor allocates once warm (batch buffers
// circulate through the rank pools and are recycled after their fold).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "mprt/comm.hpp"
#include "mprt/message.hpp"
#include "par/accumulate.hpp"
#include "rs/op_concepts.hpp"
#include "svc/shard.hpp"
#include "svc/stats.hpp"
#include "svc/window.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace rsmpi::svc {

/// One keyed event.  Streams interpret (key, value) through their extract
/// function: a click stream may accumulate the value, a cardinality
/// stream the key.
struct Event {
  std::uint64_t key = 0;
  double value = 0.0;
};
static_assert(std::is_trivially_copyable_v<Event>);

/// Service-wide policy.
struct ServiceConfig {
  /// Bounded-wait policy installed on the rank for the service's
  /// lifetime, so a dropped message degrades an epoch instead of hanging
  /// the rank.
  mprt::RecvDeadline deadline{2.0, 4, 2.0};
  bool install_deadline = true;
};

namespace detail {

/// Wire header of one routed batch.
struct RouteHeader {
  std::uint64_t epoch = 0;
  std::uint64_t count = 0;
};
static_assert(std::is_trivially_copyable_v<RouteHeader>);

/// The batch a rank is staging for one stream member: a pooled buffer laid
/// out as the wire message — a RouteHeader slot, then the events in
/// staging order — filled through a write cursor.  `cur == end` both
/// before the batch opens (both null) and when it is full.
struct Batch {
  std::vector<std::byte> buf;
  std::byte* cur = nullptr;
  std::byte* end = nullptr;
  std::size_t last_count = 0;  ///< events in the last batch sealed here

  /// Events staged so far.
  [[nodiscard]] std::size_t count() const {
    if (cur == nullptr) return 0;
    return static_cast<std::size_t>(cur - buf.data()) / sizeof(Event) - 1;
  }
};
static_assert(sizeof(RouteHeader) == sizeof(Event),
              "Batch::count() counts the header slot as one event");

}  // namespace detail

/// Untyped face of a stream: everything the service core needs to drive
/// an epoch — routing, membership, degradation — without knowing the
/// operator type.
class StreamBase {
 public:
  virtual ~StreamBase() = default;
  StreamBase(const StreamBase&) = delete;
  StreamBase& operator=(const StreamBase&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  /// Service-comm ranks sharding this stream.
  [[nodiscard]] const std::vector<int>& members() const { return members_; }
  /// This rank's shard index, or -1 when it only ingests.
  [[nodiscard]] int my_shard() const { return my_shard_; }
  [[nodiscard]] bool degraded() const { return degraded_; }
  [[nodiscard]] std::uint64_t events_staged() const {
    std::uint64_t n = 0;
    for (const auto& b : batches_) n += b.count();
    return n;
  }

  /// Queues events on this rank for the next epoch.  Each is routed now:
  /// copied once, into the open batch of the member that owns its key (the
  /// caller's storage is not kept).  A custom ShardMap that answers out of
  /// range throws ArgumentError from here.
  void stage(std::span<const Event> events) {
    auto timer = comm_->compute_section();
    shard_.visit([&](const auto& map) { scatter(events, map); });
  }
  /// The one-event case, not timed: its routing — a hash and one 16-byte
  /// copy — costs less than the two CPU-clock reads of a compute section.
  void stage(const Event& e) {
    shard_.visit([&](const auto& map) { scatter(std::span(&e, 1), map); });
  }

 protected:
  StreamBase(std::string name, mprt::Comm& comm, StatCollector& stats,
             std::vector<int> members, ShardMap shard, int route_tag)
      : comm_(&comm),
        stats_(&stats),
        name_(std::move(name)),
        members_(std::move(members)),
        shard_(std::move(shard)),
        route_tag_(route_tag) {
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (members_[i] == comm_->rank()) my_shard_ = static_cast<int>(i);
    }
    batches_.resize(members_.size());
  }

  // The typed hooks Stream<Op> implements.
  virtual void begin_fold() = 0;
  /// Folds the events packed in `events` (sizeof(Event) bytes each, not
  /// necessarily aligned).
  virtual void fold(std::span<const std::byte> events) = 0;
  virtual void merge_and_window() = 0;
  virtual void rotate_merge_tags() = 0;

  mprt::Comm* comm_;
  StatCollector* stats_;

 private:
  friend class Service;

  /// Events a batch reserves when its member got none last epoch: the
  /// header and these fill the pool's smallest size class.
  static constexpr std::size_t kFirstBatchEvents = 63;

  /// One epoch of this stream on this rank.  `sources` are the live
  /// service-comm ranks, ascending — identical on every member, so the
  /// fold order (and therefore the merged state) is deterministic.
  void run_epoch(std::uint64_t epoch, const std::vector<int>& sources) {
    route(epoch);
    if (my_shard_ < 0) return;
    const double t0 = comm_->clock().now();
    begin_fold();
    std::uint64_t folded = 0;
    for (const int src : sources) folded += recv_and_fold(src, epoch);
    merge_and_window();
    stats_->record_epoch(name_, folded, comm_->clock().now() - t0);
  }

  /// Copies each event into its owner's batch.  `map` is picked once per
  /// stage call, so the default HashShard inlines here.
  template <typename Map>
  void scatter(std::span<const Event> events, const Map& map) {
    const int nm = static_cast<int>(batches_.size());
    detail::Batch* const batches = batches_.data();
    for (const Event& e : events) {
      detail::Batch& b = batches[map(e.key, nm)];
      if (b.cur == b.end) [[unlikely]] make_room(b);
      // Advance the cursor before the copy: the copy stores bytes, which
      // may alias the cursor, so an update after it reloads and rewrites
      // the cursor through memory — about 4x slower per event on x86-64.
      std::byte* const at = b.cur;
      b.cur = at + sizeof e;
      std::memcpy(at, &e, sizeof e);
    }
  }

  /// Opens `b` on its first event with a pooled buffer sized from the last
  /// batch sealed for that member, a 32nd to spare; when full, moves its
  /// events to a pooled buffer twice the size and recycles the old one.
  void make_room(detail::Batch& b) {
    const std::size_t staged = b.count();
    const std::size_t room =
        b.cur == nullptr
            ? std::max(b.last_count + b.last_count / 32, kFirstBatchEvents)
            : 2 * staged;
    std::vector<std::byte> buf =
        comm_->acquire_buffer((1 + room) * sizeof(Event));
    buf.resize((1 + room) * sizeof(Event));
    if (staged > 0) {
      std::memcpy(buf.data() + sizeof(Event), b.buf.data() + sizeof(Event),
                  staged * sizeof(Event));
    }
    comm_->recycle_buffer(std::exchange(b.buf, std::move(buf)));
    b.cur = b.buf.data() + (1 + staged) * sizeof(Event);
    b.end = b.buf.data() + b.buf.size();
  }

  /// Closes `b` for `epoch`: trims it to its events and stamps its header.
  /// A batch that never opened stays empty.
  static void seal(detail::Batch& b, std::uint64_t epoch) {
    const std::size_t n = b.count();
    if (b.cur != nullptr) {
      b.buf.resize((1 + n) * sizeof(Event));
      const detail::RouteHeader h{epoch, n};
      std::memcpy(b.buf.data(), &h, sizeof h);
    }
    b.last_count = n;
    b.cur = b.end = nullptr;
  }

  /// Seals every member's batch, this rank's own included, before anything
  /// is sent — so events staged from here on belong to the next epoch even
  /// if this one tears — then sends each other member its batch (an empty
  /// one as a bare header, so receives match deterministically).  The
  /// rank's own batch is not sent: recv_and_fold folds it out of own_, like
  /// collectives special-case the local contribution.
  void route(std::uint64_t epoch) {
    comm_->recycle_buffer(std::exchange(own_, {}));  // a torn epoch's
    for (auto& b : batches_) seal(b, epoch);
    for (std::size_t i = 0; i < batches_.size(); ++i) {
      std::vector<std::byte> buf = std::move(batches_[i].buf);
      if (static_cast<int>(i) == my_shard_) {
        own_ = std::move(buf);
      } else if (buf.empty()) {
        const detail::RouteHeader h{epoch, 0};
        comm_->send_bytes(members_[i], route_tag_,
                          std::as_bytes(std::span(&h, 1)));
      } else {
        comm_->send_bytes(members_[i], route_tag_, std::move(buf));
      }
    }
  }

  /// Drops the events staged since the last route (a retired stream's),
  /// returning their buffers to the pool.
  void drop_staged() {
    for (auto& b : batches_) {
      comm_->recycle_buffer(std::exchange(b.buf, {}));
      b.cur = b.end = nullptr;
    }
    comm_->recycle_buffer(std::exchange(own_, {}));
  }

  /// Receives `src`'s batch for `epoch` and folds it where it lies; the
  /// payload goes back to the pool only after the fold returns.  Batches
  /// from an epoch this stream abandoned (degraded) are discarded; FIFO
  /// per (source, tag) guarantees a newer epoch can never arrive first.
  std::uint64_t recv_and_fold(int src, std::uint64_t epoch) {
    if (src == comm_->rank()) {  // sealed by this epoch's route()
      const std::span<const std::byte> own(own_);
      const auto events =
          own.empty() ? own : own.subspan(sizeof(detail::RouteHeader));
      fold(events);
      comm_->recycle_buffer(std::exchange(own_, {}));
      return events.size() / sizeof(Event);
    }
    for (;;) {
      mprt::Message msg = comm_->recv_message(src, route_tag_);
      const std::span<const std::byte> payload = msg.payload();
      if (payload.size() < sizeof(detail::RouteHeader)) {
        throw ProtocolError("svc: routed batch shorter than its header");
      }
      detail::RouteHeader h;
      std::memcpy(&h, payload.data(), sizeof h);
      if (h.epoch < epoch) {  // leftover of a degraded epoch
        comm_->recycle_buffer(msg.release_storage());
        continue;
      }
      if (h.epoch > epoch ||
          payload.size() != sizeof h + h.count * sizeof(Event)) {
        throw ProtocolError("svc: stream '" + name_ +
                            "' received a malformed batch (epoch " +
                            std::to_string(h.epoch) + ", expected " +
                            std::to_string(epoch) + ")");
      }
      fold(payload.subspan(sizeof h));
      comm_->recycle_buffer(msg.release_storage());
      return h.count;
    }
  }

  [[nodiscard]] bool has_member_global(const std::vector<int>& globals) const {
    const auto& group = comm_->group_global_ranks();
    for (const int m : members_) {
      for (const int g : globals) {
        if (group[static_cast<std::size_t>(m)] == g) return true;
      }
    }
    return false;
  }

  std::string name_;
  std::vector<int> members_;  // service-comm ranks, ascending
  ShardMap shard_;
  int route_tag_ = 0;
  int my_shard_ = -1;
  bool degraded_ = false;
  std::vector<detail::Batch> batches_;  // one per member, open while staging
  std::vector<std::byte> own_;          // this rank's sealed batch
};

/// The typed stream: operator + extract function + window.  Created via
/// Service::add_stream; results are read back through last_window().
template <rs::Combinable Op, typename Extract>
class Stream final : public StreamBase {
 public:
  using In = std::decay_t<std::invoke_result_t<Extract, const Event&>>;
  static_assert(rs::Accumulates<Op, In>,
                "stream operator cannot accumulate the extract's output");

  Stream(std::string name, mprt::Comm& comm, StatCollector& stats,
         std::vector<int> members, ShardMap shard, int route_tag,
         mprt::Comm subcomm, bool is_member, Op prototype, WindowConfig wcfg,
         Extract extract)
      : StreamBase(std::move(name), comm, stats, std::move(members),
                   std::move(shard), route_tag),
        prototype_(std::move(prototype)),
        partial_(prototype_),
        extract_(std::move(extract)),
        subcomm_(std::move(subcomm)) {
    if (is_member) window_.emplace(subcomm_, prototype_, wcfg);
  }

  /// The most recent window emission on this shard (empty between
  /// boundaries and on non-member ranks; identical on every member).
  [[nodiscard]] const std::optional<rs::reduce_result_t<Op>>& last_window()
      const {
    return last_window_;
  }
  [[nodiscard]] std::uint64_t windows_emitted() const {
    return window_.has_value() ? window_->windows_emitted() : 0;
  }
  [[nodiscard]] const std::optional<WindowedStream<Op>>& window() const {
    return window_;
  }

 private:
  void begin_fold() override {
    partial_ = prototype_;
    saw_input_ = false;
    last_in_.reset();
  }

  void fold(std::span<const std::byte> events) override {
    const std::size_t n = events.size() / sizeof(Event);
    if (n == 0) return;
    // The bytes are a batch's payload, not Event objects.
    const auto event = [data = events.data()](std::size_t i) {
      return bytes::load_unaligned<Event>(data + i * sizeof(Event));
    };
    // Extract + accumulate through the worker pool (serial unless
    // RSMPI_LOCAL_THREADS > 1; par::accumulate_indexed owns the clock
    // charge and stays off the comm buffers, so the warm path remains
    // zero-allocation on the messaging side).  The epoch may arrive as
    // several batches, so the pre hook fires only on the first batch's
    // first event and the post hook is deferred to merge_and_window.
    const bool first_batch = !saw_input_;
    saw_input_ = true;
    par::accumulate_indexed(
        *comm(), partial_, prototype_, n,
        [&](std::size_t i) { return extract_(event(i)); },
        /*fire_pre=*/first_batch, /*fire_post=*/false);
    if constexpr (rs::HasPostAccum<Op, In>) {
      // Only operators that observe the last element pay the copy
      // (previously copied once per event, now once per batch).
      last_in_ = extract_(event(n - 1));
    }
  }

  void merge_and_window() override {
    if (saw_input_ && last_in_.has_value()) {
      rs::post_accum_if(partial_, *last_in_);
    }
    last_window_ = window_->push_state(std::move(partial_));
    partial_ = prototype_;
    if (last_window_.has_value()) stats()->record_window(name());
  }

  void rotate_merge_tags() override {
    if (window_.has_value()) window_->rotate_merge_tags();
  }

  [[nodiscard]] mprt::Comm* comm() { return StreamBase::comm_; }
  [[nodiscard]] StatCollector* stats() { return StreamBase::stats_; }

  Op prototype_;
  Op partial_;
  Extract extract_;
  bool saw_input_ = false;
  std::optional<In> last_in_;
  mprt::Comm subcomm_;  // members: the stream's merge group; others: unused
  std::optional<WindowedStream<Op>> window_;  // members only
  std::optional<rs::reduce_result_t<Op>> last_window_;
};

/// The service core: stream registry, epoch driver, loss handling, stats.
/// Construction and add_stream are collective over `comm` (every rank
/// calls them identically, like communicator splits); step_epoch is
/// likewise called once per epoch on every rank.
class Service {
 public:
  explicit Service(mprt::Comm& comm, ServiceConfig cfg = {})
      : comm_(&comm), cfg_(cfg) {
    live_sources_.resize(static_cast<std::size_t>(comm.size()));
    for (int r = 0; r < comm.size(); ++r) {
      live_sources_[static_cast<std::size_t>(r)] = r;
    }
    comm_->set_peer_loss_scope(comm_->group_global_ranks());
    if (cfg_.install_deadline) comm_->set_recv_deadline(cfg_.deadline);
  }

  ~Service() {
    comm_->set_peer_loss_scope(std::nullopt);
    if (cfg_.install_deadline) comm_->set_recv_deadline(std::nullopt);
  }

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Registers a stream sharded over `members` (service-comm ranks,
  /// strictly ascending).  Collective: every rank must call with the same
  /// arguments in the same order.  All planning happens here — the
  /// subcommunicator split, the persistent-merge plan (autotuner, tags,
  /// buffer priming), and the routing-tag reservation.
  template <rs::Combinable Op, typename Extract>
  Stream<Op, Extract>& add_stream(std::string name, std::vector<int> members,
                                  Op prototype, Extract extract,
                                  WindowConfig wcfg = {},
                                  ShardMap shard = {}) {
    if (members.empty()) {
      throw ArgumentError("add_stream: stream '" + name + "' has no shards");
    }
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (members[i] < 0 || members[i] >= comm_->size() ||
          (i > 0 && members[i] <= members[i - 1])) {
        throw ArgumentError("add_stream: members of stream '" + name +
                            "' must be strictly ascending ranks of the "
                            "service communicator");
      }
    }
    const int route_tag = comm_->reserve_tag_block(1).first_tag;
    // Staging holds one batch buffer open per member of every stream, and
    // they all come back to the pool each epoch, often in one size class;
    // retain enough that the warm path never re-allocates.
    open_batches_ += members.size();
    comm_->reserve_pool_capacity(open_batches_ +
                                 coll::kPersistentPrimedBuffers);
    bool is_member = false;
    for (const int m : members) is_member = is_member || (m == comm_->rank());
    mprt::Comm sub = comm_->split(is_member ? 1 : 0, comm_->rank());
    auto stream = std::make_unique<Stream<Op, Extract>>(
        std::move(name), *comm_, stats_, std::move(members), std::move(shard),
        route_tag, std::move(sub), is_member, std::move(prototype), wcfg,
        std::move(extract));
    Stream<Op, Extract>& ref = *stream;
    streams_.push_back(std::move(stream));
    return ref;
  }

  /// Runs one epoch of every stream, in registration order.  A stream
  /// whose epoch fails degrades alone: a dead shard retires its streams
  /// permanently, a transient fault (timeout, lost ingester) costs the
  /// stream one epoch.
  void step_epoch() {
    epoch_ += 1;
    for (auto& s : streams_) {
      if (s->degraded_) {
        s->drop_staged();
        continue;
      }
      try {
        s->run_epoch(epoch_, live_sources_);
      } catch (const PeerLostError&) {
        absorb_losses();
        note_degraded_epoch(*s);
      } catch (const TimeoutError&) {
        note_degraded_epoch(*s);
      }
    }
  }

  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] StatCollector& stats() { return stats_; }
  [[nodiscard]] const StatCollector& stats() const { return stats_; }
  [[nodiscard]] const std::vector<int>& live_sources() const {
    return live_sources_;
  }

  /// Publishes the collector's totals into RunResult::user_stats.
  void publish() { stats_.publish(*comm_); }

  /// JSON stat dump for this rank (see docs/service.md for the schema).
  [[nodiscard]] std::string stats_json() const {
    return stats_.to_json(*comm_);
  }

 private:
  /// Folds newly-discovered dead ranks into the routing sources, narrows
  /// the loss scope so the known-dead stop poisoning receives, and
  /// retires every stream the dead ranks sharded.
  void absorb_losses() {
    const std::vector<int> lost = comm_->lost_peers();
    std::vector<int> fresh;
    for (const int g : lost) {
      bool known = false;
      for (const int d : dead_global_) known = known || (d == g);
      if (!known) fresh.push_back(g);
    }
    if (fresh.empty()) return;
    dead_global_.insert(dead_global_.end(), fresh.begin(), fresh.end());

    const auto& group = comm_->group_global_ranks();
    live_sources_.clear();
    std::vector<int> live_globals;
    for (int r = 0; r < comm_->size(); ++r) {
      const int g = group[static_cast<std::size_t>(r)];
      bool dead = false;
      for (const int d : dead_global_) dead = dead || (d == g);
      if (!dead) {
        live_sources_.push_back(r);
        live_globals.push_back(g);
      }
    }
    comm_->set_peer_loss_scope(std::move(live_globals));

    for (auto& s : streams_) {
      if (!s->degraded_ && s->has_member_global(dead_global_)) {
        s->degraded_ = true;
        stats_.record_stream_degraded(s->name());
      }
    }
  }

  /// A torn (but survivable) epoch: count it and rotate the merge tags so
  /// the abandoned collective's messages can never match a later epoch.
  void note_degraded_epoch(StreamBase& s) {
    if (s.degraded_) return;  // retired by absorb_losses; no more epochs
    stats_.record_degraded_epoch(s.name());
    if (s.my_shard() >= 0) s.rotate_merge_tags();
  }

  mprt::Comm* comm_;
  ServiceConfig cfg_;
  StatCollector stats_;
  std::vector<std::unique_ptr<StreamBase>> streams_;
  std::vector<int> live_sources_;  // service-comm ranks still alive
  std::vector<int> dead_global_;   // global ranks known dead
  std::size_t open_batches_ = 0;   // members summed over every stream
  std::uint64_t epoch_ = 0;
};

}  // namespace rsmpi::svc
