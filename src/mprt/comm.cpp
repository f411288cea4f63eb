#include "mprt/comm.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "mprt/runtime.hpp"
#include "mprt/scheduler.hpp"

namespace rsmpi::mprt {

namespace {

/// splitmix64 finalizer: mixes (parent context, split sequence, color) into
/// a fresh context id.  All members of a split compute the same inputs, so
/// they agree on the id without communication; distinct (parent, seq,
/// color) triples collide with negligible probability in 63 bits.
std::int64_t derive_context(std::int64_t parent, int split_seq, int color) {
  std::uint64_t z = static_cast<std::uint64_t>(parent) * 0x9E3779B97F4A7C15ULL;
  z ^= static_cast<std::uint64_t>(split_seq) + 0xBF58476D1CE4E5B9ULL +
       (z << 6) + (z >> 2);
  z *= 0x94D049BB133111EBULL;
  z ^= static_cast<std::uint64_t>(color) + 0x2545F4914F6CDD1DULL + (z << 16);
  z ^= z >> 31;
  z *= 0xD6E8FEB86659FD93ULL;
  z ^= z >> 27;
  // Keep it positive and never 0 (the world context).
  const auto ctx = static_cast<std::int64_t>(z >> 1);
  return ctx == 0 ? 1 : ctx;
}

}  // namespace

Comm::Comm(Runtime& runtime, int global_rank)
    : runtime_(runtime),
      state_(&runtime.rank_state(global_rank)),
      global_rank_(global_rank),
      context_(0),
      group_(static_cast<std::size_t>(runtime.size())),
      group_rank_(global_rank) {
  std::iota(group_.begin(), group_.end(), 0);
}

Comm::Comm(Runtime& runtime, int global_rank, std::int64_t context,
           std::vector<int> group, int group_rank)
    : runtime_(runtime),
      state_(&runtime.rank_state(global_rank)),
      global_rank_(global_rank),
      context_(context),
      group_(std::move(group)),
      group_rank_(group_rank) {}

const CostModel& Comm::cost_model() const { return runtime_.cost_model(); }

namespace {

void check_dest(int dest, int size, int self) {
  if (dest < 0 || dest >= size) {
    throw ArgumentError("send_bytes: destination rank " +
                        std::to_string(dest) + " out of range [0, " +
                        std::to_string(size) + ")");
  }
  if (dest == self) {
    throw ArgumentError("send_bytes: self-sends are not supported; "
                        "collectives special-case the local contribution");
  }
}

}  // namespace

void Comm::chaos_pre_send() {
  if (ChaosController* chaos = runtime_.chaos()) {
    // May throw RankKilledError; the skew models this rank computing
    // slower than its peers, shifting every downstream arrival.
    state_->clock.advance(chaos->pre_send(global_rank_));
  }
}

void Comm::deliver(int dest, Message&& msg) {
  msg.seq = ++state_->sent_seqs[{context_, dest}];
  Mailbox& box = runtime_.mailbox(group_[static_cast<std::size_t>(dest)]);
  ChaosController* chaos = runtime_.chaos();
  if (chaos == nullptr) {
    box.put(std::move(msg));
    return;
  }
  DeliveryFault fault = chaos->on_message(global_rank_);
  msg.arrival_vtime_s += fault.extra_delay_s;
  if (fault.drop) {
    box.note_lost(msg);
    return;
  }
  if (fault.duplicate) {
    Message copy = msg;
    copy.arrival_vtime_s += fault.duplicate_delay_s;
    box.put(std::move(copy));
  }
  box.put(std::move(msg), fault.reorder_front);
}

void Comm::charge_send(int dest_global, std::size_t nbytes) {
  const CostModel& m = cost_model();
  state_->clock.advance(m.send_overhead_between(global_rank_, dest_global));
  if (m.two_tier()) {
    if (m.same_node(global_rank_, dest_global)) {
      state_->metrics.add(Metric::kIntraNodeBytes, nbytes);
    } else {
      state_->metrics.add(Metric::kInterNodeBytes, nbytes);
    }
  }
}

void Comm::send_bytes(int dest, int tag, std::span<const std::byte> payload) {
  check_dest(dest, size(), group_rank_);
  chaos_pre_send();
  const CostModel& m = cost_model();
  const int dest_global = group_[static_cast<std::size_t>(dest)];
  charge_send(dest_global, payload.size());
  if (payload.size() > Message::kInlineCapacity) {
    // The copy into a fresh heap buffer is the cost the move-based
    // overload exists to avoid; count it, and charge it *before* stamping
    // the arrival time — the payload cannot hit the wire until copied.
    state_->metrics.add(Metric::kPayloadAllocs);
    state_->metrics.add(Metric::kPayloadCopies);
    state_->clock.advance(static_cast<double>(payload.size()) *
                          m.copy_per_byte_s);
  }

  Message msg;
  msg.context = context_;
  msg.source = group_rank_;
  msg.tag = tag;
  msg.arrival_vtime_s = stamp_arrival(dest_global, payload.size());
  if (msg.assign_payload(payload)) {
    state_->metrics.add(Metric::kSendsInline);
  }

  state_->metrics.add(Metric::kMessagesSent);
  state_->metrics.add(Metric::kBytesSent, payload.size());
  deliver(dest, std::move(msg));
}

void Comm::send_bytes(int dest, int tag, std::vector<std::byte>&& payload) {
  check_dest(dest, size(), group_rank_);
  chaos_pre_send();
  const int dest_global = group_[static_cast<std::size_t>(dest)];
  charge_send(dest_global, payload.size());

  Message msg;
  msg.context = context_;
  msg.source = group_rank_;
  msg.tag = tag;
  msg.arrival_vtime_s = stamp_arrival(dest_global, payload.size());
  const std::size_t nbytes = payload.size();
  std::vector<std::byte> leftover = msg.adopt_payload(std::move(payload));
  if (nbytes <= Message::kInlineCapacity) {
    state_->metrics.add(Metric::kSendsInline);
    // The caller's buffer was not adopted; keep its capacity in our pool.
    state_->pool.release(std::move(leftover), state_->metrics);
  } else {
    state_->metrics.add(Metric::kSendsMoved);
  }

  state_->metrics.add(Metric::kMessagesSent);
  state_->metrics.add(Metric::kBytesSent, nbytes);
  deliver(dest, std::move(msg));
}

std::vector<std::byte> Comm::acquire_buffer(std::size_t reserve_bytes) {
  return state_->pool.acquire(reserve_bytes, state_->metrics);
}

Message Comm::take_blocking(int source, int tag) {
  Mailbox& box = runtime_.mailbox(global_rank_);
  const std::optional<RecvDeadline>& deadline = state_->recv_deadline;
  if (!deadline.has_value()) return box.take(context_, source, tag);

  // Wait in slices that grow by the backoff factor and sum to the total
  // budget: slice0 * (1 + b + b^2 + ...) = timeout.  Expiring slices are
  // counted so tests can see the retries happen.
  const int retries = std::max(1, deadline->retries);
  const double b = std::max(1.0, deadline->backoff);
  double slice = b == 1.0 ? deadline->timeout_s / retries
                          : deadline->timeout_s * (b - 1.0) /
                                (std::pow(b, retries) - 1.0);
  for (int attempt = 0; attempt < retries; ++attempt) {
    auto msg = box.take_for(context_, source, tag, slice);
    if (msg.has_value()) return std::move(*msg);
    state_->metrics.add(Metric::kRecvRetries);
    slice *= b;
  }
  box.forget_lost(context_, source, tag);  // the loss is reported here
  throw TimeoutError(
      "recv: no message from " +
      (source == kAnySource ? std::string("any source")
                            : "rank " + std::to_string(source)) +
      (tag == kAnyTag ? std::string(", any tag")
                      : ", tag " + std::to_string(tag)) +
      " within " + std::to_string(deadline->timeout_s) + "s (" +
      std::to_string(retries) + " backoff slices); message dropped or "
      "sender stalled");
}

Message Comm::take_message(int source, int tag) {
  if (source != kAnySource && (source < 0 || source >= size())) {
    throw ArgumentError("recv_message: source rank " + std::to_string(source) +
                        " out of range [0, " + std::to_string(size()) + ")");
  }
  Message msg = take_blocking(source, tag);
  state_->metrics.add(Metric::kMessagesReceived);
  state_->metrics.add(Metric::kBytesReceived, msg.payload_size());
  return msg;
}

double Comm::stamp_arrival(int dest_global, std::size_t nbytes) {
  const CostModel& m = cost_model();
  const double depart = state_->clock.inject(
      m.same_node(global_rank_, dest_global),
      m.port_time_between(global_rank_, dest_global, nbytes));
  return depart + m.wire_time_between(global_rank_, dest_global, nbytes);
}

void Comm::charge_receive(const Message& msg) {
  // The message stamps its sender's group rank; resolve to a global rank so
  // the tier decision matches the sender's (both key on global ranks).
  const CostModel& m = cost_model();
  const int source = group_[static_cast<std::size_t>(msg.source)];
  state_->clock.merge(state_->clock.eject(
      m.same_node(global_rank_, source), msg.arrival_vtime_s,
      m.port_time_between(global_rank_, source, msg.payload_size())));
  state_->clock.advance(m.recv_overhead_between(global_rank_, source));
}

Metrics Comm::metrics() const { return runtime_.metrics(global_rank_); }

ScheduleOracle* Comm::schedule_oracle() const {
  if (ChaosController* chaos = runtime_.chaos()) return chaos->oracle();
  return nullptr;
}

std::uint64_t Comm::mail_events() const {
  return runtime_.mailbox(global_rank_).event_count();
}

void Comm::idle_wait(std::uint64_t seen_events,
                     std::chrono::steady_clock::time_point deadline) {
  runtime_.mailbox(global_rank_).idle_wait(seen_events, deadline);
}

void Comm::yield_rank() { runtime_.mailbox(global_rank_).yield_owner(); }

void Comm::set_peer_loss_scope(std::optional<std::vector<int>> global_ranks) {
  runtime_.mailbox(global_rank_).set_peer_loss_scope(std::move(global_ranks));
}

std::vector<int> Comm::lost_peers() const {
  return runtime_.mailbox(global_rank_).lost_peers();
}

bool Comm::probe(int source, int tag) {
  return runtime_.mailbox(global_rank_).probe(context_, source, tag);
}

std::optional<Message> Comm::try_recv_message(int source, int tag) {
  if (source != kAnySource && (source < 0 || source >= size())) {
    throw ArgumentError("try_recv_message: source rank " +
                        std::to_string(source) + " out of range [0, " +
                        std::to_string(size()) + ")");
  }
  auto msg = runtime_.mailbox(global_rank_).try_take(context_, source, tag);
  if (msg.has_value()) {
    state_->metrics.add(Metric::kMessagesReceived);
    state_->metrics.add(Metric::kBytesReceived, msg->payload_size());
    charge_receive(*msg);
  }
  return msg;
}

Comm Comm::split(int color, int key) {
  if (color < 0) {
    throw ArgumentError("split: color must be non-negative");
  }
  const int p = size();
  const int tag = next_collective_tag();

  // Full exchange of (color, key) within this communicator.  O(p^2)
  // messages, but split is a rare setup operation and the simple schedule
  // keeps it correct on any group shape.
  struct Entry {
    int color;
    int key;
  };
  const Entry mine{color, key};
  for (int r = 0; r < p; ++r) {
    if (r != group_rank_) send(r, tag, mine);
  }
  // members: (key, parent rank, global rank) of everyone sharing my color.
  struct Member {
    int key;
    int parent_rank;
    int global;
  };
  std::vector<Member> members;
  members.push_back({key, group_rank_, global_rank_});
  for (int r = 0; r < p; ++r) {
    if (r == group_rank_) continue;
    const Entry e = recv<Entry>(r, tag);
    if (e.color == color) {
      members.push_back({e.key, r, group_[static_cast<std::size_t>(r)]});
    }
  }
  std::sort(members.begin(), members.end(),
            [](const Member& a, const Member& b) {
              if (a.key != b.key) return a.key < b.key;
              return a.parent_rank < b.parent_rank;
            });

  std::vector<int> new_group;
  new_group.reserve(members.size());
  int my_new_rank = -1;
  for (std::size_t i = 0; i < members.size(); ++i) {
    new_group.push_back(members[i].global);
    if (members[i].global == global_rank_) {
      my_new_rank = static_cast<int>(i);
    }
  }

  const std::int64_t ctx = derive_context(context_, split_seq_, color);
  ++split_seq_;
  return Comm(runtime_, global_rank_, ctx, std::move(new_group), my_new_rank);
}

}  // namespace rsmpi::mprt
