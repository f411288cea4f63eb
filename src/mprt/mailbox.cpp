#include "mprt/mailbox.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace rsmpi::mprt {

namespace {

bool matches(const Message& m, std::int64_t context, int source, int tag) {
  return m.context == context &&
         ((source == kAnySource) || (m.source == source)) &&
         ((tag == kAnyTag) || (m.tag == tag));
}

/// True when queued message `a` (at index ia) must be delivered before
/// `b` (at index ib) of the same stream: by sequence number when both are
/// sequenced, by queue position otherwise (legacy unsequenced messages).
bool precedes(const Message& a, std::size_t ia, const Message& b,
              std::size_t ib) {
  if (a.seq != 0 && b.seq != 0) return a.seq < b.seq;
  return ia < ib;
}

/// lower_bound comparator over DeliveredSeqs ranges: finds the first range
/// ending at or after a sequence number.
constexpr auto kEndsBefore = [](const auto& range, std::uint64_t seq) {
  return range.last < seq;
};

}  // namespace

bool Mailbox::DeliveredSeqs::contains(std::uint64_t seq) const {
  const auto it =
      std::lower_bound(ranges_.begin(), ranges_.end(), seq, kEndsBefore);
  return it != ranges_.end() && it->first <= seq;
}

void Mailbox::DeliveredSeqs::insert(std::uint64_t seq) {
  // The common case: the channel's next number in send order.
  if (!ranges_.empty() && ranges_.back().last + 1 == seq) {
    ranges_.back().last = seq;
    return;
  }
  const auto next =
      std::lower_bound(ranges_.begin(), ranges_.end(), seq, kEndsBefore);
  if (next != ranges_.end() && next->first <= seq) return;  // already held
  const bool joins_next = next != ranges_.end() && next->first == seq + 1;
  const bool joins_prev =
      next != ranges_.begin() && std::prev(next)->last + 1 == seq;
  if (joins_prev && joins_next) {
    std::prev(next)->last = next->last;  // seq filled the hole between them
    ranges_.erase(next);
  } else if (joins_prev) {
    std::prev(next)->last = seq;
  } else if (joins_next) {
    next->first = seq;
  } else {
    ranges_.insert(next, Range{seq, seq});
  }
}

void Mailbox::put(Message msg, bool front) {
  {
    std::lock_guard lock(mutex_);
    ++events_;
    if (front) {
      queue_.push_front(std::move(msg));
    } else {
      queue_.push_back(std::move(msg));
    }
  }
  // The owner may be woken by a non-matching message; it re-checks.
  if (waiter_ != nullptr) waiter_->wake();
}

std::size_t Mailbox::select_locked(std::int64_t context, int source,
                                   int tag) {
  // Under deterministic wildcard selection, a pattern several streams
  // satisfy is resolved by canonical (source, seq) order instead of by the
  // racy physical put order, so a model-checker trace replays exactly.
  const bool canonical = deterministic_wildcard_ &&
                         (source == kAnySource || tag == kAnyTag);
  std::size_t best = npos;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const Message& m = queue_[i];
    if (!matches(m, context, source, tag)) continue;
    // A duplicate of an already-delivered sequence number is purged on
    // sight — at-most-once delivery — and the scan restarts because the
    // erase shifted indices.
    if (m.seq != 0) {
      const auto it = delivered_.find({m.context, m.source});
      if (it != delivered_.end() && it->second.contains(m.seq)) {
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
        ++duplicates_suppressed_;
        i = npos;     // restart (loop increment wraps npos to 0)
        best = npos;  // the erase shifted any candidate index
        continue;
      }
    }
    // Non-overtaking: the message is only eligible if it is the head of
    // its stream — no other queued message of the stream precedes it,
    // and none that precedes it was lost.
    if (!lost_.empty()) {
      const auto it = lost_.find({m.context, m.source, m.tag});
      if (it != lost_.end() && it->second < m.seq) continue;
    }
    bool blocked = false;
    for (std::size_t j = 0; j < queue_.size(); ++j) {
      if (j == i) continue;
      const Message& other = queue_[j];
      if (other.context == m.context && other.source == m.source &&
          other.tag == m.tag && precedes(other, j, m, i)) {
        blocked = true;
        break;
      }
    }
    if (blocked) continue;
    if (!canonical) return i;
    if (best == npos ||
        std::pair(m.source, m.seq) <
            std::pair(queue_[best].source, queue_[best].seq)) {
      best = i;
    }
  }
  return best;
}

Message Mailbox::remove_locked(std::size_t idx) {
  Message msg = std::move(queue_[idx]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(idx));
  if (msg.seq != 0) delivered_[{msg.context, msg.source}].insert(msg.seq);
  return msg;
}

int Mailbox::relevant_lost_locked() const {
  for (const int peer : lost_peers_) {
    if (!loss_scope_.has_value()) return peer;
    for (const int scoped : *loss_scope_) {
      if (scoped == peer) return peer;
    }
  }
  return -1;
}

void Mailbox::throw_if_dead_locked(bool have_match) const {
  if (aborted_) {
    throw AbortError("mailbox: runtime aborted while waiting for message");
  }
  const int lost = relevant_lost_locked();
  if (!have_match && lost >= 0) {
    throw PeerLostError("mailbox: rank " + std::to_string(lost) +
                        " exited while this rank was waiting for a message");
  }
}

void Mailbox::wait_for_event_locked(
    std::unique_lock<std::mutex>& lock,
    const std::chrono::steady_clock::time_point* deadline, const char* what) {
  if (waiter_ == nullptr) {
    throw Error(std::string("mailbox: nothing queued and no rank waiter to "
                            "park while ") +
                what + " (only run() bodies may block)");
  }
  if (waiter_->deadlock_declared()) {
    throw DeadlockError(
        std::string("mailbox: every live rank is parked with no deliverable "
                    "message (global deadlock detected by the scheduler "
                    "while ") +
        what + ")");
  }
  // The park may return spuriously (deadline, deadlock wake, stale
  // notify); the caller's loop re-checks its predicate, and re-entering
  // here converts a deadlock declaration into the throw above.
  waiter_->park(lock, deadline);
}

void Mailbox::wait_for_match_locked(
    std::unique_lock<std::mutex>& lock,
    const std::chrono::steady_clock::time_point* deadline,
    std::int64_t context, int source, int tag) {
  try {
    wait_for_event_locked(lock, deadline, "waiting for a message");
  } catch (const DeadlockError&) {
    forget_lost_locked(context, source, tag);  // thrown with the lock held
    throw;
  }
}

Message Mailbox::take(std::int64_t context, int source, int tag) {
  std::unique_lock lock(mutex_);
  for (;;) {
    const std::size_t idx =
        aborted_ ? npos : select_locked(context, source, tag);
    if (aborted_ || relevant_lost_locked() >= 0) {
      // A match that is already queued is still deliverable even when a
      // (different) peer died; abort and matchless loss throw here.
      throw_if_dead_locked(idx != npos);
      return remove_locked(idx);
    }
    if (idx != npos) return remove_locked(idx);
    wait_for_match_locked(lock, nullptr, context, source, tag);
  }
}

std::optional<Message> Mailbox::take_for(std::int64_t context, int source,
                                         int tag, double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(timeout_s));
  std::unique_lock lock(mutex_);
  for (;;) {
    const std::size_t idx =
        aborted_ ? npos : select_locked(context, source, tag);
    if (aborted_ || relevant_lost_locked() >= 0) {
      throw_if_dead_locked(idx != npos);
      return remove_locked(idx);
    }
    if (idx != npos) return remove_locked(idx);
    if (std::chrono::steady_clock::now() >= deadline) return std::nullopt;
    wait_for_match_locked(lock, &deadline, context, source, tag);
  }
}

std::optional<Message> Mailbox::try_take(std::int64_t context, int source,
                                         int tag) {
  {
    std::lock_guard lock(mutex_);
    const std::size_t idx = select_locked(context, source, tag);
    throw_if_dead_locked(idx != npos);
    if (idx != npos) return remove_locked(idx);
  }
  yield_owner();
  return std::nullopt;
}

bool Mailbox::probe(std::int64_t context, int source, int tag) {
  {
    std::lock_guard lock(mutex_);
    if (select_locked(context, source, tag) != npos) return true;
  }
  yield_owner();
  return false;
}

void Mailbox::note_lost(const Message& msg) {
  std::lock_guard lock(mutex_);
  const auto [it, inserted] =
      lost_.try_emplace({msg.context, msg.source, msg.tag}, msg.seq);
  if (!inserted && msg.seq < it->second) it->second = msg.seq;
}

void Mailbox::forget_lost(std::int64_t context, int source, int tag) {
  std::lock_guard lock(mutex_);
  forget_lost_locked(context, source, tag);
}

void Mailbox::forget_lost_locked(std::int64_t context, int source, int tag) {
  std::erase_if(lost_, [&](const auto& entry) {
    const auto& [c, s, t] = entry.first;
    return c == context && (source == kAnySource || s == source) &&
           (tag == kAnyTag || t == tag);
  });
}

std::size_t Mailbox::pending() const {
  std::lock_guard lock(mutex_);
  return queue_.size();
}

std::uint64_t Mailbox::duplicates_suppressed() const {
  std::lock_guard lock(mutex_);
  return duplicates_suppressed_;
}

std::size_t Mailbox::delivered_ranges() const {
  std::lock_guard lock(mutex_);
  std::size_t n = 0;
  for (const auto& [channel, seqs] : delivered_) n += seqs.ranges();
  return n;
}

void Mailbox::abort() {
  {
    std::lock_guard lock(mutex_);
    aborted_ = true;
    ++events_;
  }
  if (waiter_ != nullptr) waiter_->wake();
}

void Mailbox::notify_peer_lost(int global_rank) {
  {
    std::lock_guard lock(mutex_);
    bool known = false;
    for (const int peer : lost_peers_) known = known || (peer == global_rank);
    if (!known) lost_peers_.push_back(global_rank);
    ++events_;
  }
  if (waiter_ != nullptr) waiter_->wake();
}

std::uint64_t Mailbox::event_count() const {
  std::lock_guard lock(mutex_);
  return events_;
}

void Mailbox::idle_wait(std::uint64_t seen_events,
                        std::chrono::steady_clock::time_point deadline) {
  // `seen_events` predates the caller's fruitless progress pass, so a newer
  // event means a message may have arrived mid-pass: return and let the
  // caller poll again rather than park on stale information.
  const bool timed = deadline != std::chrono::steady_clock::time_point::max();
  std::unique_lock lock(mutex_);
  for (;;) {
    if (aborted_) {
      throw AbortError("mailbox: runtime aborted while waiting for progress");
    }
    if (events_ != seen_events) return;
    if (timed && std::chrono::steady_clock::now() >= deadline) return;
    wait_for_event_locked(lock, timed ? &deadline : nullptr,
                          "polling nonblocking operations");
  }
}

std::vector<int> Mailbox::lost_peers() const {
  std::lock_guard lock(mutex_);
  return lost_peers_;
}

void Mailbox::set_peer_loss_scope(std::optional<std::vector<int>> global_ranks) {
  {
    std::lock_guard lock(mutex_);
    loss_scope_ = std::move(global_ranks);
  }
  // Widening the scope can make a previously-ignored loss relevant to a
  // blocked take (not the normal usage — the owner sets its own scope while
  // not blocked — but the wake keeps the primitive safe either way).
  if (waiter_ != nullptr) waiter_->wake();
}

}  // namespace rsmpi::mprt
