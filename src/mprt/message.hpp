// In-flight message representation for the rsmpi runtime.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

namespace rsmpi::mprt {

/// Wildcards for receive matching, mirroring MPI_ANY_SOURCE / MPI_ANY_TAG.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// One direction of traffic on one communicator context, named from one
/// end: `peer` is the destination rank at the sender and the source rank at
/// the receiver (both ranks within the context's group).  Messages are
/// numbered, and duplicates suppressed, per channel.
struct Channel {
  std::int64_t context = 0;
  int peer = 0;
  bool operator==(const Channel&) const = default;
};

struct ChannelHash {
  std::size_t operator()(const Channel& c) const {
    std::uint64_t h = static_cast<std::uint64_t>(c.context) * 0x9E3779B97F4A7C15ULL;
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.peer));
    h *= 0xC2B2AE3D27D4EB4FULL;
    return static_cast<std::size_t>(h ^ (h >> 29));
  }
};

/// One message in flight between two ranks.
///
/// `context` identifies the communicator the message was sent on (MPI's
/// communicator-context mechanism): receives only ever match messages of
/// their own communicator, so point-to-point traffic and collectives on a
/// subcommunicator can never be confused with the parent's.  `source` is
/// the sender's rank *within that communicator*.  `arrival_vtime_s` is the
/// virtual time at which the payload becomes available at the receiver
/// (sender clock at send + modelled wire time); the receiver merges it
/// into its own clock on matching.
///
/// Payload storage has two representations: payloads up to
/// kInlineCapacity bytes live inside the Message itself (no heap
/// allocation on either side — the common case for small trivially
/// copyable operator states like mink<double>), larger ones live in a
/// heap buffer that can be *adopted* from the sender without copying and
/// *released* by the receiver into its buffer pool for reuse.
class Message {
 public:
  /// Payloads at or below this size are stored inline (allocation-free).
  static constexpr std::size_t kInlineCapacity = 64;

  std::int64_t context = 0;
  int source = 0;
  int tag = 0;
  double arrival_vtime_s = 0.0;
  /// Per-channel sequence number: a sender numbers its messages to each
  /// Channel 1, 2, 3, ... in send order, so the number is also strictly
  /// increasing along every (context, source, tag) stream.  The mailbox
  /// orders same-stream receives by it and delivers each number of a
  /// channel at most once, so physically reordered or duplicated
  /// deliveries — injected by a fault plan, or arising from the async
  /// engine's replay — are invisible above the mailbox.  0 means
  /// "unsequenced" (messages built directly in tests): those keep the
  /// legacy queue-position order and bypass duplicate suppression.
  std::uint64_t seq = 0;

  Message() = default;

  /// Copies `data` in: inline when it fits, otherwise into a fresh heap
  /// buffer.  Returns true when the payload was stored inline.
  bool assign_payload(std::span<const std::byte> data) {
    if (data.size() <= kInlineCapacity) {
      inline_size_ = data.size();
      if (!data.empty()) {
        std::memcpy(inline_buf_.data(), data.data(), data.size());
      }
      heap_.clear();
      return true;
    }
    inline_size_ = npos;
    heap_.assign(data.begin(), data.end());
    return false;
  }

  /// Takes ownership of an already-filled buffer without copying.  Small
  /// payloads are still demoted to inline storage so the (possibly pooled)
  /// buffer can be handed back to the caller for reuse; the return value
  /// is the buffer if it was not adopted, empty otherwise.
  std::vector<std::byte> adopt_payload(std::vector<std::byte>&& data) {
    if (data.size() <= kInlineCapacity) {
      inline_size_ = data.size();
      if (!data.empty()) {
        std::memcpy(inline_buf_.data(), data.data(), data.size());
      }
      heap_.clear();
      return std::move(data);  // caller may recycle it
    }
    inline_size_ = npos;
    heap_ = std::move(data);
    return {};
  }

  /// Read-only view of the payload, wherever it lives.
  [[nodiscard]] std::span<const std::byte> payload() const {
    if (inline_size_ != npos) {
      return std::span<const std::byte>(inline_buf_.data(), inline_size_);
    }
    return heap_;
  }

  [[nodiscard]] std::size_t payload_size() const {
    return inline_size_ != npos ? inline_size_ : heap_.size();
  }

  /// True when the payload is stored inside the Message (no heap buffer).
  [[nodiscard]] bool payload_inline() const { return inline_size_ != npos; }

  /// Moves the payload out as an owning vector.  Inline payloads are
  /// copied into a fresh vector (they are at most kInlineCapacity bytes);
  /// heap payloads are moved without copying.
  [[nodiscard]] std::vector<std::byte> take_payload() {
    if (inline_size_ != npos) {
      std::vector<std::byte> out(inline_buf_.begin(),
                                 inline_buf_.begin() +
                                     static_cast<std::ptrdiff_t>(inline_size_));
      inline_size_ = 0;
      return out;
    }
    return std::move(heap_);
  }

  /// Relinquishes the heap buffer (empty for inline payloads) so the
  /// receiver can recycle it through its buffer pool once the payload has
  /// been consumed.  The message must not be read afterwards.
  [[nodiscard]] std::vector<std::byte> release_storage() {
    if (inline_size_ != npos) return {};
    return std::move(heap_);
  }

 private:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  // inline_size_ == npos means "payload lives in heap_".
  std::size_t inline_size_ = 0;
  std::array<std::byte, kInlineCapacity> inline_buf_;
  std::vector<std::byte> heap_;
};

}  // namespace rsmpi::mprt
