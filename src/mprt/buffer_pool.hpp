// Per-rank freelist of payload buffers for the zero-copy message path.
//
// A rank acquires a buffer from its own pool before serializing an
// operator state, the move-based Comm::send_bytes hands the filled buffer
// to the receiver's mailbox without copying, and the *receiver* releases
// the buffer into its own pool once the payload is consumed.  Buffers
// therefore migrate between ranks, but acquire/release are always called
// from the owning rank's thread (the pool lives in RankState, which is
// only touched from that thread), so no locking is needed here — the
// cross-thread handoff is synchronized by the mailbox's mutex.
//
// Segmented schedules circulate many small chunk buffers next to
// occasional whole-state ones, so the pool keeps size-class bins (powers
// of two from 1 KiB to 256 KiB) besides the generic LIFO freelist: a
// segment-sized acquire is served from its own bin instead of
// cannibalizing a pooled whole-state buffer and forcing the next
// whole-state send to reallocate.  A buffer that fits is preferred to one
// that must grow: the tightest fit in the exact bin, then any larger bin,
// then the tightest fit in the generic freelist.  Acquire never misses
// while *anything* is pooled — it grows a buffer of the largest nonempty
// class instead, counted as a regrowth (mprt.pool_regrows) because its
// reserve is a heap allocation the pool's hit count hides — preserving the
// zero-alloc steady state the warm-path tests pin down.
//
// The pool counts into the owning rank's metrics (mprt/metrics.hpp): pool
// hits, misses (each also a payload allocation), drops, segment reuses and
// regrowths.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "mprt/metrics.hpp"

namespace rsmpi::mprt {

/// Rank-local freelist of byte buffers, binned by capacity.  Not
/// thread-safe by design; see the header comment for why that is sound.
class BufferPool {
 public:
  /// Upper bound on retained generic (over-256-KiB or unclassed) buffers;
  /// beyond it, released buffers are dropped (freed) so a burst of
  /// traffic cannot pin memory forever.
  static constexpr std::size_t kMaxPooled = 16;
  /// Upper bound on retained buffers per size-class bin.
  static constexpr std::size_t kMaxPerClass = 8;
  /// Size-class c covers capacities in (kClassMinBytes << (c-1),
  /// kClassMinBytes << c]; class 0 covers [0, kClassMinBytes].
  static constexpr std::size_t kClassMinBytes = 1024;
  static constexpr std::size_t kClassMaxBytes = 256 * 1024;
  static constexpr std::size_t kNumClasses = 9;  // 1K, 2K, ..., 256K

  /// Returns an empty buffer with at least `reserve_bytes` of capacity,
  /// reusing a pooled allocation when possible.
  std::vector<std::byte> acquire(std::size_t reserve_bytes, Metrics& m) {
    const std::size_t cls = class_of(reserve_bytes);
    // The tightest pooled buffer that fits: the lists ascend in capacity
    // from the request's own class to the generic freelist.
    for (std::size_t c = cls; c <= kNumClasses; ++c) {
      if (const std::size_t i = tightest(lists_[c], reserve_bytes); i != npos) {
        return take(c, i, cls, reserve_bytes, m);
      }
    }
    // None fits, but any pooled allocation beats a fresh one: the latest
    // buffer of the largest class that holds one grows.
    for (std::size_t c = kNumClasses + 1; c-- > 0;) {
      if (!lists_[c].empty()) {
        return take(c, lists_[c].size() - 1, cls, reserve_bytes, m);
      }
    }
    m.add(Metric::kPoolMisses);
    m.add(Metric::kPayloadAllocs);
    std::vector<std::byte> buf;
    buf.reserve(reserve_bytes);
    return buf;
  }

  /// Returns a buffer to its size-class bin (or the generic freelist for
  /// large buffers) for reuse.  Empty buffers (no allocation to recycle)
  /// and overflow beyond the bin caps are dropped.
  void release(std::vector<std::byte>&& buf, Metrics& m) {
    if (buf.capacity() == 0) return;
    const std::size_t c = class_of(buf.capacity());
    if (lists_[c].size() >= (c < kNumClasses ? per_class_cap_ : generic_cap_)) {
      m.add(Metric::kPoolDropped);
      return;
    }
    lists_[c].push_back(std::move(buf));
  }

  /// Raises the retention caps so at least `buffers` released buffers
  /// survive per size-class bin (and in the generic freelist).  A
  /// plan-time knob: wide fan-ins — a 16-member service stream recycles
  /// 15 same-class route buffers back to back every epoch — would
  /// otherwise overflow the default caps and re-allocate each epoch.
  /// Raising a cap changes only how many buffers are *retained*, never
  /// how many are allocated.  Caps never shrink.
  void ensure_retention(std::size_t buffers) {
    if (buffers > per_class_cap_) per_class_cap_ = buffers;
    if (buffers > generic_cap_) generic_cap_ = buffers;
  }

  [[nodiscard]] std::size_t per_class_cap() const { return per_class_cap_; }
  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const auto& list : lists_) n += list.size();
    return n;
  }

 private:
  /// Size class covering `bytes`, or kNumClasses for over-kClassMaxBytes.
  [[nodiscard]] static std::size_t class_of(std::size_t bytes) {
    std::size_t cap = kClassMinBytes;
    std::size_t c = 0;
    while (bytes > cap && c < kNumClasses) {
      cap <<= 1;
      ++c;
    }
    return c;
  }

  using List = std::vector<std::vector<std::byte>>;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Index of the smallest buffer in `list` holding `bytes`, the latest
  /// released among equals; npos when none does.
  [[nodiscard]] static std::size_t tightest(const List& list,
                                            std::size_t bytes) {
    std::size_t best = npos;
    for (std::size_t i = list.size(); i-- > 0;) {
      const std::size_t cap = list[i].capacity();
      if (cap >= bytes && (best == npos || cap < list[best].capacity())) {
        best = i;
      }
    }
    return best;
  }

  /// Hands out buffer `i` of list `c` for a request of class `cls`,
  /// growing it if it is too small.
  std::vector<std::byte> take(std::size_t c, std::size_t i, std::size_t cls,
                              std::size_t reserve_bytes, Metrics& m) {
    m.add(Metric::kPoolHits);
    if (c == cls && c < kNumClasses && reserve_bytes > 0) {
      m.add(Metric::kSegmentsReused);
    }
    List& list = lists_[c];
    std::vector<std::byte> buf = std::move(list[i]);
    list.erase(list.begin() + static_cast<std::ptrdiff_t>(i));
    buf.clear();
    if (buf.capacity() < reserve_bytes) {
      m.add(Metric::kPoolRegrows);
      buf.reserve(reserve_bytes);
    }
    return buf;
  }

  /// The size-class bins, then the generic freelist (index kNumClasses).
  List lists_[kNumClasses + 1];
  std::size_t per_class_cap_ = kMaxPerClass;
  std::size_t generic_cap_ = kMaxPooled;
};

}  // namespace rsmpi::mprt
