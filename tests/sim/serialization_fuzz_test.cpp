// Fuzzing of the operator serialization hooks (ISSUE 4, satellite 4):
// save / load / combine_from_bytes, hand-written or derived from the
// array-state base, against truncated and corrupted wire bytes.  The contract under attack:
// a malformed buffer must either load to *some* valid state or throw a
// typed rsmpi::Error — never read out of bounds, never crash, never
// propagate a foreign exception type.  bytes::Reader's bounds checks
// (checked_extent, get_raw) are the mechanism; this suite is the proof.
//
// Every mutation is seeded through SimRng, so a failing (operator, seed)
// pair replays exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mprt/sim.hpp"
#include "rs/op_concepts.hpp"
#include "rs/ops/basic.hpp"
#include "rs/ops/concat.hpp"
#include "rs/ops/counts.hpp"
#include "rs/ops/histogram.hpp"
#include "rs/ops/mink.hpp"
#include "rs/ops/sketches.hpp"
#include "rs/ops/topbottomk.hpp"
#include "util/error.hpp"

namespace {

using namespace rsmpi;
using mprt::SimRng;
namespace ops = rs::ops;

/// Attempts one load; returns true when it was rejected with a typed
/// Error.  Any other exception type (or a crash) fails the test.
template <typename Op>
bool load_rejected(const Op& prototype, std::span<const std::byte> data) {
  Op victim(prototype);
  try {
    rs::load_op_into(victim, data);
    return false;
  } catch (const Error&) {
    return true;
  }
}

template <typename Op>
bool combine_rejected(const Op& prototype,
                      std::span<const std::byte> data) {
  Op victim(prototype);
  try {
    rs::combine_op_from_bytes(victim, data);
    return false;
  } catch (const Error&) {
    return true;
  }
}

/// The shared torture routine: round-trip must be exact, every truncation
/// length must be absorbed (valid load or typed Error), and seeded byte
/// corruption must never escape the Error taxonomy.
template <typename Op, typename Check>
void fuzz_operator(const char* name, const Op& prototype, const Op& filled,
                   Check equivalent) {
  const std::vector<std::byte> wire = rs::save_op(filled);
  ASSERT_FALSE(wire.empty()) << name;

  // Round trip through load and through combine-with-identity.
  {
    Op loaded(prototype);
    rs::load_op_into(loaded, wire);
    EXPECT_TRUE(equivalent(loaded, filled)) << name << ": load round trip";
    Op combined(prototype);
    rs::combine_op_from_bytes(combined, wire);
    EXPECT_TRUE(equivalent(combined, filled)) << name << ": combine round trip";
  }

  // Truncation at every length, including zero.  Exhaustive: truncation is
  // exactly what a short read off the wire produces.
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const std::span<const std::byte> cut(wire.data(), len);
    (void)load_rejected(prototype, cut);     // must not crash / read OOB
    (void)combine_rejected(prototype, cut);  // ditto
  }
  // A truncated buffer can never silently load as the full state.
  {
    Op half(prototype);
    bool loaded_clean = false;
    try {
      rs::load_op_into(half, {wire.data(), wire.size() / 2});
      loaded_clean = true;
    } catch (const Error&) {
    }
    if (loaded_clean) {
      EXPECT_FALSE(equivalent(half, filled))
          << name << ": half a buffer reproduced the full state";
    }
  }

  // Extension: trailing garbage must be rejected, not ignored.
  {
    std::vector<std::byte> extended = wire;
    extended.push_back(std::byte{0x5A});
    EXPECT_TRUE(load_rejected(prototype, extended))
        << name << ": trailing bytes accepted";
  }

  // Seeded corruption: flip 1..4 bytes anywhere (length prefixes
  // included — the interesting mutations are huge or mismatched counts).
  SimRng rng(mprt::splitmix64(0xF0220000ull ^ wire.size()));
  for (int trial = 0; trial < 256; ++trial) {
    std::vector<std::byte> mutated = wire;
    const int flips = 1 + static_cast<int>(rng.below(4));
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(rng.below(mutated.size()));
      mutated[pos] ^= static_cast<std::byte>(1 + rng.below(255));
    }
    (void)load_rejected(prototype, mutated);
    (void)combine_rejected(prototype, mutated);
  }
}

TEST(SerializationFuzz, Counts) {
  ops::Counts filled(16);
  for (int i = 0; i < 64; ++i) filled.accum(i % 16);
  fuzz_operator("Counts", ops::Counts(16), filled,
                [](const ops::Counts& a, const ops::Counts& b) {
                  return a.red_gen() == b.red_gen();
                });
}

TEST(SerializationFuzz, Concat) {
  ops::Concat filled;
  for (const char c : std::string("the quick brown fox")) filled.accum(c);
  fuzz_operator("Concat", ops::Concat{}, filled,
                [](const ops::Concat& a, const ops::Concat& b) {
                  return a.gen() == b.gen();
                });
}

TEST(SerializationFuzz, Histogram) {
  ops::Histogram<int> filled({0, 10, 20, 30});
  for (int i = -5; i < 40; ++i) filled.accum(i);
  fuzz_operator("Histogram", ops::Histogram<int>({0, 10, 20, 30}), filled,
                [](const ops::Histogram<int>& a, const ops::Histogram<int>& b) {
                  return a.red_gen() == b.red_gen();
                });
}

TEST(SerializationFuzz, MinK) {
  ops::MinK<int> filled(5);
  for (int i = 0; i < 40; ++i) filled.accum((i * 37) % 101);
  fuzz_operator("MinK", ops::MinK<int>(5), filled,
                [](const ops::MinK<int>& a, const ops::MinK<int>& b) {
                  return a.gen() == b.gen();
                });
}

TEST(SerializationFuzz, TopBottomK) {
  ops::TopBottomK<double> filled(4);
  for (int i = 0; i < 32; ++i) {
    filled.accum({static_cast<double>((i * 29) % 83), i});
  }
  fuzz_operator(
      "TopBottomK", ops::TopBottomK<double>(4), filled,
      [](const ops::TopBottomK<double>& a, const ops::TopBottomK<double>& b) {
        const auto ra = a.gen();
        const auto rb = b.gen();
        return ra.largest.size() == rb.largest.size() &&
               ra.smallest.size() == rb.smallest.size();
      });
}

TEST(SerializationFuzz, HyperLogLog) {
  ops::HyperLogLog<long> filled(6);
  for (long i = 0; i < 500; ++i) filled.accum(i * 7919);
  fuzz_operator("HyperLogLog", ops::HyperLogLog<long>(6), filled,
                [](const ops::HyperLogLog<long>& a,
                   const ops::HyperLogLog<long>& b) {
                  return a.gen() == b.gen();
                });
}

TEST(SerializationFuzz, BloomFilter) {
  ops::BloomFilter<long> filled(256, 3);
  for (long i = 0; i < 100; ++i) filled.accum(i * 31);
  fuzz_operator("BloomFilter", ops::BloomFilter<long>(256, 3), filled,
                [&](const ops::BloomFilter<long>& a,
                    const ops::BloomFilter<long>& b) {
                  for (long i = 0; i < 100; ++i) {
                    if (a.maybe_contains(i * 31) != b.maybe_contains(i * 31)) {
                      return false;
                    }
                  }
                  return true;
                });
}

// -- Partitionable-state hooks (ISSUE 7, satellite 2) ------------------------
//
// save_part / load_part / combine_part carry segmented-schedule traffic
// (ring, Rabenseifner), so they face the same wire: short
// reads and corrupted bytes.  Contract: a segment buffer of the wrong
// length must be rejected with a typed Error (load_part knows exactly how
// many bytes [lo, hi) takes); a right-length but corrupted buffer may
// load garbage *values* but must never read out of bounds, crash, or
// throw a foreign exception type.

template <typename Op>
bool part_load_rejected(const Op& prototype, std::size_t lo, std::size_t hi,
                        std::span<const std::byte> data) {
  Op victim(prototype);
  try {
    victim.load_part(lo, hi, data);
    return false;
  } catch (const Error&) {
    return true;
  }
}

template <typename Op>
bool part_combine_rejected(const Op& prototype, std::size_t lo,
                           std::size_t hi, std::span<const std::byte> data) {
  Op victim(prototype);
  try {
    victim.combine_part(lo, hi, data);
    return false;
  } catch (const Error&) {
    return true;
  }
}

template <typename Op>
std::vector<std::byte> save_part_bytes(const Op& op, std::size_t lo,
                                       std::size_t hi) {
  bytes::Writer w;
  op.save_part(lo, hi, w);
  return std::move(w).take();
}

/// The partitionable torture routine: full-range and per-segment
/// round-trips must be exact; truncation at *every* prefix of every
/// segment must be absorbed (valid load or typed Error — for part hooks
/// any length but the exact one is a protocol error); seeded bit flips at
/// the exact length must stay inside the Error taxonomy.
template <typename Op, typename Check>
void fuzz_partitionable(const char* name, const Op& prototype,
                        const Op& filled, Check equivalent) {
  static_assert(rs::PartitionableState<Op>);
  const std::size_t extent = filled.part_extent();
  ASSERT_GT(extent, 0u) << name;

  // Full-range round trip through load_part and combine-with-identity.
  {
    const std::vector<std::byte> wire = save_part_bytes(filled, 0, extent);
    EXPECT_EQ(wire.size(), rs::part_state_bytes(filled)) << name;
    Op loaded(prototype);
    loaded.load_part(0, extent, wire);
    EXPECT_TRUE(equivalent(loaded, filled)) << name << ": load_part round trip";
    Op combined(prototype);
    combined.combine_part(0, extent, wire);
    EXPECT_TRUE(equivalent(combined, filled))
        << name << ": combine_part round trip";
  }

  // Segment-by-segment reassembly equals the whole state, and truncation
  // of each segment at every prefix length is rejected or absorbed.
  const std::size_t seg = std::max<std::size_t>(1, extent / 3);
  Op reassembled(prototype);
  for (std::size_t lo = 0; lo < extent; lo += seg) {
    const std::size_t hi = std::min(extent, lo + seg);
    const std::vector<std::byte> wire = save_part_bytes(filled, lo, hi);
    EXPECT_EQ(wire.size(), filled.part_bytes(lo, hi)) << name;
    reassembled.load_part(lo, hi, wire);

    for (std::size_t len = 0; len < wire.size(); ++len) {
      const std::span<const std::byte> cut(wire.data(), len);
      EXPECT_TRUE(part_load_rejected(prototype, lo, hi, cut))
          << name << ": load_part(" << lo << ", " << hi << ") accepted "
          << len << " of " << wire.size() << " bytes";
      EXPECT_TRUE(part_combine_rejected(prototype, lo, hi, cut))
          << name << ": combine_part(" << lo << ", " << hi << ") accepted "
          << len << " of " << wire.size() << " bytes";
    }
    // Over-long buffers are equally malformed.
    {
      std::vector<std::byte> extended = wire;
      extended.push_back(std::byte{0x5A});
      EXPECT_TRUE(part_load_rejected(prototype, lo, hi, extended))
          << name << ": load_part accepted trailing bytes";
    }

    // Exact-length bit flips: values may be garbage, the process may not.
    SimRng rng(mprt::splitmix64(0xF0220701ull ^ (lo << 8) ^ wire.size()));
    for (int trial = 0; trial < 64; ++trial) {
      std::vector<std::byte> mutated = wire;
      const int flips = 1 + static_cast<int>(rng.below(4));
      for (int f = 0; f < flips; ++f) {
        const auto pos = static_cast<std::size_t>(rng.below(mutated.size()));
        mutated[pos] ^= static_cast<std::byte>(1 + rng.below(255));
      }
      (void)part_load_rejected(prototype, lo, hi, mutated);
      (void)part_combine_rejected(prototype, lo, hi, mutated);
    }
  }
  EXPECT_TRUE(equivalent(reassembled, filled))
      << name << ": segment reassembly diverged from the whole state";

  // Out-of-range segment bounds are argument errors, not reads past the
  // state.
  const std::vector<std::byte> wire = save_part_bytes(filled, 0, extent);
  EXPECT_TRUE(part_load_rejected(prototype, 0, extent + 1, wire))
      << name << ": load_part accepted hi > part_extent()";
  EXPECT_TRUE(part_combine_rejected(prototype, extent, extent + 1,
                                    std::span<const std::byte>{}))
      << name << ": combine_part accepted a range past the extent";
}

TEST(SerializationFuzz, CountsParts) {
  ops::Counts filled(16);
  for (int i = 0; i < 64; ++i) filled.accum(i % 16);
  fuzz_partitionable("Counts", ops::Counts(16), filled,
                     [](const ops::Counts& a, const ops::Counts& b) {
                       return a.red_gen() == b.red_gen();
                     });
}

TEST(SerializationFuzz, HistogramParts) {
  ops::Histogram<int> filled({0, 10, 20, 30});
  for (int i = -5; i < 40; ++i) filled.accum(i);
  fuzz_partitionable(
      "Histogram", ops::Histogram<int>({0, 10, 20, 30}), filled,
      [](const ops::Histogram<int>& a, const ops::Histogram<int>& b) {
        return a.red_gen() == b.red_gen();
      });
}

TEST(SerializationFuzz, SumParts) {
  ops::Sum<long> filled;
  for (long i = 1; i <= 100; ++i) filled.accum(i);
  fuzz_partitionable("Sum", ops::Sum<long>{}, filled,
                     [](const ops::Sum<long>& a, const ops::Sum<long>& b) {
                       return a.gen() == b.gen();
                     });
}

// A state arriving under the wrong prototype (mismatched constructor
// parameters) is a protocol violation the load hooks must catch — the
// cross-operator analogue of corruption.
TEST(SerializationFuzz, MismatchedPrototypeIsRejected) {
  ops::Counts eight(8);
  for (int i = 0; i < 8; ++i) eight.accum(i);
  const auto wire = rs::save_op(eight);
  EXPECT_TRUE(load_rejected(ops::Counts(4), wire));
  EXPECT_TRUE(combine_rejected(ops::Counts(4), wire));

  ops::Histogram<int> coarse({0, 50, 100});
  coarse.accum(25);
  EXPECT_TRUE(load_rejected(ops::Histogram<int>({0, 10, 20, 30, 40}),
                            rs::save_op(coarse)));
}

}  // namespace
