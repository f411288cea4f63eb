// Tests for the combine-phase plumbing (rs/state_exchange.hpp): the
// pooled zero-copy path's allocation behaviour (ISSUE 3's acceptance
// property), and equivalence of the new schedules — recursive-doubling
// butterfly allreduce and the deferred-prefix xscan — with the legacy
// ones, for every operator in rs/ops/ops.hpp.  The last tests pin the
// whole-state copies the global-view reductions make.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "coll/barrier.hpp"
#include "mprt/cost_model.hpp"
#include "mprt/runtime.hpp"
#include "rs/async.hpp"
#include "rs/op_concepts.hpp"
#include "rs/ops/ops.hpp"
#include "rs/reduce.hpp"
#include "rs/serial.hpp"
#include "rs/state_exchange.hpp"
#include "tests/rs/xscan_baseline.hpp"

namespace {

using namespace rsmpi;
namespace ops = rs::ops;
using mprt::Comm;
using mprt::Metric;
using rs::save_op;
using rs::detail::state_allreduce;
using rs::detail::state_allreduce_butterfly;
using rs::detail::state_allreduce_reduce_bcast;
using rs::detail::state_xscan;
using test::state_xscan_eager;

// Rank counts exercised by the equivalence sweeps: powers of two (pure
// butterfly), non-powers (the Rabenseifner fold-in/fold-out), and the
// p=1 / p=2 degenerate shapes.
const int kRankSweep[] = {1, 2, 3, 5, 8, 13, 16};

// --- harnesses --------------------------------------------------------------

/// Accumulates a rank-specific state, runs the butterfly and the
/// deterministic legacy schedule (order-preserving binomial reduce +
/// broadcast) on copies of it, and hands both results to
/// `check(butterfly, legacy)` on every rank.
template <typename Op, typename Fill, typename Check>
void allreduce_both(const Op& prototype, Fill fill, Check check) {
  for (const int p : kRankSweep) {
    mprt::run(p, [&](Comm& comm) {
      Op mine = prototype;
      fill(mine, comm.rank());
      Op butterfly = mine;
      state_allreduce_butterfly(comm, butterfly);
      Op legacy = mine;
      state_allreduce_reduce_bcast(comm, legacy, /*commutative=*/false);
      check(butterfly, legacy);
    });
  }
}

/// Same shape for the exclusive scan: the deferred-prefix formulation
/// against the eager legacy one.  The deferred fold replays the eager
/// bracketing exactly, so results must be BIT-identical for every
/// operator — including non-commutative and floating-point ones.
template <typename Op, typename Fill, typename Check>
void xscan_both(const Op& prototype, Fill fill, Check check) {
  for (const int p : kRankSweep) {
    mprt::run(p, [&](Comm& comm) {
      Op mine = prototype;
      fill(mine, comm.rank());
      Op deferred = mine;
      state_xscan(comm, deferred, prototype);
      Op eager = mine;
      state_xscan_eager(comm, eager, prototype);
      check(deferred, eager);
    });
  }
}

/// Equivalence checks for the common cases.  `gen_eq` compares generated
/// outputs exactly (right for order-independent combines and for the
/// bit-identical xscan claim); `bytes_eq` compares serialized states,
/// additionally exercising each operator's save path.
template <typename Op>
void gen_eq(const Op& a, const Op& b) {
  EXPECT_EQ(a.gen(), b.gen());
}
template <typename Op>
void bytes_eq(const Op& a, const Op& b) {
  EXPECT_EQ(save_op(a), save_op(b));
}

// --- allreduce equivalence: butterfly vs reduce+bcast -----------------------
// Exact (order-independent) commutative operators must agree bitwise with
// the legacy schedule; floating-point mixers agree to rounding.

TEST(ButterflyEquivalence, ScalarFoldOps) {
  allreduce_both(
      ops::Sum<long>{},
      [](ops::Sum<long>& op, int r) {
        for (int i = 0; i < 24; ++i) op.accum(r * 31 + i);
      },
      gen_eq<ops::Sum<long>>);
  allreduce_both(
      // Unsigned, so a product past 2^64 at the wider rank counts wraps
      // instead of overflowing a signed long.
      ops::Product<unsigned long>{},
      [](ops::Product<unsigned long>& op, int r) {
        for (int i = 0; i < 8; ++i) op.accum(1 + (r + i) % 3);
      },
      gen_eq<ops::Product<unsigned long>>);
  allreduce_both(
      ops::Min<int>{},
      [](ops::Min<int>& op, int r) {
        for (int i = 0; i < 16; ++i) op.accum((r * 7919 + i * 104729) % 1000);
      },
      gen_eq<ops::Min<int>>);
  allreduce_both(
      ops::Max<int>{},
      [](ops::Max<int>& op, int r) {
        for (int i = 0; i < 16; ++i) op.accum((r * 7919 + i * 104729) % 1000);
      },
      gen_eq<ops::Max<int>>);
}

TEST(ButterflyEquivalence, LogicalAndCountingOps) {
  allreduce_both(
      ops::All{},
      [](ops::All& op, int r) {
        for (int i = 0; i < 10; ++i) op.accum((r + i) % 7 != 0);
      },
      gen_eq<ops::All>);
  allreduce_both(
      ops::Any{},
      [](ops::Any& op, int r) {
        for (int i = 0; i < 10; ++i) op.accum((r * 10 + i) == 42);
      },
      gen_eq<ops::Any>);

  const auto is_even = [](int x) { return x % 2 == 0; };
  using CountEven = ops::CountIf<int, decltype(is_even)>;
  allreduce_both(
      CountEven(is_even),
      [](CountEven& op, int r) {
        for (int i = 0; i < 20; ++i) op.accum(r * 3 + i);
      },
      gen_eq<CountEven>);

  // With one value holding a strict majority on every rank, the vote
  // summaries all carry the same candidate and merge by weight addition,
  // which is order-independent.
  allreduce_both(
      ops::MajorityVote<int>{},
      [](ops::MajorityVote<int>& op, int r) {
        for (int i = 0; i < 10; ++i) op.accum(i < 9 ? 7 : r);
      },
      gen_eq<ops::MajorityVote<int>>);
}

TEST(ButterflyEquivalence, LocatedExtremaOps) {
  using E = ops::Located<double, long>;
  allreduce_both(
      ops::MinI<double, long>{},
      [](ops::MinI<double, long>& op, int r) {
        for (int i = 0; i < 16; ++i) {
          const long g = r * 16 + i;
          op.accum(E{static_cast<double>((g * 7919) % 997), g});
        }
      },
      gen_eq<ops::MinI<double, long>>);
  allreduce_both(
      ops::MaxI<double, long>{},
      [](ops::MaxI<double, long>& op, int r) {
        for (int i = 0; i < 16; ++i) {
          const long g = r * 16 + i;
          op.accum(E{static_cast<double>((g * 6151) % 997), g});
        }
      },
      gen_eq<ops::MaxI<double, long>>);
}

TEST(ButterflyEquivalence, SelectionOps) {
  allreduce_both(
      ops::MinK<int>(5),
      [](ops::MinK<int>& op, int r) {
        for (int i = 0; i < 32; ++i) op.accum((r * 131 + i * 37) % 4096);
      },
      bytes_eq<ops::MinK<int>>);
  allreduce_both(
      ops::MaxK<int>(5),
      [](ops::MaxK<int>& op, int r) {
        for (int i = 0; i < 32; ++i) op.accum((r * 131 + i * 37) % 4096);
      },
      bytes_eq<ops::MaxK<int>>);

  using TBK = ops::TopBottomK<double, std::int64_t>;
  allreduce_both(
      TBK(6),
      [](TBK& op, int r) {
        for (int i = 0; i < 40; ++i) {
          const std::int64_t g = r * 40 + i;
          op.accum({static_cast<double>((g * 7919) % 104729), g});
        }
      },
      [](const TBK& a, const TBK& b) {
        EXPECT_EQ(a.gen().largest, b.gen().largest);
        EXPECT_EQ(a.gen().smallest, b.gen().smallest);
        EXPECT_EQ(save_op(a), save_op(b));
      });
}

TEST(ButterflyEquivalence, BucketingOps) {
  allreduce_both(
      ops::Counts(16),
      [](ops::Counts& op, int r) {
        for (int i = 0; i < 48; ++i) op.accum((r * 5 + i * 3) % 16);
      },
      [](const ops::Counts& a, const ops::Counts& b) {
        EXPECT_EQ(a.red_gen(), b.red_gen());
        EXPECT_EQ(save_op(a), save_op(b));
      });

  std::vector<double> edges;
  for (int i = 0; i <= 32; ++i) edges.push_back(i * 4.0);
  allreduce_both(
      ops::Histogram<double>(edges),
      [](ops::Histogram<double>& op, int r) {
        for (int i = 0; i < 64; ++i) op.accum((r * 17 + i * 5) % 128);
      },
      [](const ops::Histogram<double>& a, const ops::Histogram<double>& b) {
        EXPECT_EQ(a.red_gen(), b.red_gen());
        EXPECT_EQ(save_op(a), save_op(b));
      });
}

TEST(ButterflyEquivalence, SketchOps) {
  allreduce_both(
      ops::HyperLogLog<long>(8),
      [](ops::HyperLogLog<long>& op, int r) {
        for (int i = 0; i < 200; ++i) op.accum(r * 200 + i);
      },
      bytes_eq<ops::HyperLogLog<long>>);
  allreduce_both(
      ops::BloomFilter<long>(1024, 3),
      [](ops::BloomFilter<long>& op, int r) {
        for (int i = 0; i < 50; ++i) op.accum(r * 50 + i);
      },
      bytes_eq<ops::BloomFilter<long>>);
  // With at most 8 distinct values against k = 16, the Misra–Gries merge
  // never decrements, so it degenerates to order-independent counter
  // addition.  (HeavyHitters has no combine_from_bytes on purpose: it
  // keeps the save/load fallback path of the zero-copy machinery covered.)
  allreduce_both(
      ops::HeavyHitters<int>(16),
      [](ops::HeavyHitters<int>& op, int r) {
        for (int i = 0; i < 64; ++i) op.accum((r + i) % 8);
      },
      gen_eq<ops::HeavyHitters<int>>);
}

TEST(ButterflyEquivalence, AdapterOps) {
  const auto half = [](int x) { return static_cast<long>(x) / 2; };
  auto mapped_proto = ops::mapped<int>(half, ops::Sum<long>{});
  using MappedSum = decltype(mapped_proto);
  allreduce_both(
      mapped_proto,
      [](MappedSum& op, int r) {
        for (int i = 0; i < 20; ++i) op.accum(r * 20 + i);
      },
      [](const MappedSum& a, const MappedSum& b) {
        EXPECT_EQ(a.red_gen(), b.red_gen());
      });

  auto fuse_proto = ops::fuse(ops::Min<int>{}, ops::Max<int>{});
  using MinMax = decltype(fuse_proto);
  allreduce_both(
      fuse_proto,
      [](MinMax& op, int r) {
        for (int i = 0; i < 16; ++i) op.accum((r * 523 + i * 101) % 2048);
      },
      [](const MinMax& a, const MinMax& b) {
        EXPECT_EQ(a.red_gen(), b.red_gen());
      });
}

TEST(ButterflyEquivalence, FloatingPointOpsAgreeToRounding) {
  // KahanSum and MeanVar mix doubles in combine, and the butterfly folds
  // partials in a different order than the binomial tree — results agree
  // to rounding, not bitwise (that is the compensated sum's whole point).
  allreduce_both(
      ops::KahanSum{},
      [](ops::KahanSum& op, int r) {
        for (int i = 0; i < 50; ++i) {
          op.accum((r * 50 + i) * 1e-3 + (i % 2 ? 1e10 : -1e10));
        }
      },
      [](const ops::KahanSum& a, const ops::KahanSum& b) {
        EXPECT_NEAR(a.gen(), b.gen(), 1e-6);
      });
  allreduce_both(
      ops::MeanVar{},
      [](ops::MeanVar& op, int r) {
        for (int i = 0; i < 40; ++i) op.accum(r * 1.5 + i * 0.125);
      },
      [](const ops::MeanVar& a, const ops::MeanVar& b) {
        const auto ra = a.gen();
        const auto rb = b.gen();
        EXPECT_EQ(ra.count, rb.count);
        EXPECT_NEAR(ra.mean, rb.mean, 1e-9);
        EXPECT_NEAR(ra.variance, rb.variance, 1e-9);
      });
}

TEST(AllreduceDispatch, RoutesNonCommutativeOpsToLegacySchedule) {
  // The dispatcher must not hand a non-commutative operator to the
  // butterfly; Concat makes any reordering visible immediately.
  for (const int p : kRankSweep) {
    mprt::run(p, [&](Comm& comm) {
      ops::Concat mine;
      for (int i = 0; i < 3; ++i) {
        mine.accum(static_cast<char>('a' + (comm.rank() + i) % 26));
      }
      std::string want;
      for (int r = 0; r < p; ++r) {
        for (int i = 0; i < 3; ++i) {
          want.push_back(static_cast<char>('a' + (r + i) % 26));
        }
      }
      state_allreduce(comm, mine);
      EXPECT_EQ(mine.gen(), want);
    });
  }
}

// --- xscan equivalence: deferred-prefix vs eager ----------------------------
// Bit-identical for every operator, non-commutative and floating-point
// included: the deferred fold replays the eager bracketing exactly.

TEST(DeferredXscanEquivalence, CommutativeOps) {
  xscan_both(
      ops::Sum<long>{},
      [](ops::Sum<long>& op, int r) {
        for (int i = 0; i < 24; ++i) op.accum(r * 31 + i);
      },
      gen_eq<ops::Sum<long>>);
  xscan_both(
      ops::Counts(16),
      [](ops::Counts& op, int r) {
        for (int i = 0; i < 48; ++i) op.accum((r * 5 + i * 3) % 16);
      },
      bytes_eq<ops::Counts>);
  using TBK = ops::TopBottomK<double, std::int64_t>;
  xscan_both(
      TBK(6),
      [](TBK& op, int r) {
        for (int i = 0; i < 40; ++i) {
          const std::int64_t g = r * 40 + i;
          op.accum({static_cast<double>((g * 7919) % 104729), g});
        }
      },
      bytes_eq<TBK>);
  xscan_both(
      ops::HyperLogLog<long>(8),
      [](ops::HyperLogLog<long>& op, int r) {
        for (int i = 0; i < 200; ++i) op.accum(r * 200 + i);
      },
      bytes_eq<ops::HyperLogLog<long>>);
}

TEST(DeferredXscanEquivalence, FloatingPointOpsBitIdentical) {
  // The strong form of the claim: even for floating-point states, whose
  // combines are rounding-order sensitive, deferring the prefix fold off
  // the critical path changes NOTHING about which combines happen in
  // which bracketing — doubles come out bit-for-bit equal.
  xscan_both(
      ops::KahanSum{},
      [](ops::KahanSum& op, int r) {
        for (int i = 0; i < 50; ++i) {
          op.accum((r * 50 + i) * 1e-3 + (i % 2 ? 1e10 : -1e10));
        }
      },
      gen_eq<ops::KahanSum>);
  xscan_both(
      ops::MeanVar{},
      [](ops::MeanVar& op, int r) {
        for (int i = 0; i < 40; ++i) op.accum(r * 1.5 + i * 0.125);
      },
      gen_eq<ops::MeanVar>);
}

TEST(DeferredXscanEquivalence, NonCommutativeOps) {
  xscan_both(
      ops::Concat{},
      [](ops::Concat& op, int r) {
        for (int i = 0; i < 4; ++i) {
          op.accum(static_cast<char>('a' + (r + i) % 26));
        }
      },
      gen_eq<ops::Concat>);
  xscan_both(
      ops::First<int>{},
      [](ops::First<int>& op, int r) { op.accum(r * 100); },
      gen_eq<ops::First<int>>);
  xscan_both(
      ops::Last<int>{},
      [](ops::Last<int>& op, int r) { op.accum(r * 100 + 7); },
      gen_eq<ops::Last<int>>);
  xscan_both(
      ops::MaxSubarray<long>{},
      [](ops::MaxSubarray<long>& op, int r) {
        for (int i = 0; i < 20; ++i) op.accum(((r * 13 + i * 7) % 11) - 5);
      },
      gen_eq<ops::MaxSubarray<long>>);
  xscan_both(
      ops::Sorted<int>{},
      [](ops::Sorted<int>& op, int r) {
        // Sorted within each rank; rank 5's block breaks the global order.
        for (int i = 0; i < 8; ++i) op.accum((r == 5 ? 0 : r * 8) + i);
      },
      gen_eq<ops::Sorted<int>>);

  using SegSum = ops::Segmented<ops::Sum<long>, long>;
  xscan_both(
      SegSum(ops::Sum<long>{}),
      [](SegSum& op, int r) {
        for (int i = 0; i < 6; ++i) {
          op.accum(ops::Seg<long>{r * 6 + i, (r * 6 + i) % 5 == 0});
        }
      },
      [](const SegSum& a, const SegSum& b) {
        EXPECT_EQ(a.red_gen(), b.red_gen());
        EXPECT_EQ(save_op(a), save_op(b));
      });
}

// --- the zero-copy pooled path's allocation behaviour -----------------------

/// Histogram prototype with ~2048 bins: a 16 KB state, far past the 64 B
/// inline threshold, so every exchange exercises the heap-buffer path.
ops::Histogram<double> big_histogram() {
  std::vector<double> edges;
  for (int i = 0; i <= 2048; ++i) edges.push_back(static_cast<double>(i));
  return ops::Histogram<double>(edges);
}

// The acceptance property behind ISSUE 3's ">= 50% fewer heap
// allocations": once each rank's pool is warm, a state_allreduce round
// performs ZERO payload allocations and ZERO payload copies — every send
// serializes into a recycled buffer and moves it to the receiver, and
// every receive buffer is recycled after its in-place combine.
TEST(ZeroCopyPath, WarmAllreduceMakesNoAllocationsOrCopies) {
  constexpr int kRanks = 8;
  const auto prototype = big_histogram();
  mprt::run(kRanks, [&](Comm& comm) {
    auto mine = prototype;
    for (int i = 0; i < 256; ++i) {
      mine.accum((comm.rank() * 37 + i * 11) % 2048);
    }

    // Warm-up pass: pools start empty, so this one may allocate.
    auto warm = mine;
    state_allreduce(comm, warm);
    EXPECT_GT(comm.payload_allocs(), 0u);  // cold pool had to allocate
    // ... but never copied a payload.
    EXPECT_EQ(comm.metrics()[Metric::kPayloadCopies], 0u);
    comm.reset_counters();

    // Steady state: every buffer comes from this rank's pool, already
    // large enough for the state it carries.
    auto hot = mine;
    state_allreduce(comm, hot);
    EXPECT_EQ(comm.payload_allocs(), 0u);
    EXPECT_EQ(comm.metrics()[Metric::kPoolRegrows], 0u);
    EXPECT_EQ(comm.metrics()[Metric::kPayloadCopies], 0u);
    EXPECT_EQ(comm.pool_stats().misses, 0u);
    EXPECT_GT(comm.pool_stats().hits, 0u);
    EXPECT_GT(comm.metrics()[Metric::kSendsMoved], 0u);

    // Both passes computed the same (correct) reduction.
    EXPECT_EQ(warm.red_gen(), hot.red_gen());
  });
}

TEST(ZeroCopyPath, WarmXscanHalvesAllocationsAndNeverCopies) {
  // The scan's send/receive pattern is unbalanced (rank 0 only sends,
  // rank p-1 only receives), so unlike the butterfly the pools can't
  // reach a zero-allocation steady state on every rank.  The acceptance
  // bound still holds in aggregate: with warm pools, a scan pass
  // allocates for at most half of its sends (>= 50% fewer allocations
  // than the legacy one-alloc-per-send path), and copies nothing.
  constexpr int kRanks = 8;
  const auto prototype = big_histogram();
  std::array<std::uint64_t, kRanks> allocs{};
  std::array<std::uint64_t, kRanks> sends{};
  mprt::run(kRanks, [&](Comm& comm) {
    auto mine = prototype;
    for (int i = 0; i < 256; ++i) {
      mine.accum((comm.rank() * 53 + i * 13) % 2048);
    }
    auto warm = mine;
    state_xscan(comm, warm, prototype);
    comm.reset_counters();

    auto hot = mine;
    state_xscan(comm, hot, prototype);
    EXPECT_EQ(comm.metrics()[Metric::kPayloadCopies], 0u);
    EXPECT_EQ(comm.metrics()[Metric::kPoolRegrows], 0u);
    allocs[static_cast<std::size_t>(comm.rank())] = comm.payload_allocs();
    sends[static_cast<std::size_t>(comm.rank())] =
        comm.metrics()[Metric::kSendsMoved] +
        comm.metrics()[Metric::kSendsInline];
    EXPECT_EQ(warm.red_gen(), hot.red_gen());
  });
  std::uint64_t total_allocs = 0, total_sends = 0;
  for (int r = 0; r < kRanks; ++r) {
    total_allocs += allocs[static_cast<std::size_t>(r)];
    total_sends += sends[static_cast<std::size_t>(r)];
  }
  EXPECT_GT(total_sends, 0u);
  EXPECT_LE(2 * total_allocs, total_sends)
      << "steady-state scan allocated " << total_allocs << " buffers for "
      << total_sends << " sends";
}

TEST(ZeroCopyPath, SpanSendsCopyButMoveSendsAdopt) {
  // The counter semantics the benchmark's alloc comparison rests on: the
  // span overload allocates + copies per send; the move overload adopts
  // the buffer (or stores it inline when it fits in the Message).
  mprt::run(2, [](Comm& comm) {
    std::vector<std::byte> big(1024, std::byte{0x5A});
    if (comm.rank() == 0) {
      comm.send_bytes(1, 7, std::span<const std::byte>(big));
      EXPECT_EQ(comm.payload_allocs(), 1u);
      EXPECT_EQ(comm.metrics()[Metric::kPayloadCopies], 1u);

      auto buf = comm.acquire_buffer(big.size());  // pool is cold: 1 alloc
      buf.assign(big.begin(), big.end());
      comm.send_bytes(1, 8, std::move(buf));
      EXPECT_EQ(comm.payload_allocs(), 2u);
      // Unchanged: no copy on move.
      EXPECT_EQ(comm.metrics()[Metric::kPayloadCopies], 1u);
      EXPECT_EQ(comm.metrics()[Metric::kSendsMoved], 1u);

      // Small payloads ride inline in the Message; the (capacity-bearing)
      // buffer is recycled into the pool instead of travelling.
      auto small = comm.acquire_buffer(16);
      small.resize(16, std::byte{0x3C});
      comm.send_bytes(1, 9, std::move(small));
      EXPECT_EQ(comm.metrics()[Metric::kSendsInline], 1u);
      EXPECT_EQ(comm.metrics()[Metric::kPoolDropped], 0u);
    } else {
      for (const int tag : {7, 8, 9}) {
        auto msg = comm.recv_message(0, tag);
        EXPECT_EQ(msg.payload()[0],
                  tag == 9 ? std::byte{0x3C} : std::byte{0x5A});
        comm.recycle_buffer(msg.release_storage());
      }
      // The two large payloads' buffers were recycled into this rank's
      // pool; the next acquire is served from it without allocating.
      auto reused = comm.acquire_buffer(1024);
      EXPECT_GT(comm.pool_stats().hits, 0u);
      EXPECT_EQ(comm.payload_allocs(), 0u);
      comm.recycle_buffer(std::move(reused));
    }
  });
}

// Typed point-to-point sends go through the span overload: a value of at
// most 64 bytes is copied into the Message, so a barrier's token exchange
// neither allocates nor hands the pool a buffer it must drop.
TEST(ZeroCopyPath, TypedSendsAllocateNothing) {
  const auto result = mprt::run(4, [](Comm& comm) {
    for (int i = 0; i < 20; ++i) coll::barrier(comm);
  });
  EXPECT_GT(result.metrics[Metric::kSendsInline], 0u);
  EXPECT_EQ(result.metrics[Metric::kPayloadAllocs], 0u);
  EXPECT_EQ(result.metrics[Metric::kPoolDropped], 0u);
}

// Once the pools are warm, a pass of barriers and allreduces of states
// that declare their size (the array states) allocates nothing and grows
// no pooled buffer, on the two-tier model whose autotuner runs the
// hierarchical and segmented schedules.
TEST(ZeroCopyPath, WarmArrayStatesNeitherAllocateNorRegrow) {
  constexpr int kRanks = 8;
  const auto histogram = big_histogram();
  mprt::run(kRanks, [&](Comm& comm) {
    std::vector<int> buckets(512);
    std::vector<double> values(512);
    std::vector<std::uint64_t> keys(512);
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      const auto x = static_cast<int>(i) * 31 + comm.rank() * 7;
      buckets[i] = x % 8192;
      values[i] = static_cast<double>(x % 2048);
      keys[i] = static_cast<std::uint64_t>(x) * 2654435761u;
    }
    const auto pass = [&] {
      coll::barrier(comm);
      (void)rs::reduce(comm, buckets, ops::Counts(8192));
      coll::barrier(comm);
      (void)rs::reduce(comm, values, histogram);
      coll::barrier(comm);
      (void)rs::reduce(comm, keys, ops::HyperLogLog<std::uint64_t>(12));
    };
    pass();
    pass();
    comm.reset_counters();
    pass();
    EXPECT_EQ(comm.payload_allocs(), 0u) << "rank " << comm.rank();
    EXPECT_EQ(comm.metrics()[Metric::kPoolRegrows], 0u)
        << "rank " << comm.rank();
  }, mprt::CostModel::cluster_of_smp(4));
}

/// A Counts-like array state that counts its whole-state copies: copy
/// constructions and copy assignments, into the slot its prototype
/// carries, so each rank counts its own.  Its lvalue generate copies the
/// state and moves the result out of the copy, as an array generate does.
class CopyCounted : public ops::ArrayState<CopyCounted, long,
                                           ops::FoldAdd,
                                           /*partitionable=*/true> {
 public:
  static constexpr bool commutative = true;

  CopyCounted(std::size_t n, long* copies) : v_(n, 0), copies_(copies) {}
  CopyCounted(const CopyCounted& o)
      : ArrayState(o), v_(o.v_), copies_(o.copies_) {
    ++*copies_;
  }
  CopyCounted& operator=(const CopyCounted& o) {
    v_ = o.v_;
    copies_ = o.copies_;
    ++*copies_;
    return *this;
  }
  // Moves stay moves, uncounted: declaring the copies alone would turn
  // every move into a copy.
  CopyCounted(CopyCounted&&) noexcept = default;
  CopyCounted& operator=(CopyCounted&&) noexcept = default;

  void accum(const int& x) { v_[static_cast<std::size_t>(x) % v_.size()] += 1; }
  void combine(const CopyCounted& o) {
    for (std::size_t i = 0; i < v_.size(); ++i) v_[i] += o.v_[i];
  }
  [[nodiscard]] std::vector<long> red_gen() const& {
    return CopyCounted(*this).red_gen();
  }
  [[nodiscard]] std::vector<long> red_gen() && { return std::move(v_); }

 private:
  friend ArrayState;
  static auto& elems(auto& self) { return self.v_; }

  std::vector<long> v_;
  long* copies_;
};

/// rs::reduce and rs::reduce_root copy no state; rs::reduce_async copies
/// it once, to generate from the state its Future shares.  Flat model at
/// p in {1, 5, 8}, and the two-tier model at p = 8.  The 8 KiB state runs
/// the butterfly on the flat model and the hierarchical schedule on the
/// two-tier one; the 128 KiB state runs ring and Rabenseifner.
TEST(CopyFreeReduce, ReductionsCopyNoWholeState) {
  constexpr int kPerRank = 300;
  const auto input = [](int rank) {
    std::vector<int> v(kPerRank);
    for (int i = 0; i < kPerRank; ++i) {
      v[static_cast<std::size_t>(i)] = rank * 977 + i * 13;
    }
    return v;
  };
  struct Case {
    int p;
    mprt::CostModel model;
  };
  const mprt::CostModel two_tier = mprt::CostModel::cluster_of_smp(4);
  ASSERT_EQ(rs::detail::choose_allreduce_schedule(
                two_tier, 8, 1024 * sizeof(long),
                rs::detail::kDefaultSegmentBytes),
            rs::detail::Schedule::kHierarchical);
  for (const std::size_t extent : {std::size_t{1024}, std::size_t{16384}}) {
    for (const Case& c :
         {Case{1, {}}, Case{5, {}}, Case{8, {}}, Case{8, two_tier}}) {
      std::vector<int> global;
      for (int r = 0; r < c.p; ++r) {
        const auto mine = input(r);
        global.insert(global.end(), mine.begin(), mine.end());
      }
      long oracle_copies = 0;
      const std::vector<long> want =
          rs::serial::reduce(global, CopyCounted(extent, &oracle_copies));
      std::vector<long> reduce_copies(static_cast<std::size_t>(c.p));
      std::vector<long> root_copies(static_cast<std::size_t>(c.p));
      std::vector<long> async_copies(static_cast<std::size_t>(c.p));
      const int root = c.p - 1;
      mprt::run(c.p, [&](Comm& comm) {
        const auto r = static_cast<std::size_t>(comm.rank());
        const auto mine = input(comm.rank());
        EXPECT_EQ(
            rs::reduce(comm, mine, CopyCounted(extent, &reduce_copies[r])),
            want);
        const auto at_root = rs::reduce_root(
            comm, root, mine, CopyCounted(extent, &root_copies[r]));
        EXPECT_EQ(at_root.has_value(), comm.rank() == root);
        if (at_root.has_value()) {
          EXPECT_EQ(*at_root, want);
        }
        auto future =
            rs::reduce_async(comm, mine, CopyCounted(extent, &async_copies[r]));
        EXPECT_EQ(future.get(), want);
      }, c.model);
      for (int r = 0; r < c.p; ++r) {
        const auto i = static_cast<std::size_t>(r);
        const std::string at = "extent=" + std::to_string(extent) +
                               " p=" + std::to_string(c.p) +
                               (c.model.two_tier() ? " two-tier" : " flat") +
                               " rank " + std::to_string(r);
        EXPECT_EQ(reduce_copies[i], 0) << at;
        EXPECT_EQ(root_copies[i], 0) << at;
        EXPECT_LE(async_copies[i], 1) << at;
      }
    }
  }
}

}  // namespace
