// Tests for the segmented (partitionable-state) schedules:
//
//  * the partitionable hook contract itself, via the sequential oracle
//    serial::combine_via_parts at several segmentation widths;
//  * bit-identical equivalence of the ring and chunked Rabenseifner
//    allreduce with the legacy two-message schedule for the operator zoo,
//    across power-of-two and non-power-of-two rank counts, fault-free and
//    under benign fault plans (delay/duplicate/reorder);
//  * the cost-model schedule autotuner's decision table and its env-var
//    override/fallback behaviour (RSMPI_SCHEDULE), and the size-chosen
//    tree of a commutative reduce to rank 0;
//  * the nonblocking (progress-engine) path sending the blocking
//    schedule's messages under every schedule pin; and
//  * segment-buffer recycling surfacing in RunResult::segments_reused.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "coll/local_reduce.hpp"
#include "mprt/cost_model.hpp"
#include "mprt/runtime.hpp"
#include "mprt/sim.hpp"
#include "rs/async.hpp"
#include "rs/ops/ops.hpp"
#include "rs/reduce.hpp"
#include "rs/serial.hpp"
#include "rs/state_exchange.hpp"

namespace {

using namespace rsmpi;
namespace ops = rs::ops;
using mprt::Comm;
using mprt::SimConfig;
using rs::save_op;
using rs::detail::Schedule;

// Rank counts for the equivalence sweeps: degenerate shapes, powers of two
// (pure recursive halving/doubling), and the non-powers whose remainder
// ranks take the fold-in/fold-out path.
const int kSegRanks[] = {1, 2, 3, 5, 6, 7, 8, 12, 16};

/// Benign fault plan (no drops, no kills): delayed, duplicated, and
/// reordered deliveries, seeded per (p, variant) so runs replay exactly.
SimConfig benign_plan(int p, int variant) {
  SimConfig sim;
  sim.seed = 50000 + 100ull * static_cast<std::uint64_t>(p) +
             static_cast<std::uint64_t>(variant);
  sim.delay_prob = 0.4;
  sim.max_extra_delay_s = 1.5e-5;
  sim.duplicate_prob = 0.4;
  sim.reorder_prob = 0.4;
  sim.max_compute_skew_s = 6e-6;
  return sim;
}

/// Scoped environment variable: set on construction, unset on destruction
/// (runs must not be in flight while the value changes — ranks read
/// the environment during dispatch).
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~EnvGuard() { ::unsetenv(name_); }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
};

ops::Counts filled_counts(std::size_t buckets, int rank, int items = 57) {
  ops::Counts c(buckets);
  for (int i = 0; i < items; ++i) {
    c.accum(static_cast<int>((static_cast<std::size_t>(rank) * 41u +
                              static_cast<std::size_t>(i) * 13u) %
                             buckets));
  }
  return c;
}

// --- hook contract ----------------------------------------------------------

TEST(PartitionableContract, TraitDetection) {
  EXPECT_TRUE(rs::op_partitionable<ops::Counts>());
  EXPECT_TRUE(rs::op_partitionable<ops::Histogram<double>>());
  EXPECT_TRUE(rs::op_partitionable<ops::MeanVar>());
  EXPECT_TRUE(rs::op_partitionable<ops::Sum<long>>());
  EXPECT_TRUE(rs::op_partitionable<ops::Min<int>>());
  EXPECT_TRUE(rs::op_partitionable<ops::Max<int>>());
  // Order- or structure-dependent states cannot combine range-by-range;
  // TSQR's Givens merge is not element-wise either.
  EXPECT_FALSE(rs::op_partitionable<ops::TSQR>());
  EXPECT_FALSE(rs::op_partitionable<ops::Concat>());
  EXPECT_FALSE(rs::op_partitionable<ops::Sorted<int>>());
  EXPECT_FALSE(rs::op_partitionable<ops::MinK<int>>());
}

// Segment widths for the combine_via_parts oracle sweeps.  The original
// sweep leaned on powers of two (plus the extent itself), which never
// exercised split points landing mid-way through an odd remainder — the
// ring and Rabenseifner cut n elements into p or 2^k chunks, so odd and
// prime widths are the common case, not the corner.
const std::size_t kPartWidths[] = {1, 2, 3, 5, 7, 11, 13, 31, 32,
                                   61, 97, 128, 1000};

TEST(PartitionableContract, CombineViaPartsMatchesWholeCombine) {
  const auto left = filled_counts(97, 0);
  const auto right = filled_counts(97, 1);
  const auto whole = rs::serial::combine(left, right);
  for (const std::size_t width : kPartWidths) {
    const auto parts = rs::serial::combine_via_parts(left, right, width);
    EXPECT_EQ(save_op(parts), save_op(whole)) << "segment width " << width;
  }
}

TEST(PartitionableContract, HistogramCombineViaParts) {
  const std::vector<double> edges = {0.0, 1.0, 2.5, 4.0, 10.0};
  ops::Histogram<double> left(edges), right(edges);
  for (int i = 0; i < 40; ++i) {
    left.accum(static_cast<double>(i % 11));
    right.accum(static_cast<double>((i * 7) % 13) - 1.0);
  }
  const auto whole = rs::serial::combine(left, right);
  for (const std::size_t width : kPartWidths) {
    EXPECT_EQ(rs::serial::combine_via_parts(left, right, width).red_gen(),
              whole.red_gen())
        << "segment width " << width;
  }
}

TEST(PartitionableContract, ScalarAndMeanVarDegenerateToWholeState) {
  ops::Sum<long> a, b;
  a.accum(41);
  b.accum(59);
  EXPECT_EQ(rs::serial::combine_via_parts(a, b).gen(),
            rs::serial::combine(a, b).gen());

  ops::MeanVar ma, mb;
  for (int i = 0; i < 20; ++i) {
    ma.accum(0.5 * i);
    mb.accum(1.25 * i - 3.0);
  }
  // Single-element extent: combine_via_parts performs the identical Chan
  // combine, so even the floating-point fields agree exactly.
  EXPECT_EQ(rs::serial::combine_via_parts(ma, mb).gen(),
            rs::serial::combine(ma, mb).gen());
}

TEST(PartitionableContract, SavePartLoadPartRoundTrips) {
  const auto src = filled_counts(61, 3);
  ops::Counts dst(61);
  const std::size_t n = src.part_extent();
  for (std::size_t lo = 0; lo < n; lo += 7) {
    const std::size_t hi = std::min(n, lo + 7);
    bytes::Writer w;
    src.save_part(lo, hi, w);
    EXPECT_EQ(w.size(), src.part_bytes(lo, hi));
    dst.load_part(lo, hi, w.view());
  }
  EXPECT_EQ(save_op(dst), save_op(src));
}

TEST(PartitionableContract, RangeAndSizeValidation) {
  ops::Counts c(8);
  bytes::Writer w;
  EXPECT_THROW(c.save_part(5, 3, w), ProtocolError);   // lo > hi
  EXPECT_THROW(c.save_part(0, 9, w), ProtocolError);   // hi out of bounds
  c.save_part(0, 4, w);
  EXPECT_THROW(c.combine_part(0, 3, w.view()), ProtocolError);  // wrong size
  EXPECT_THROW(c.load_part(0, 3, w.view()), ProtocolError);
}

// --- schedule equivalence ---------------------------------------------------

/// Runs the legacy two-message allreduce and each segmented schedule on
/// copies of the same accumulated state, on every rank count in kSegRanks,
/// fault-free and faulted, and hands (legacy, candidate, label) to `eq`.
template <typename Op, typename Fill, typename Eq>
void segmented_schedules_agree(const Op& prototype, Fill fill, Eq eq) {
  int variant = 0;
  for (const int p : kSegRanks) {
    for (const bool faulted : {false, true}) {
      mprt::run(
          p,
          [&](Comm& comm) {
            Op mine = prototype;
            fill(mine, comm.rank());
            Op legacy = mine;
            rs::detail::state_allreduce_reduce_bcast(comm, legacy,
                                                     /*commutative=*/true);
            Op ring = mine;
            rs::detail::state_allreduce_ring(comm, ring);
            Op rab = mine;
            rs::detail::state_allreduce_rabenseifner(comm, rab);
            const std::string ctx = "p=" + std::to_string(p) +
                                    (faulted ? " faulted" : "");
            eq(legacy, ring, "ring " + ctx);
            eq(legacy, rab, "rabenseifner " + ctx);
          },
          mprt::CostModel{}, faulted ? benign_plan(p, variant) : SimConfig{});
      ++variant;
    }
  }
}

TEST(SegmentedSchedules, CountsBitIdenticalAcrossSchedules) {
  segmented_schedules_agree(
      ops::Counts(97),
      [](ops::Counts& c, int rank) { c = filled_counts(97, rank); },
      [](const ops::Counts& legacy, const ops::Counts& got,
         const std::string& ctx) {
        EXPECT_EQ(save_op(got), save_op(legacy)) << ctx;
      });
}

TEST(SegmentedSchedules, HistogramBitIdenticalAcrossSchedules) {
  std::vector<double> edges;
  for (int i = 0; i <= 24; ++i) edges.push_back(0.5 * i);
  const ops::Histogram<double> prototype(edges);
  segmented_schedules_agree(
      prototype,
      [](ops::Histogram<double>& h, int rank) {
        for (int i = 0; i < 64; ++i) {
          h.accum(static_cast<double>((rank * 37 + i * 5) % 160) * 0.1 - 1.0);
        }
      },
      [](const auto& legacy, const auto& got, const std::string& ctx) {
        EXPECT_EQ(save_op(got), save_op(legacy)) << ctx;
      });
}

TEST(SegmentedSchedules, ScalarOpsBitIdenticalAcrossSchedules) {
  segmented_schedules_agree(
      ops::Sum<long>{},
      [](ops::Sum<long>& s, int rank) { s.accum(rank * 1001L + 7); },
      [](const auto& legacy, const auto& got, const std::string& ctx) {
        EXPECT_EQ(got.gen(), legacy.gen()) << ctx;
      });
  segmented_schedules_agree(
      ops::Min<int>{},
      [](ops::Min<int>& m, int rank) { m.accum((rank * 577) % 83 - 40); },
      [](const auto& legacy, const auto& got, const std::string& ctx) {
        EXPECT_EQ(got.gen(), legacy.gen()) << ctx;
      });
  segmented_schedules_agree(
      ops::Max<int>{},
      [](ops::Max<int>& m, int rank) { m.accum((rank * 733) % 89); },
      [](const auto& legacy, const auto& got, const std::string& ctx) {
        EXPECT_EQ(got.gen(), legacy.gen()) << ctx;
      });
}

TEST(SegmentedSchedules, MeanVarAgreesUpToRounding) {
  // The Chan combine is floating-point: different schedules bracket the
  // pairwise merges differently, so results agree only up to rounding.
  segmented_schedules_agree(
      ops::MeanVar{},
      [](ops::MeanVar& m, int rank) {
        for (int i = 0; i < 25; ++i) {
          m.accum(static_cast<double>(rank) * 0.75 + 0.1 * i);
        }
      },
      [](const ops::MeanVar& legacy, const ops::MeanVar& got,
         const std::string& ctx) {
        const auto a = legacy.gen();
        const auto b = got.gen();
        EXPECT_EQ(b.count, a.count) << ctx;
        EXPECT_NEAR(b.mean, a.mean, 1e-9) << ctx;
        EXPECT_NEAR(b.variance, a.variance, 1e-9) << ctx;
      });
}

// --- autotuner --------------------------------------------------------------

TEST(Autotuner, DecisionTableUnderDefaultModel) {
  const mprt::CostModel m;  // o = 1 us, L = 10 us, G = 1 ns/B
  using rs::detail::choose_allreduce_schedule;

  // Small states: latency-dominated, the log-round butterfly wins.
  EXPECT_EQ(choose_allreduce_schedule(m, 8, 4 * 1024), Schedule::kButterfly);
  EXPECT_EQ(choose_allreduce_schedule(m, 16, 16 * 1024),
            Schedule::kButterfly);
  // Past the butterfly's comfort zone at power-of-two p: chunked
  // Rabenseifner, bandwidth-optimal volume in only 2·log2 p rounds, up to
  // the largest states.
  EXPECT_EQ(choose_allreduce_schedule(m, 16, 64 * 1024),
            Schedule::kRabenseifner);
  EXPECT_EQ(choose_allreduce_schedule(m, 8, 64 * 1024),
            Schedule::kRabenseifner);
  EXPECT_EQ(choose_allreduce_schedule(m, 16, 4 * 1024 * 1024),
            Schedule::kRabenseifner);
  EXPECT_EQ(choose_allreduce_schedule(m, 8, 512 * 1024),
            Schedule::kRabenseifner);
  // At small non-power-of-two p the ring's 2·(p−1) chunk hops undercut
  // the halving schedule's whole-state fold penalty.
  EXPECT_EQ(choose_allreduce_schedule(m, 3, 100 * 1024), Schedule::kRing);
}

TEST(Autotuner, ChoiceIsTheCostModelArgmin) {
  const mprt::CostModel m;
  using SC = mprt::ScheduleCost;
  for (const int p : {2, 3, 5, 8, 12, 16, 32}) {
    for (const std::size_t bytes :
         {std::size_t{256}, std::size_t{4096}, std::size_t{65536},
          std::size_t{1} << 20, std::size_t{4} << 20}) {
      const Schedule s = rs::detail::choose_allreduce_schedule(m, p, bytes);
      const double costs[] = {
          SC::two_message(m, p, bytes), SC::butterfly(m, p, bytes),
          SC::rabenseifner(m, p, bytes), SC::ring(m, p, bytes)};
      double best = costs[0];
      for (const double c : costs) best = std::min(best, c);
      const double chosen =
          s == Schedule::kTwoMessage    ? costs[0]
          : s == Schedule::kButterfly   ? costs[1]
          : s == Schedule::kRabenseifner ? costs[2]
                                         : costs[3];
      EXPECT_DOUBLE_EQ(chosen, best) << "p=" << p << " bytes=" << bytes;
    }
  }
}

TEST(Autotuner, EnvParsing) {
  using rs::detail::schedule_from_env;
  EXPECT_EQ(schedule_from_env(), Schedule::kAuto);  // unset
  {
    EnvGuard g("RSMPI_SCHEDULE", "auto");
    EXPECT_EQ(schedule_from_env(), Schedule::kAuto);
  }
  {
    EnvGuard g("RSMPI_SCHEDULE", "ring");
    EXPECT_EQ(schedule_from_env(), Schedule::kRing);
  }
  {
    EnvGuard g("RSMPI_SCHEDULE", "reduce_bcast");  // accepted alias
    EXPECT_EQ(schedule_from_env(), Schedule::kTwoMessage);
  }
  {
    EnvGuard g("RSMPI_SCHEDULE", "hypercube");  // typo → loud failure
    EXPECT_THROW(schedule_from_env(), ArgumentError);
  }
  {
    // Names no schedule, so it fails as loudly as a typo.
    EnvGuard g("RSMPI_SCHEDULE", "pipelined");
    EXPECT_THROW(schedule_from_env(), ArgumentError);
  }
}

TEST(Autotuner, EnvOverrideForcesScheduleThroughDispatch) {
  // Forced ring through the public dispatch must match the legacy result
  // (which ignores the env var) bit-exactly.
  EnvGuard g("RSMPI_SCHEDULE", "ring");
  for (const int p : {4, 6}) {
    mprt::run(p, [&](Comm& comm) {
      ops::Counts forced = filled_counts(97, comm.rank());
      ops::Counts legacy = forced;
      rs::detail::state_allreduce(comm, forced);
      rs::detail::state_allreduce_reduce_bcast(comm, legacy,
                                               /*commutative=*/true);
      EXPECT_EQ(save_op(forced), save_op(legacy)) << "p=" << p;
    });
  }
}

TEST(Autotuner, NonPartitionableOpFallsBackGracefully) {
  // MinK is commutative but not partitionable: a segmented schedule name
  // in the env must fall back to the butterfly, not fail.
  EnvGuard g("RSMPI_SCHEDULE", "ring");
  mprt::run(6, [&](Comm& comm) {
    std::vector<int> mine;
    for (int i = 0; i < 9; ++i) mine.push_back((comm.rank() * 41 + i * 13) % 97);
    const auto got = rs::reduce(comm, mine, ops::MinK<int>(3));
    std::vector<int> global;
    for (int r = 0; r < comm.size(); ++r) {
      for (int i = 0; i < 9; ++i) global.push_back((r * 41 + i * 13) % 97);
    }
    EXPECT_EQ(got, rs::serial::reduce(global, ops::MinK<int>(3)));
  });
}

TEST(Autotuner, AutotunedDispatchMatchesLegacyOnLargeStates) {
  // Large partitionable state with no env override: the dispatcher picks a
  // segmented schedule (whichever the model prefers) and the result must
  // still be bit-identical to the legacy path.
  constexpr std::size_t kBuckets = 1 << 15;  // 256 KiB of state
  for (const int p : {8, 12}) {
    mprt::run(p, [&](Comm& comm) {
      ops::Counts tuned = filled_counts(kBuckets, comm.rank(), 200);
      ops::Counts legacy = tuned;
      rs::detail::state_allreduce(comm, tuned);
      rs::detail::state_allreduce_reduce_bcast(comm, legacy,
                                               /*commutative=*/true);
      EXPECT_EQ(save_op(tuned), save_op(legacy)) << "p=" << p;
    });
  }
}

/// Modelled critical path of `reduce` run on `buckets`-bucket Counts states
/// at p ranks, on the default model at compute_scale 0.
template <typename Reduce>
double counts_reduce_seconds(int p, std::size_t buckets, Reduce reduce) {
  mprt::CostModel model;
  model.compute_scale = 0.0;
  return mprt::run(
             p,
             [&](Comm& comm) {
               ops::Counts op = filled_counts(buckets, comm.rank());
               reduce(comm, op);
             },
             model)
      .makespan_s;
}

// A commutative reduce to rank 0 takes fold-on-arrival while a
// partitionable state is small and the binomial tree once it is
// bandwidth-bound, so it runs the faster of the two whole-state trees.
TEST(ReduceToRoot, TakesTheFasterWholeStateTree) {
  for (const int p : {4, 8, 16}) {
    for (const std::size_t bytes :
         {std::size_t{4} << 10, std::size_t{64} << 10}) {
      const std::size_t buckets = bytes / sizeof(long);
      const double fold =
          counts_reduce_seconds(p, buckets, [](Comm& comm, ops::Counts& op) {
            rs::detail::state_reduce_unordered(comm, rs::detail::whole(comm),
                                               comm.next_collective_tag(), op);
          });
      const double binomial =
          counts_reduce_seconds(p, buckets, [](Comm& comm, ops::Counts& op) {
            rs::detail::state_reduce_binomial(comm, op);
          });
      const double dispatched =
          counts_reduce_seconds(p, buckets, [](Comm& comm, ops::Counts& op) {
            rs::detail::state_reduce_to_zero(comm, op);
          });
      if (bytes < (std::size_t{16} << 10)) {
        EXPECT_LT(fold, binomial) << "p=" << p << " bytes=" << bytes;
      } else {
        EXPECT_LT(binomial, fold) << "p=" << p << " bytes=" << bytes;
      }
      EXPECT_EQ(dispatched, std::min(fold, binomial))
          << "p=" << p << " bytes=" << bytes;
    }
  }
}

// --- nonblocking path -------------------------------------------------------

/// Per-rank traffic and final clock of one reduction run.
struct RunTraffic {
  std::vector<std::uint64_t> messages;
  std::vector<std::uint64_t> bytes;
  std::vector<double> clock;
};

RunTraffic counts_reduce_traffic(int p, bool async) {
  mprt::CostModel model;
  model.compute_scale = 0.0;
  RunTraffic t;
  t.messages.resize(static_cast<std::size_t>(p));
  t.bytes.resize(static_cast<std::size_t>(p));
  const auto result = mprt::run(
      p,
      [&](Comm& comm) {
        std::vector<int> mine;
        for (int i = 0; i < 300; ++i) {
          mine.push_back((comm.rank() * 97 + i * 31) % 4096);
        }
        if (async) {
          (void)rs::reduce_async(comm, mine, ops::Counts(4096)).get();
        } else {
          (void)rs::reduce(comm, mine, ops::Counts(4096));
        }
        const auto r = static_cast<std::size_t>(comm.rank());
        t.messages[r] = comm.messages_sent();
        t.bytes[r] = comm.bytes_sent();
      },
      model);
  t.clock = result.rank_times_s;
  return t;
}

// reduce_async runs state_allreduce itself on the progress engine, so
// under every schedule pin (and the autotuner's own pick) each rank sends
// the messages and bytes the blocking reduce sends and ends on the same
// virtual clock — two_message's combine-as-available tree included, since
// it charges its fan-in in arrival-stamp order, not in the order the host
// queued it.
TEST(AsyncSchedules, SameTrafficAndFinishAsBlocking) {
  for (const std::string schedule :
       {"auto", "two_message", "butterfly", "rabenseifner", "ring"}) {
    EnvGuard g("RSMPI_SCHEDULE", schedule.c_str());
    for (const int p : {2, 3, 5, 8}) {
      const RunTraffic blocking = counts_reduce_traffic(p, /*async=*/false);
      const RunTraffic async = counts_reduce_traffic(p, /*async=*/true);
      EXPECT_EQ(async.messages, blocking.messages) << schedule << " p=" << p;
      EXPECT_EQ(async.bytes, blocking.bytes) << schedule << " p=" << p;
      EXPECT_EQ(async.clock, blocking.clock) << schedule << " p=" << p;
    }
  }
}

// The combine-as-available tree's modelled clocks are a function of the
// program alone: repeated runs give one clock vector, in the global view
// (rs::reduce under two_message) and in the local view (kUnorderedTree).
TEST(AsyncSchedules, CombineAsAvailableClocksRepeat) {
  mprt::CostModel model;
  model.compute_scale = 0.0;
  const auto clocks = [&](bool global) {
    return mprt::run(
               8,
               [&](Comm& comm) {
                 if (global) {
                   std::vector<int> mine;
                   for (int i = 0; i < 64; ++i) {
                     mine.push_back((comm.rank() * 64 + i) % 4096);
                   }
                   (void)rs::reduce(comm, mine, ops::Counts(4096));
                 } else {
                   std::vector<long> v(4096, comm.rank());
                   coll::local_reduce(
                       comm, 0, std::span<long>(v),
                       coll::ElementwiseOp<long, coll::Sum<long>>{},
                       coll::ReduceAlgo::kUnorderedTree);
                 }
               },
               model)
        .rank_times_s;
  };
  EnvGuard g("RSMPI_SCHEDULE", "two_message");
  for (const bool global : {true, false}) {
    const std::vector<double> first = clocks(global);
    for (int i = 0; i < 100; ++i) {
      ASSERT_EQ(clocks(global), first) << (global ? "global" : "local")
                                       << " view, run " << i;
    }
  }
}

TEST(AsyncRing, EnvForcedRingMatchesOracle) {
  EnvGuard g("RSMPI_SCHEDULE", "ring");
  for (const int p : {2, 4, 6}) {
    std::vector<int> global;
    for (int r = 0; r < p; ++r) {
      for (int i = 0; i < 57; ++i) global.push_back((r * 41 + i * 13) % 97);
    }
    const auto expected = rs::serial::reduce(global, ops::Counts(97));
    mprt::run(p, [&](Comm& comm) {
      std::vector<int> mine;
      for (int i = 0; i < 57; ++i) {
        mine.push_back((comm.rank() * 41 + i * 13) % 97);
      }
      auto fut = rs::reduce_async(comm, mine, ops::Counts(97));
      EXPECT_EQ(fut.get(), expected) << "p=" << p;
    });
  }
}

TEST(AsyncRing, AutoPicksRingForLargeStates) {
  // At p=4 under the default model the ring beats the butterfly once the
  // state exceeds ~112 KB; Counts(1 << 14) is 128 KiB, so the autotuner
  // steers the async combine away from the butterfly on its own.  The test
  // pins only the result — identical to the oracle.
  constexpr std::size_t kBuckets = 1 << 14;
  const int p = 4;
  std::vector<int> global;
  for (int r = 0; r < p; ++r) {
    for (int i = 0; i < 300; ++i) {
      global.push_back(static_cast<int>((static_cast<std::size_t>(r) * 41u +
                                         static_cast<std::size_t>(i) * 13u) %
                                        kBuckets));
    }
  }
  const auto expected = rs::serial::reduce(global, ops::Counts(kBuckets));
  mprt::run(p, [&](Comm& comm) {
    std::vector<int> mine;
    for (int i = 0; i < 300; ++i) {
      mine.push_back(static_cast<int>((static_cast<std::size_t>(comm.rank()) *
                                           41u +
                                       static_cast<std::size_t>(i) * 13u) %
                                      kBuckets));
    }
    auto fut = rs::reduce_async(comm, mine, ops::Counts(kBuckets));
    EXPECT_EQ(fut.get(), expected);
  });
}

// --- segment-buffer recycling -----------------------------------------------

TEST(SegmentReuse, RingRunRecyclesSegmentBuffers) {
  EnvGuard sched("RSMPI_SCHEDULE", "ring");
  const auto result = mprt::run(8, [&](Comm& comm) {
    for (int iter = 0; iter < 3; ++iter) {
      // 16 KiB state → 2 KiB ring chunks, 14 sent and received per rank
      ops::Counts c = filled_counts(2048, comm.rank(), 80);
      rs::detail::state_allreduce(comm, c);
    }
  });
  // Size-class bins serve repeat segment-sized acquires from the matching
  // bin; the counter rolls up into the run result.
  EXPECT_GT(result.metrics[mprt::Metric::kSegmentsReused], 0u);
}

}  // namespace
