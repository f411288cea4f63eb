// Two-level (topology-aware) allreduce (ISSUE 10): correctness of the
// hierarchical schedule on two-tier cost models, the autotuner's crossover
// to it at scale, and the per-tier traffic accounting.
//
// Correctness is checked against the verify-registry serial oracles: for
// exact operators every bracketing of the ordered combine chain agrees
// with the serial left fold, so the hierarchical schedule — whose
// bracketing differs from the flat schedules' — must still match bit for
// bit, commutative and noncommutative alike, including ragged last nodes.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "mprt/cost_model.hpp"
#include "mprt/runtime.hpp"
#include "rs/state_exchange.hpp"
#include "util/error.hpp"
#include "verify/registry.hpp"

namespace {

using namespace rsmpi;
using mprt::Comm;
using mprt::CostModel;
using mprt::ScheduleCost;
using rs::detail::Schedule;

/// Scoped RSMPI_SCHEDULE override (tests in this binary run sequentially,
/// so process-global env is safe here).
class ScopedSchedule {
 public:
  explicit ScopedSchedule(const char* name) {
    ::setenv("RSMPI_SCHEDULE", name, /*overwrite=*/1);
  }
  ~ScopedSchedule() { ::unsetenv("RSMPI_SCHEDULE"); }
};

template <typename Op>
std::vector<rs::reduce_result_t<Op>> run_allreduce(int p,
                                                   const CostModel& model) {
  std::vector<rs::reduce_result_t<Op>> results(static_cast<std::size_t>(p));
  mprt::run(p, [&](Comm& comm) {
    Op op = verify::accumulated<Op>(comm.rank());
    rs::detail::state_allreduce(comm, op);
    results[static_cast<std::size_t>(comm.rank())] = rs::red_result(op);
  }, model);
  return results;
}

// Forced hierarchical schedule across node shapes — even ranks per node,
// ragged last node, single node, more nodes than a power of two — must
// reproduce the serial oracle on every rank for a commutative operator.
TEST(Hierarchical, ForcedMatchesOracleAcrossNodeShapes) {
  const ScopedSchedule forced("hierarchical");
  struct Shape { int p; int rpn; };
  for (const auto& [p, rpn] :
       {Shape{8, 2}, Shape{8, 4}, Shape{10, 4}, Shape{16, 16}, Shape{13, 3},
        Shape{5, 2}}) {
    const auto results =
        run_allreduce<rs::ops::Counts>(p, CostModel::cluster_of_smp(rpn));
    const auto want = verify::expected_result<rs::ops::Counts>(p);
    for (int r = 0; r < p; ++r) {
      ASSERT_TRUE(results[static_cast<std::size_t>(r)] == want)
          << "p=" << p << " rpn=" << rpn << " rank " << r;
    }
  }
}

// Noncommutative safety: OrderedWord concatenates strings, so any result
// other than the in-rank-order word reveals an out-of-order combine.  The
// forced hierarchical schedule pins its leader tier to the ordered
// binomial and must produce the exact serial word, ragged nodes included.
TEST(Hierarchical, ForcedPreservesNoncommutativeOrder) {
  const ScopedSchedule forced("hierarchical");
  struct Shape { int p; int rpn; };
  for (const auto& [p, rpn] :
       {Shape{10, 4}, Shape{16, 4}, Shape{7, 2}, Shape{9, 3}}) {
    const auto results =
        run_allreduce<verify::OrderedWord>(p, CostModel::cluster_of_smp(rpn));
    const auto want = verify::expected_result<verify::OrderedWord>(p);
    for (int r = 0; r < p; ++r) {
      ASSERT_TRUE(results[static_cast<std::size_t>(r)] == want)
          << "p=" << p << " rpn=" << rpn << " rank " << r;
    }
  }
}

// On a flat model a forced hierarchical request degenerates to one node
// spanning all ranks (rpn = 1 → every rank its own leader): the leader
// tier handles everything, and results still match the oracle.
TEST(Hierarchical, ForcedOnFlatModelStillCorrect) {
  const ScopedSchedule forced("hierarchical");
  const auto results = run_allreduce<rs::ops::Counts>(12, CostModel{});
  const auto want = verify::expected_result<rs::ops::Counts>(12);
  for (int r = 0; r < 12; ++r) {
    ASSERT_TRUE(results[static_cast<std::size_t>(r)] == want) << "rank " << r;
  }
}

// Large partitionable state: the leader-tier cost comparison routes big
// states to a segmented variant instead of whole-state binomial hops.
// Two shapes pin down both segmented tiers with a ~8 KB 1024-bucket
// Counts state:
//   * 3 nodes (p=6, rpn=2): Rabenseifner pays two whole-state fold hops
//     at non-power-of-two node counts, so the ring wins;
//   * 4 nodes (p=8, rpn=2): power-of-two, Rabenseifner wins.
TEST(Hierarchical, SegmentedLeaderTiersMatchOracle) {
  constexpr std::size_t kBuckets = 1024;
  constexpr int kPerRank = 64;
  const std::size_t bytes = rs::part_state_bytes(rs::ops::Counts(kBuckets));

  // The cost model really does pick each segmented tier for its shape: the
  // leader tier is the flat schedules on the inter-tier model.
  const CostModel model = CostModel::cluster_of_smp(2);
  const CostModel inter = model.inter_tier();
  EXPECT_LT(ScheduleCost::ring(inter, 3, bytes),
            ScheduleCost::rabenseifner(inter, 3, bytes));
  EXPECT_LT(ScheduleCost::ring(inter, 3, bytes),
            ScheduleCost::two_message(inter, 3, bytes));
  EXPECT_LT(ScheduleCost::rabenseifner(inter, 4, bytes),
            ScheduleCost::ring(inter, 4, bytes));
  EXPECT_LT(ScheduleCost::rabenseifner(inter, 4, bytes),
            ScheduleCost::two_message(inter, 4, bytes));

  for (const int p : {6, 8}) {
    // The direct entry point, so no env forcing is needed and the
    // commutative flag is explicit.
    std::vector<std::vector<long>> results(static_cast<std::size_t>(p));
    mprt::run(p, [&](Comm& comm) {
      rs::ops::Counts op(kBuckets);
      for (int i = 0; i < kPerRank; ++i) {
        op.accum((comm.rank() * kPerRank + i * 37) %
                 static_cast<int>(kBuckets));
      }
      rs::detail::state_allreduce_hierarchical(comm, op, /*commutative=*/true);
      results[static_cast<std::size_t>(comm.rank())] = rs::red_result(op);
    }, model);

    rs::ops::Counts serial(kBuckets);
    for (int r = 0; r < p; ++r) {
      for (int i = 0; i < kPerRank; ++i) {
        serial.accum((r * kPerRank + i * 37) % static_cast<int>(kBuckets));
      }
    }
    const auto want = rs::red_result(serial);
    for (int r = 0; r < p; ++r) {
      ASSERT_TRUE(results[static_cast<std::size_t>(r)] == want)
          << "p=" << p << " rank " << r;
    }
  }
}

// Exact traffic and modelled finish of the hierarchical schedule on
// cluster_of_smp(8) with free compute, one case per leader tier:
// Rabenseifner at 2, 8 and 32 nodes, the ring at 3 nodes, and the ordered
// two-message tier for the noncommutative OrderedWord.  Any change to the
// schedule's messages, their sizes, their tier or their order moves one of
// these numbers.
TEST(Hierarchical, TrafficAndFinishArePinned) {
  struct Case {
    int p;
    std::size_t buckets;  // Counts(buckets); 0 = OrderedWord
    std::uint64_t messages;
    std::uint64_t bytes;
    std::uint64_t intra_bytes;
    std::uint64_t inter_bytes;
    double makespan_s;
  };
  const Case cases[] = {
      {12, 1024, 24, 180384, 164000, 16384, 2.4512000000000012e-05},
      {24, 1024, 54, 377168, 344400, 32768, 3.3263999999999992e-05},
      {64, 1024, 160, 1033088, 918400, 114688, 4.2655999999999986e-05},
      {256, 8192, 768, 33426944, 29363712, 4063232, 2.0170240000000006e-04},
      {12, 0, 22, 2048, 1831, 217, 9.8540999999999994e-06},
      {64, 0, 126, 62244, 54209, 8035, 2.7362400000000001e-05},
      {256, 0, 510, 1111644, 967613, 144031, 6.2618899999999998e-05},
  };
  CostModel model = CostModel::cluster_of_smp(8);
  model.compute_scale = 0.0;
  using Tier = ScheduleCost::LeaderTier;
  EXPECT_EQ(ScheduleCost::hierarchical_leader(model, 3, 8192).tier,
            Tier::kRing);
  for (const int nodes : {2, 8, 32}) {
    EXPECT_EQ(ScheduleCost::hierarchical_leader(model, nodes, 8192).tier,
              Tier::kRabenseifner);
  }

  for (const Case& c : cases) {
    const mprt::RunResult r = mprt::run(c.p, [&](Comm& comm) {
      if (c.buckets == 0) {
        auto op = verify::accumulated<verify::OrderedWord>(comm.rank());
        rs::detail::state_allreduce_hierarchical(comm, op);
        EXPECT_EQ(op.gen(), verify::expected_result<verify::OrderedWord>(c.p));
        return;
      }
      rs::ops::Counts op(c.buckets);
      for (int i = 0; i < 64; ++i) {
        op.accum((comm.rank() * 64 + i * 37) % static_cast<int>(c.buckets));
      }
      rs::detail::state_allreduce_hierarchical(comm, op);
    }, model);
    const std::string what = "p=" + std::to_string(c.p) + " buckets=" +
                             std::to_string(c.buckets);
    EXPECT_EQ(r.metrics[mprt::Metric::kMessagesSent], c.messages) << what;
    EXPECT_EQ(r.metrics[mprt::Metric::kBytesSent], c.bytes) << what;
    EXPECT_EQ(r.metrics[mprt::Metric::kIntraNodeBytes], c.intra_bytes) << what;
    EXPECT_EQ(r.metrics[mprt::Metric::kInterNodeBytes], c.inter_bytes) << what;
    EXPECT_DOUBLE_EQ(r.makespan_s, c.makespan_s) << what;
  }
}

// The autotuner crossover (acceptance criterion): with asymmetric two-tier
// LogGP parameters and port contention, the hierarchical schedule's
// modelled critical path beats every flat schedule at p >= 256 for a
// bandwidth-relevant state, and choose_allreduce_schedule picks it.  On a
// flat model it must never be picked (it is not even a candidate).
TEST(Hierarchical, AutotunerPicksHierarchicalAtScale) {
  const CostModel smp = CostModel::cluster_of_smp(8);
  constexpr std::size_t kBytes = 64 * 1024;
  constexpr std::size_t kSegment = 4 * 1024;

  for (const int p : {256, 1024, 4096}) {
    const double hier = ScheduleCost::hierarchical(smp, p, kBytes);
    EXPECT_LT(hier, ScheduleCost::butterfly(smp, p, kBytes)) << "p=" << p;
    EXPECT_LT(hier, ScheduleCost::two_message(smp, p, kBytes)) << "p=" << p;
    EXPECT_LT(hier, ScheduleCost::rabenseifner(smp, p, kBytes)) << "p=" << p;
    EXPECT_LT(hier, ScheduleCost::ring(smp, p, kBytes)) << "p=" << p;
    EXPECT_EQ(rs::detail::choose_allreduce_schedule(smp, p, kBytes, kSegment),
              Schedule::kHierarchical)
        << "p=" << p;
  }

  // Small machines stay on flat schedules even under the two-tier model...
  EXPECT_NE(rs::detail::choose_allreduce_schedule(smp, 8, kBytes, kSegment),
            Schedule::kHierarchical);
  // ...and flat models never see the hierarchical candidate at all.
  EXPECT_NE(
      rs::detail::choose_allreduce_schedule(CostModel{}, 1024, kBytes, kSegment),
      Schedule::kHierarchical);
}

// Per-tier traffic accounting: under a two-tier model every sent byte is
// classified intra- or inter-node, the two counters partition the total,
// and both tiers are genuinely exercised by the hierarchical schedule.
// Flat runs must leave both counters at zero.
TEST(Hierarchical, TierByteCountersPartitionTraffic) {
  const ScopedSchedule forced("hierarchical");
  const mprt::RunResult two_tier = mprt::run(8, [](Comm& comm) {
    auto op = verify::accumulated<rs::ops::Counts>(comm.rank());
    rs::detail::state_allreduce(comm, op);
  }, CostModel::cluster_of_smp(4));
  EXPECT_GT(two_tier.metrics[mprt::Metric::kIntraNodeBytes], 0u);
  EXPECT_GT(two_tier.metrics[mprt::Metric::kInterNodeBytes], 0u);
  EXPECT_EQ(two_tier.metrics[mprt::Metric::kIntraNodeBytes] +
                two_tier.metrics[mprt::Metric::kInterNodeBytes],
            two_tier.metrics[mprt::Metric::kBytesSent]);

  const mprt::RunResult flat = mprt::run(8, [](Comm& comm) {
    auto op = verify::accumulated<rs::ops::Counts>(comm.rank());
    rs::detail::state_allreduce(comm, op);
  }, CostModel{});
  EXPECT_EQ(flat.metrics[mprt::Metric::kIntraNodeBytes], 0u);
  EXPECT_EQ(flat.metrics[mprt::Metric::kInterNodeBytes], 0u);
}

}  // namespace
