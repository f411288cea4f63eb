// Tests for the RSMPI C-style surface: Listing 8's sorted operator
// verbatim, the counts operator with split generate functions, the
// default-communicator convenience, and equivalence with the native
// operator-class layer.
#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <climits>
#include <cstdint>
#include <numeric>
#include <vector>

#include "mprt/runtime.hpp"
#include "rs/ops/ops.hpp"
#include "rs/reduce.hpp"
#include "rsmpi_c/rsmpi_c.hpp"

namespace {

using namespace rsmpi;
using mprt::Metric;

/// Listing 8, transliterated field for field.
struct CSorted {
  using In = int;
  struct State {
    int first, last;
    int status;
  };
  static constexpr bool commutative = false;  // `non-commutative`

  static void ident(State& s) {
    s.first = INT_MAX;
    s.last = INT_MIN;
    s.status = 1;
  }
  static void pre_accum(State& s, const In& i) { s.first = i; }
  static void accum(State& s, const In& i) {
    if (s.last > i) s.status = 0;
    s.last = i;
  }
  static void combine(State& s1, const State& s2) {
    s1.status = s1.status && s2.status && (s1.last <= s2.first);
    s1.last = s2.last;
  }
  static int generate(const State& s) { return s.status; }
};

/// Listing 6's counts operator in the C shape: red vs scan generates.
struct CCounts {
  using In = int;
  static constexpr std::size_t kBuckets = 8;
  struct State {
    long v[kBuckets];
  };
  static void ident(State& s) {
    for (auto& c : s.v) c = 0;
  }
  static void accum(State& s, const In& x) { s.v[x] += 1; }
  static void combine(State& s1, const State& s2) {
    for (std::size_t i = 0; i < kBuckets; ++i) s1.v[i] += s2.v[i];
  }
  static std::vector<long> generate(const State& s) {
    return {s.v, s.v + kBuckets};
  }
  static long scan_generate(const State& s, const In& x) { return s.v[x]; }
};

class CApiSweep : public ::testing::TestWithParam<int> {};

TEST_P(CApiSweep, SortedReduceallAcceptsSortedData) {
  const int p = GetParam();
  mprt::run(p, [](mprt::Comm& comm) {
    std::vector<int> mine(20);
    std::iota(mine.begin(), mine.end(), comm.rank() * 20);
    int sorted = 0;
    c_api::RSMPI_Reduceall<CSorted>(&sorted, mine, comm);
    EXPECT_EQ(sorted, 1);
  });
}

TEST_P(CApiSweep, SortedReduceallRejectsBoundaryViolations) {
  const int p = GetParam();
  if (p < 2) GTEST_SKIP() << "needs a rank boundary";
  mprt::run(p, [](mprt::Comm& comm) {
    // Descending across ranks, ascending within.
    std::vector<int> mine(5);
    std::iota(mine.begin(), mine.end(), (comm.size() - comm.rank()) * 100);
    int sorted = 1;
    c_api::RSMPI_Reduceall<CSorted>(&sorted, mine, comm);
    EXPECT_EQ(sorted, 0);
  });
}

TEST_P(CApiSweep, DefaultCommunicatorIsTheWorld) {
  // §4: "the common case of using the MPI_COMM_WORLD communication group
  // as a default if another is omitted."
  const int p = GetParam();
  mprt::run(p, [](mprt::Comm& comm) {
    std::vector<int> mine(10);
    std::iota(mine.begin(), mine.end(), comm.rank() * 10);
    int sorted = 0;
    c_api::RSMPI_Reduceall<CSorted>(&sorted, mine);  // no comm argument
    EXPECT_EQ(sorted, 1);
  });
}

TEST_P(CApiSweep, ReduceDeliversToRootOnly) {
  const int p = GetParam();
  mprt::run(p, [](mprt::Comm& comm) {
    std::vector<int> mine = {comm.rank(), comm.rank() + 1};
    int sorted = -1;
    c_api::RSMPI_Reduce<CSorted>(&sorted, 0, mine, comm);
    if (comm.rank() == 0) {
      EXPECT_NE(sorted, -1);
    } else {
      EXPECT_EQ(sorted, -1);  // untouched off-root
    }
  });
}

TEST_P(CApiSweep, CountsScanMatchesNativeOperator) {
  const int p = GetParam();
  mprt::run(p, [](mprt::Comm& comm) {
    std::vector<int> mine;
    for (int i = 0; i < 30; ++i) {
      mine.push_back((comm.rank() * 30 + i) % 8);
    }
    std::vector<long> c_ranks;
    c_api::RSMPI_Scan<CCounts>(&c_ranks, mine, comm);
    const auto native = rs::scan(comm, mine, rs::ops::Counts(8));
    EXPECT_EQ(c_ranks, native);

    std::vector<long> c_counts;
    c_api::RSMPI_Reduceall<CCounts>(&c_counts, mine, comm);
    EXPECT_EQ(c_counts, rs::reduce(comm, mine, rs::ops::Counts(8)));
  });
}

TEST_P(CApiSweep, ExscanStartsAtIdentity) {
  const int p = GetParam();
  mprt::run(p, [](mprt::Comm& comm) {
    std::vector<int> mine = {comm.rank() % 8};
    std::vector<long> out;
    c_api::RSMPI_Exscan<CCounts>(&out, mine, comm);
    ASSERT_EQ(out.size(), 1u);
    if (comm.rank() == 0) {
      EXPECT_EQ(out[0], 0);  // identity state: nothing counted yet
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CApiSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 16));

TEST(CApi, ThisCommOutsideRunThrows) {
  EXPECT_THROW((void)mprt::this_comm(), Error);
}

TEST(CApi, GetStatsSnapshotsRankCounters) {
  mprt::run(3, [](mprt::Comm& comm) {
    c_api::RSMPI_Stats before;
    c_api::RSMPI_GetStats(&before, comm);
    EXPECT_EQ(before[Metric::kMessagesSent], 0u);
    EXPECT_EQ(before[Metric::kMessagesReceived], 0u);
    EXPECT_EQ(comm.collective_tags_consumed(), 0);

    std::vector<int> mine = {comm.rank() % 8, (comm.rank() + 1) % 8};
    std::vector<long> counts;
    c_api::RSMPI_Reduceall<CCounts>(&counts, mine, comm);

    c_api::RSMPI_Stats after;
    c_api::RSMPI_GetStats(&after, comm);
    EXPECT_GT(after[Metric::kMessagesSent], 0u);
    EXPECT_GT(after[Metric::kBytesSent], 0u);
    EXPECT_GT(after[Metric::kMessagesReceived], 0u);
    EXPECT_GT(comm.collective_tags_consumed(), 0);
    // No chaos configured: the sim totals stay zero.
    EXPECT_EQ(after[Metric::kChaosDropped], 0u);
    EXPECT_EQ(after[Metric::kChaosDuplicated], 0u);
    EXPECT_EQ(after[Metric::kChaosRankKilled], 0u);
  });
}

// Virtualization and topology counters through the C stats surface: a
// run on a two-tier model reports its worker pool and the per-tier
// traffic split; a default flat run reports the automatic pool width,
// min(p, usable CPUs), and keeps both tier fields at zero.
TEST(CApi, GetStatsSurfacesVirtualizationAndTiers) {
  mprt::run(8, [](mprt::Comm& comm) {
    std::vector<int> mine = {comm.rank() % 8};
    std::vector<long> counts;
    c_api::RSMPI_Reduceall<CCounts>(&counts, mine, comm);
    c_api::RSMPI_Stats stats;
    c_api::RSMPI_GetStats(&stats, comm);
    EXPECT_EQ(stats[Metric::kWorkers], 4u);
    EXPECT_GT(stats[Metric::kParkEvents], 0u);
    const std::uint64_t tiers =
        stats[Metric::kIntraNodeBytes] + stats[Metric::kInterNodeBytes];
    EXPECT_GT(tiers, 0u);
    EXPECT_EQ(tiers, stats[Metric::kBytesSent]);
  }, mprt::CostModel::cluster_of_smp(4), mprt::SimConfig{},
  mprt::ExecPolicy{/*workers=*/4, /*stack_bytes=*/0});

  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  ASSERT_EQ(sched_getaffinity(0, sizeof cpus, &cpus), 0);
  const std::uint64_t auto_workers =
      std::min<std::uint64_t>(2, static_cast<std::uint64_t>(CPU_COUNT(&cpus)));
  mprt::run(2, [auto_workers](mprt::Comm& comm) {
    std::vector<int> mine = {comm.rank() % 8};
    std::vector<long> counts;
    c_api::RSMPI_Reduceall<CCounts>(&counts, mine, comm);
    c_api::RSMPI_Stats stats;
    c_api::RSMPI_GetStats(&stats, comm);
    EXPECT_EQ(stats[Metric::kWorkers], auto_workers);
    EXPECT_EQ(stats[Metric::kIntraNodeBytes], 0u);
    EXPECT_EQ(stats[Metric::kInterNodeBytes], 0u);
  }, mprt::CostModel{}, mprt::SimConfig{},
  mprt::ExecPolicy{/*workers=*/0, /*stack_bytes=*/0});
}

TEST(CApi, GetStatsDefaultsToThisComm) {
  mprt::run(2, [](mprt::Comm& comm) {
    std::vector<int> mine = {comm.rank() % 8};
    std::vector<long> counts;
    c_api::RSMPI_Reduceall<CCounts>(&counts, mine, comm);
    c_api::RSMPI_Stats stats;
    c_api::RSMPI_GetStats(&stats);  // implicit mprt::this_comm()
    EXPECT_EQ(stats[Metric::kMessagesSent], comm.messages_sent());
    EXPECT_EQ(stats[Metric::kBytesReceived],
              comm.metrics()[Metric::kBytesReceived]);
  });
}

// A nonblocking operation's receives are ordinary blocking receives on
// its coroutine, so the rank's RecvDeadline applies to them: with every
// message dropped, ranks spinning on RSMPI_Test see the request complete
// with RSMPI_ERR_TIMEOUT instead of spinning forever.
TEST(CApi, TestReportsTimeoutUnderRecvDeadline) {
  mprt::SimConfig sim;
  sim.seed = 3;
  sim.drop_prob = 1.0;  // nothing ever arrives
  std::array<int, 2> status = {-1, -1};
  mprt::run(
      2,
      [&](mprt::Comm& comm) {
        comm.set_recv_deadline(mprt::RecvDeadline{0.05, 2, 2.0});
        std::vector<int> mine = {comm.rank() % 8};
        std::vector<long> counts;
        auto req = c_api::RSMPI_Ireduceall<CCounts>(&counts, mine, comm);
        int code = -1;
        while (c_api::RSMPI_Test(&req, &code) == 0) {
        }
        EXPECT_FALSE(req.valid());
        status[static_cast<std::size_t>(comm.rank())] = code;
      },
      mprt::CostModel{}, sim);
  EXPECT_EQ(status[0], c_api::RSMPI_ERR_TIMEOUT);
  EXPECT_EQ(status[1], c_api::RSMPI_ERR_TIMEOUT);
}

// The same under RSMPI_Wait: the rank parks between progress passes, and
// the park ends at the operation's receive deadline, so the wait returns
// RSMPI_ERR_TIMEOUT instead of the scheduler declaring a deadlock.
TEST(CApi, WaitReportsTimeoutUnderRecvDeadline) {
  mprt::SimConfig sim;
  sim.seed = 3;
  sim.drop_prob = 1.0;  // nothing ever arrives
  std::array<int, 2> status = {-1, -1};
  mprt::run(
      2,
      [&](mprt::Comm& comm) {
        comm.set_recv_deadline(mprt::RecvDeadline{0.05, 2, 2.0});
        std::vector<int> mine = {comm.rank() % 8};
        std::vector<long> counts;
        auto req = c_api::RSMPI_Ireduceall<CCounts>(&counts, mine, comm);
        status[static_cast<std::size_t>(comm.rank())] =
            c_api::RSMPI_Wait(&req);
        EXPECT_FALSE(req.valid());
      },
      mprt::CostModel{}, sim);
  EXPECT_EQ(status[0], c_api::RSMPI_ERR_TIMEOUT);
  EXPECT_EQ(status[1], c_api::RSMPI_ERR_TIMEOUT);
}

TEST(CApi, AdapterTraits) {
  using SortedAdapter = c_api::detail::Adapter<CSorted>;
  using CountsAdapter = c_api::detail::Adapter<CCounts>;
  static_assert(rs::ReductionOp<SortedAdapter, int>);
  static_assert(rs::ScanOp<CountsAdapter, int>);
  static_assert(std::is_trivially_copyable_v<SortedAdapter>);
  EXPECT_FALSE(rs::op_commutative<SortedAdapter>());
  EXPECT_TRUE(rs::op_commutative<CountsAdapter>());
  static_assert(rs::HasPreAccum<SortedAdapter, int>);
  static_assert(!rs::HasPostAccum<SortedAdapter, int>);
}

}  // namespace
