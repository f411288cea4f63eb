// Tests for the supporting collectives: barrier, bcast, gather, allgather
// and alltoallv.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "coll/alltoall.hpp"
#include "coll/barrier.hpp"
#include "coll/bcast.hpp"
#include "coll/gather.hpp"
#include "mprt/runtime.hpp"

namespace {

using namespace rsmpi;

class CollectiveSweep : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSweep, BcastScalarFromEveryRoot) {
  const int p = GetParam();
  mprt::run(p, [p2 = p](mprt::Comm& comm) {
    for (int root = 0; root < p2; ++root) {
      const int v = comm.rank() == root ? root * 100 + 9 : -1;
      EXPECT_EQ(coll::bcast(comm, root, v), root * 100 + 9);
    }
  });
}

TEST_P(CollectiveSweep, BcastSpanInPlace) {
  const int p = GetParam();
  mprt::run(p, [](mprt::Comm& comm) {
    std::vector<double> buf(10);
    if (comm.rank() == 0) {
      std::iota(buf.begin(), buf.end(), 0.5);
    }
    coll::bcast_span<double>(comm, 0, buf);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      EXPECT_DOUBLE_EQ(buf[i], 0.5 + static_cast<double>(i));
    }
  });
}

TEST_P(CollectiveSweep, GatherConcatenatesInRankOrder) {
  const int p = GetParam();
  mprt::run(p, [p2 = p](mprt::Comm& comm) {
    // Variable-length blocks: rank r contributes r+1 copies of r.
    std::vector<int> mine(static_cast<std::size_t>(comm.rank()) + 1,
                          comm.rank());
    const auto all = coll::gather<int>(comm, 0, mine);
    if (comm.rank() == 0) {
      std::vector<int> want;
      for (int r = 0; r < p2; ++r) {
        want.insert(want.end(), static_cast<std::size_t>(r) + 1, r);
      }
      EXPECT_EQ(all, want);
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST_P(CollectiveSweep, AllgatherSameEverywhere) {
  const int p = GetParam();
  mprt::run(p, [p2 = p](mprt::Comm& comm) {
    const auto all = coll::allgather_value(comm, comm.rank() * 2);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(p2));
    for (int r = 0; r < p2; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 2);
    }
  });
}

TEST_P(CollectiveSweep, AlltoallvRoutesBlocks) {
  const int p = GetParam();
  mprt::run(p, [p2 = p](mprt::Comm& comm) {
    // Rank s sends to rank d a block of s*p+d repeated (d+1) times.
    std::vector<std::vector<int>> out(static_cast<std::size_t>(p2));
    for (int d = 0; d < p2; ++d) {
      out[static_cast<std::size_t>(d)].assign(static_cast<std::size_t>(d) + 1,
                                              comm.rank() * p2 + d);
    }
    coll::AlltoallvCounts counts;
    const auto in = coll::alltoallv(comm, out, &counts);

    std::vector<int> want;
    for (int s = 0; s < p2; ++s) {
      want.insert(want.end(), static_cast<std::size_t>(comm.rank()) + 1,
                  s * p2 + comm.rank());
      EXPECT_EQ(counts.recv_counts[static_cast<std::size_t>(s)],
                static_cast<std::size_t>(comm.rank()) + 1);
    }
    EXPECT_EQ(in, want);
  });
}

TEST_P(CollectiveSweep, AlltoallvWithEmptyBlocks) {
  const int p = GetParam();
  mprt::run(p, [p2 = p](mprt::Comm& comm) {
    // Only even ranks send, and only to rank 0.
    std::vector<std::vector<int>> out(static_cast<std::size_t>(p2));
    if (comm.rank() % 2 == 0) {
      out[0] = {comm.rank()};
    }
    const auto in = coll::alltoallv(comm, out);
    if (comm.rank() == 0) {
      std::vector<int> want;
      for (int s = 0; s < p2; s += 2) want.push_back(s);
      EXPECT_EQ(in, want);
    } else {
      EXPECT_TRUE(in.empty());
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectiveSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16));

TEST(Barrier, SynchronizesVirtualClocks) {
  // After a barrier, every rank's virtual clock must be at least the
  // pre-barrier maximum (rank 2's 50s head start).
  mprt::CostModel m = mprt::CostModel::free();
  m.latency_s = 1.0;
  const auto result = mprt::run(
      4,
      [](mprt::Comm& comm) {
        if (comm.rank() == 2) comm.clock().advance(50.0);
        coll::barrier(comm);
        EXPECT_GE(comm.clock().now(), 50.0);
      },
      m);
  EXPECT_GE(result.makespan_s, 50.0);
}

TEST(Barrier, SingleRankIsNoop) {
  const auto result = mprt::run(1, [](mprt::Comm& comm) {
    coll::barrier(comm);
  });
  EXPECT_EQ(result.metrics[mprt::Metric::kMessagesSent], 0u);
}

TEST(Barrier, ActsAsRendezvous) {
  // No rank may pass the barrier until all have arrived: with one rank
  // delayed by real sleep, the others' post-barrier flag reads must see
  // the arrival flag set.
  std::atomic<bool> slow_arrived{false};
  mprt::run(4, [&](mprt::Comm& comm) {
    if (comm.rank() == 3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      slow_arrived = true;
    }
    coll::barrier(comm);
    EXPECT_TRUE(slow_arrived.load());
  });
}

TEST(Bcast, RootOutOfRangeRejected) {
  EXPECT_THROW(mprt::run(2,
                         [](mprt::Comm& comm) {
                           (void)coll::bcast(comm, 2, 1);
                         }),
               ArgumentError);
}

}  // namespace
