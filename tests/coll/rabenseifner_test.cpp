// Tests for the Rabenseifner allreduce: correctness against the oracle
// over rank/size sweeps, the commutativity precondition, and the
// bandwidth property that justifies the algorithm, asserted exactly on
// the virtual clock.
#include <gtest/gtest.h>

#include <limits>
#include <tuple>
#include <vector>

#include "coll/local_reduce.hpp"
#include "coll/nb/iallreduce.hpp"
#include "mprt/runtime.hpp"
#include "mprt/topology.hpp"
#include "tests/coll/test_matrix_op.hpp"

namespace {

using namespace rsmpi;

class RabenseifnerSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RabenseifnerSweep, MatchesElementwiseOracle) {
  const auto [p, width] = GetParam();
  mprt::run(p, [p2 = p, w = width](mprt::Comm& comm) {
    std::vector<long> v(static_cast<std::size_t>(w));
    for (int i = 0; i < w; ++i) {
      v[static_cast<std::size_t>(i)] = (comm.rank() + 1) * (i + 1);
    }
    coll::ElementwiseOp<long, coll::Sum<long>> op;
    coll::local_allreduce_rabenseifner(comm, std::span<long>(v), op);
    for (int i = 0; i < w; ++i) {
      long want = 0;
      for (int r = 0; r < p2; ++r) want += static_cast<long>(r + 1) * (i + 1);
      ASSERT_EQ(v[static_cast<std::size_t>(i)], want)
          << "p=" << p2 << " width=" << w << " elt=" << i;
    }
  });
}

TEST_P(RabenseifnerSweep, AgreesWithBinomialAllreduce) {
  const auto [p, width] = GetParam();
  mprt::run(p, [w = width](mprt::Comm& comm) {
    std::vector<int> a(static_cast<std::size_t>(w));
    for (int i = 0; i < w; ++i) {
      a[static_cast<std::size_t>(i)] =
          ((comm.rank() + 3) * (i + 7)) % 251 - 100;
    }
    std::vector<int> b = a;
    coll::ElementwiseOp<int, coll::Min<int>> op;
    coll::local_allreduce_rabenseifner(comm, std::span<int>(a), op);
    coll::local_allreduce(comm, std::span<int>(b), op,
                          coll::ReduceAlgo::kBinomial);
    EXPECT_EQ(a, b);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RabenseifnerSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 12, 16),
                       ::testing::Values(1, 3, 16, 257)),
    [](const auto& inf) {
      return "p" + std::to_string(std::get<0>(inf.param)) + "_w" +
             std::to_string(std::get<1>(inf.param));
    });

TEST(Rabenseifner, RejectsNonCommutativeOps) {
  EXPECT_THROW(mprt::run(2,
                         [](mprt::Comm& comm) {
                           auto m = test::rank_matrix(comm.rank());
                           coll::local_allreduce_rabenseifner(
                               comm, std::span<std::int64_t>(m),
                               test::MatMulOp{});
                         }),
               ArgumentError);
}

TEST(Rabenseifner, RejectsOperatorsThatAreNotElementwise) {
  // LocalMinK is commutative but merges whole k-vectors, so cutting the
  // buffer into element chunks would combine unrelated slices of it: with
  // rank r holding r, r+p, r+2p, r+3p the chunked schedule once returned
  // {0,1,4,5} at p = 2 instead of {0,1,2,3}.  It must be refused, like a
  // non-commutative operator, blocking and nonblocking alike.
  for (const int p : {2, 4, 8}) {
    EXPECT_THROW(mprt::run(p,
                           [](mprt::Comm& comm) {
                             std::vector<int> v(4);
                             for (int k = 0; k < 4; ++k) {
                               v[static_cast<std::size_t>(k)] =
                                   comm.rank() + k * comm.size();
                             }
                             coll::local_allreduce_rabenseifner(
                                 comm, std::span<int>(v),
                                 coll::LocalMinK<int>{});
                           }),
                 ArgumentError)
        << "p=" << p;
  }
  mprt::run(4, [](mprt::Comm& comm) {
    std::vector<int> v(4, comm.rank());
    EXPECT_THROW(coll::nb::iallreduce(comm, std::span<int>(v),
                                      coll::LocalMinK<int>{},
                                      coll::nb::IAllreduceAlgo::kRabenseifner),
                 ArgumentError);
  });
}

TEST(Rabenseifner, MovesLessDataThanTreeForLargePayloads) {
  // The point of the algorithm: per-rank traffic is ~2n elements instead
  // of the tree's ~2n·log2(p) on the root path.  Compare modelled times
  // under a pure-bandwidth cost model (latency 0, 1 s per byte).
  mprt::CostModel bw = mprt::CostModel::free();
  bw.per_byte_s = 1.0;
  bw.compute_scale = 0.0;

  constexpr int kP = 16;
  constexpr int kWidth = 1 << 12;

  auto run_algo = [&](bool rabenseifner) {
    return mprt::run(
               kP,
               [rabenseifner](mprt::Comm& comm) {
                 std::vector<long> v(kWidth, comm.rank());
                 coll::ElementwiseOp<long, coll::Sum<long>> op;
                 if (rabenseifner) {
                   coll::local_allreduce_rabenseifner(
                       comm, std::span<long>(v), op);
                 } else {
                   coll::local_allreduce(comm, std::span<long>(v), op,
                                         coll::ReduceAlgo::kBinomial);
                 }
               },
               bw)
        .makespan_s;
  };

  const double t_rab = run_algo(true);
  const double t_tree = run_algo(false);
  // Tree: 2*log2(16) = 8 full-buffer hops.  Rabenseifner: halves +
  // quarters + ... ~ 2*(1 - 1/p) buffers < 2.  Require at least a 3x win.
  EXPECT_LT(t_rab * 3.0, t_tree);
}

TEST(Rabenseifner, ExactTrafficOnPowerOfTwo) {
  // Total elements sent across all ranks in the core phases: each of the
  // 2*log2(p) rounds moves p half/quarter/... buffers; closed form is
  // 2 * n * (p - 1) elements.  (Latency-free model, measured in bytes.)
  constexpr int kP = 8;
  constexpr std::size_t kWidth = 64;
  const auto result = mprt::run(kP, [](mprt::Comm& comm) {
    std::vector<long> v(kWidth, comm.rank());
    coll::ElementwiseOp<long, coll::Sum<long>> op;
    coll::local_allreduce_rabenseifner(comm, std::span<long>(v), op);
  });
  EXPECT_EQ(result.metrics[mprt::Metric::kBytesSent],
            2 * kWidth * sizeof(long) * (kP - 1));
}

TEST(Rabenseifner, ChunkStartSurvivesHugeElementCounts) {
  // Regression: chunk_start once computed n * c in 64-bit arithmetic, so
  // element counts above 2^62 wrapped and chunk boundaries collapsed to 0.
  // The 128-bit form must return exact boundaries right up to SIZE_MAX.
  constexpr std::size_t kHuge = std::size_t{1} << 62;
  EXPECT_EQ(mprt::topology::chunk_start(kHuge, 4, 0), 0u);
  EXPECT_EQ(mprt::topology::chunk_start(kHuge, 4, 1), kHuge / 4);
  EXPECT_EQ(mprt::topology::chunk_start(kHuge, 4, 2), kHuge / 2);
  // The old overflow witness: n * c = 2^64 wrapped to 0, so the final
  // boundary came back 0 instead of n and every "chunk" was empty.
  EXPECT_EQ(mprt::topology::chunk_start(kHuge, 4, 4), kHuge);

  // c == chunks must always be the exact end of the buffer, and the
  // boundaries must stay monotone, even at SIZE_MAX.
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(mprt::topology::chunk_start(kMax, 16, 16), kMax);
  std::size_t prev = 0;
  for (int c = 0; c <= 16; ++c) {
    const std::size_t b = mprt::topology::chunk_start(kMax, 16, c);
    EXPECT_GE(b, prev) << "c=" << c;
    prev = b;
  }
}

TEST(Rabenseifner, BufferSmallerThanRankCount) {
  // Zero-size chunks must be handled (n < p).
  mprt::run(8, [](mprt::Comm& comm) {
    std::vector<long> v = {static_cast<long>(comm.rank()), 7};
    coll::ElementwiseOp<long, coll::Max<long>> op;
    coll::local_allreduce_rabenseifner(comm, std::span<long>(v), op);
    EXPECT_EQ(v[0], 7);
    EXPECT_EQ(v[1], 7);
  });
}

}  // namespace
