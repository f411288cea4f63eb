// Tests for the nonblocking collectives (coll/nb): request handles, the
// per-rank progress engine and its operation coroutines, and ibarrier/
// ibcast/iallreduce/ireduce — including out-of-order completion,
// subcommunicators and operations a rank abandons.
#include <gtest/gtest.h>

#include <array>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <vector>

#include "coll/local_reduce.hpp"
#include "coll/nb/iallreduce.hpp"
#include "coll/nb/ibarrier.hpp"
#include "coll/nb/ibcast.hpp"
#include "mprt/runtime.hpp"
#include "tests/coll/test_matrix_op.hpp"
#include "util/error.hpp"

namespace {

using namespace rsmpi;
using mprt::Comm;

using SumOp = coll::ElementwiseOp<int, coll::Sum<int>>;

TEST(Ibarrier, CompletesOnEveryRank) {
  mprt::run(8, [](Comm& comm) {
    auto req = coll::nb::ibarrier(comm);
    req.wait();
    EXPECT_TRUE(req.done());
    EXPECT_EQ(coll::nb::ProgressEngine::current().in_flight(), 0u);
  });
}

TEST(Ibarrier, BackToBackBarriersDoNotCross) {
  mprt::run(5, [](Comm& comm) {
    for (int i = 0; i < 4; ++i) {
      auto req = coll::nb::ibarrier(comm);
      req.wait();
    }
  });
}

TEST(Ibcast, DeliversRootBuffer) {
  mprt::run(7, [](Comm& comm) {
    const int root = 2;
    std::vector<int> buf(16, 0);
    if (comm.rank() == root) {
      std::iota(buf.begin(), buf.end(), 100);
    }
    auto req = coll::nb::ibcast_span<int>(comm, root, buf);
    req.wait();
    std::vector<int> expected(16);
    std::iota(expected.begin(), expected.end(), 100);
    EXPECT_EQ(buf, expected);
  });
}

TEST(Ibcast, RejectsBadRoot) {
  mprt::run(2, [](Comm& comm) {
    std::vector<int> buf(4, 0);
    EXPECT_THROW(coll::nb::ibcast_span<int>(comm, 5, buf), ArgumentError);
  });
}

TEST(Iallreduce, BinomialMatchesBlocking) {
  mprt::run(6, [](Comm& comm) {
    std::vector<int> mine(8);
    for (std::size_t i = 0; i < mine.size(); ++i) {
      mine[i] = comm.rank() * 10 + static_cast<int>(i);
    }
    std::vector<int> blocking = mine;
    coll::local_allreduce(comm, std::span<int>(blocking), SumOp{});

    auto req = coll::nb::iallreduce(comm, std::span<int>(mine), SumOp{});
    req.wait();
    EXPECT_EQ(mine, blocking);
  });
}

TEST(Iallreduce, RabenseifnerMatchesBlocking) {
  // 6 ranks exercises the non-power-of-two fold/unfold.
  mprt::run(6, [](Comm& comm) {
    std::vector<double> mine(10);
    for (std::size_t i = 0; i < mine.size(); ++i) {
      mine[i] = comm.rank() + 0.25 * static_cast<double>(i);
    }
    std::vector<double> blocking = mine;
    coll::local_allreduce_rabenseifner(
        comm, std::span<double>(blocking),
        coll::ElementwiseOp<double, coll::Sum<double>>{});

    auto req = coll::nb::iallreduce(
        comm, std::span<double>(mine),
        coll::ElementwiseOp<double, coll::Sum<double>>{},
        coll::nb::IAllreduceAlgo::kRabenseifner);
    req.wait();
    EXPECT_EQ(mine, blocking);
  });
}

TEST(Iallreduce, RabenseifnerRejectsNonCommutative) {
  mprt::run(4, [](Comm& comm) {
    auto m = test::rank_matrix(comm.rank());
    EXPECT_THROW(coll::nb::iallreduce(comm, std::span<std::int64_t>(m),
                                      test::MatMulOp{},
                                      coll::nb::IAllreduceAlgo::kRabenseifner),
                 ArgumentError);
  });
}

TEST(Iallreduce, PreservesOrderForNonCommutative) {
  mprt::run(5, [](Comm& comm) {
    auto m = test::rank_matrix(comm.rank());
    auto req =
        coll::nb::iallreduce(comm, std::span<std::int64_t>(m),
                             test::MatMulOp{});
    req.wait();
    const auto expected = test::ordered_product(comm.size());
    EXPECT_EQ(m, expected);
  });
}

TEST(Ireduce, NonCommutativeToNonzeroRoot) {
  // Exercises the reduce-to-zero + forward path.
  mprt::run(6, [](Comm& comm) {
    const int root = 3;
    auto m = test::rank_matrix(comm.rank());
    auto req = coll::nb::ireduce(comm, root, std::span<std::int64_t>(m),
                                 test::MatMulOp{});
    req.wait();
    if (comm.rank() == root) {
      EXPECT_EQ(m, test::ordered_product(comm.size()));
    }
  });
}

TEST(Ireduce, CommutativeSumAtRoot) {
  mprt::run(4, [](Comm& comm) {
    std::array<int, 3> mine = {comm.rank(), 1, 2 * comm.rank()};
    auto req = coll::nb::ireduce(comm, 2, std::span<int>(mine), SumOp{});
    req.wait();
    if (comm.rank() == 2) {
      const int p = comm.size();
      EXPECT_EQ(mine[0], p * (p - 1) / 2);
      EXPECT_EQ(mine[1], p);
      EXPECT_EQ(mine[2], p * (p - 1));
    }
  });
}

TEST(Ireduce, RejectsBadRoot) {
  mprt::run(2, [](Comm& comm) {
    std::array<int, 1> v = {1};
    EXPECT_THROW(coll::nb::ireduce(comm, -1, std::span<int>(v), SumOp{}),
                 ArgumentError);
  });
}

TEST(Progress, OutOfOrderCompletion) {
  mprt::run(8, [](Comm& comm) {
    std::vector<int> a(4, comm.rank());
    std::vector<int> b(4, 2 * comm.rank() + 1);
    auto ra = coll::nb::iallreduce(comm, std::span<int>(a), SumOp{});
    auto rb = coll::nb::iallreduce(comm, std::span<int>(b), SumOp{});
    // Wait on the second first: the engine must progress both without the
    // first's messages blocking the second's.
    rb.wait();
    ra.wait();
    const int p = comm.size();
    EXPECT_EQ(a, std::vector<int>(4, p * (p - 1) / 2));
    EXPECT_EQ(b, std::vector<int>(4, p * p));
  });
}

// Ranks spin on test_any; a fruitless pass yields, so the spinning ranks
// never starve the ones they wait for — on one worker or on several.
TEST(Progress, WaitAllAndTestAny) {
  const auto body = [](Comm& comm) {
    std::vector<int> a(2, 1);
    std::vector<int> b(2, 2);
    std::array<coll::nb::Request, 3> reqs = {
        coll::nb::iallreduce(comm, std::span<int>(a), SumOp{}),
        coll::nb::ibarrier(comm),
        coll::nb::iallreduce(comm, std::span<int>(b), SumOp{}),
    };
    int first_done = -1;
    while (first_done == -1) {
      first_done = coll::nb::test_any(std::span<coll::nb::Request>(reqs));
    }
    EXPECT_GE(first_done, 0);
    EXPECT_LT(first_done, 3);
    coll::nb::wait_all(std::span<coll::nb::Request>(reqs));
    const int p = comm.size();
    EXPECT_EQ(a, std::vector<int>(2, p));
    EXPECT_EQ(b, std::vector<int>(2, 2 * p));
  };
  for (const int workers : {0, 1}) {  // 0: the default, min(p, nproc)
    mprt::run(6, body, mprt::CostModel{}, mprt::SimConfig{},
              mprt::ExecPolicy{workers});
  }
}

TEST(Progress, NullRequestIsComplete) {
  coll::nb::Request req;
  EXPECT_FALSE(req.valid());
  EXPECT_TRUE(req.done());
  EXPECT_TRUE(req.test());
  req.wait();  // must not hang
}

TEST(Progress, SingleRankCompletesInline) {
  mprt::run(1, [](Comm& comm) {
    std::vector<int> v(3, 7);
    auto req = coll::nb::iallreduce(comm, std::span<int>(v), SumOp{});
    EXPECT_TRUE(req.done());
    EXPECT_EQ(v, std::vector<int>(3, 7));
  });
}

TEST(Subcomm, OverlappingIallreducesOnSiblings) {
  // Even and odd ranks form sibling communicators; each subgroup runs its
  // own iallreduce while one on the parent is also in flight, and ranks
  // complete the two in opposite orders.
  mprt::run(8, [](Comm& comm) {
    Comm sub = comm.split(comm.rank() % 2, comm.rank());
    std::vector<int> sub_buf(4, comm.rank());
    std::vector<int> world_buf(4, 1);
    auto sub_req = coll::nb::iallreduce(sub, std::span<int>(sub_buf),
                                        SumOp{});
    auto world_req = coll::nb::iallreduce(comm, std::span<int>(world_buf),
                                          SumOp{});
    if (comm.rank() % 2 == 0) {
      sub_req.wait();
      world_req.wait();
    } else {
      world_req.wait();
      sub_req.wait();
    }
    // Even ranks sum 0+2+4+6, odd ranks 1+3+5+7.
    const int expected_sub = comm.rank() % 2 == 0 ? 12 : 16;
    EXPECT_EQ(sub_buf, std::vector<int>(4, expected_sub));
    EXPECT_EQ(world_buf, std::vector<int>(4, comm.size()));
  });
}

TEST(Subcomm, PendingTableTracksInFlightOps) {
  mprt::run(4, [](Comm& comm) {
    std::vector<int> v(2, 1);
    const std::int64_t tags = comm.collective_tags_consumed();
    auto req = coll::nb::iallreduce(comm, std::span<int>(v), SumOp{});
    // Launch leases the operation one block of collective tags.
    EXPECT_EQ(comm.collective_tags_consumed(),
              tags + coll::nb::kOperationTags);
    if (!req.done()) {
      EXPECT_EQ(coll::nb::ProgressEngine::current().in_flight(), 1u);
    }
    req.wait();
    EXPECT_EQ(coll::nb::ProgressEngine::current().in_flight(), 0u);
  });
}

// A failed operation belongs to its request.  Rank 1 never takes part in
// rank 0's iallreduce A, so A times out under rank 0's receive deadline;
// the TimeoutError surfaces from A's test and wait alone, every time, and
// the next iallreduce B completes on both ranks.
TEST(Progress, FailedOperationDoesNotPoisonItsRank) {
  constexpr int kGoTag = 7;
  mprt::run(2, [](Comm& comm) {
    std::vector<int> b(1, comm.rank() + 1);
    coll::nb::Request rb;
    if (comm.rank() == 0) {
      comm.set_recv_deadline(mprt::RecvDeadline{0.05, 2, 2.0});
      std::vector<int> a(1, 1);
      auto ra = coll::nb::iallreduce(comm, std::span<int>(a), SumOp{});
      EXPECT_THROW(
          {
            while (!ra.test()) {
            }
          },
          TimeoutError);
      EXPECT_THROW(ra.test(), TimeoutError);  // the error stays with A
      EXPECT_THROW(ra.wait(), TimeoutError);
      EXPECT_EQ(coll::nb::ProgressEngine::current().in_flight(), 0u);
      comm.set_recv_deadline(std::nullopt);
      rb = coll::nb::iallreduce(comm, std::span<int>(b), SumOp{});
      comm.send(1, kGoTag, 1);
    } else {
      (void)comm.reserve_tag_block(coll::nb::kOperationTags);  // A's tags
      (void)comm.recv<int>(0, kGoTag);
      rb = coll::nb::iallreduce(comm, std::span<int>(b), SumOp{});
    }
    rb.wait();
    EXPECT_EQ(b, std::vector<int>(1, 3));
  });
}

// A rank that throws with an operation in flight: mprt::run rethrows its
// error, and every abandoned operation's coroutine unwinds (under
// LeakSanitizer, skipping the unwind leaks what the blocked collectives
// hold on their stacks).
TEST(Progress, AbandonedOperationsUnwind) {
  EXPECT_THROW(
      mprt::run(8,
                [](Comm& comm) {
                  auto m = test::rank_matrix(comm.rank());
                  auto req = coll::nb::iallreduce(
                      comm, std::span<std::int64_t>(m), test::MatMulOp{});
                  if (comm.rank() == 7) {
                    throw std::runtime_error("rank 7 gives up");
                  }
                  req.wait();
                }),
      std::runtime_error);
}

}  // namespace
