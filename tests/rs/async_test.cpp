// Tests for the asynchronous global-view API (rs/async.hpp): futures,
// equivalence with the blocking reduce/scan, out-of-order completion,
// subcommunicators, the C-style nonblocking handles, and the modelled
// compute/communication overlap win the subsystem exists for.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "coll/nb/progress.hpp"
#include "mprt/runtime.hpp"
#include "rs/async.hpp"
#include "rs/ops/counts.hpp"
#include "rs/ops/meanvar.hpp"
#include "rs/ops/mink.hpp"
#include "rs/ops/sorted.hpp"
#include "rs/ops/topbottomk.hpp"
#include "rs/reduce.hpp"
#include "rs/scan.hpp"
#include "rsmpi_c/rsmpi_c.hpp"
#include "util/error.hpp"

namespace {

using namespace rsmpi;
using mprt::Comm;

std::vector<int> rank_slice(int rank, int n = 20) {
  std::vector<int> v(n);
  for (int i = 0; i < n; ++i) {
    v[i] = (rank * 37 + i * 11) % 101;
  }
  return v;
}

TEST(ReduceAsync, MinKMatchesBlocking) {
  mprt::run(6, [](Comm& comm) {
    const auto mine = rank_slice(comm.rank());
    const auto blocking = rs::reduce(comm, mine, rs::ops::MinK<int>(5));
    auto future = rs::reduce_async(comm, mine, rs::ops::MinK<int>(5));
    EXPECT_EQ(future.get(), blocking);
    // get() is idempotent.
    EXPECT_EQ(future.get(), blocking);
  });
}

TEST(ReduceAsync, CountsMatchesBlocking) {
  mprt::run(5, [](Comm& comm) {
    std::vector<int> buckets;
    for (int i = 0; i < 30; ++i) buckets.push_back((comm.rank() + i) % 8);
    const auto blocking = rs::reduce(comm, buckets, rs::ops::Counts(8));
    auto future = rs::reduce_async(comm, buckets, rs::ops::Counts(8));
    EXPECT_EQ(future.get(), blocking);
  });
}

TEST(ReduceAsync, NonCommutativeSortedMatchesBlocking) {
  // Sorted is the paper's showcase non-commutative operator; async must
  // pick the order-preserving binomial schedule for it.
  mprt::run(7, [](Comm& comm) {
    // Globally sorted: rank r holds [10r, 10r+10).
    std::vector<int> sorted_slice(10);
    for (int i = 0; i < 10; ++i) sorted_slice[i] = comm.rank() * 10 + i;
    auto future = rs::reduce_async(comm, sorted_slice,
                                   rs::ops::Sorted<int>{});
    EXPECT_TRUE(future.get());

    // One inversion at a rank boundary must be caught.
    std::vector<int> broken = sorted_slice;
    if (comm.rank() == 3) broken[0] = -1;
    auto future2 = rs::reduce_async(comm, broken, rs::ops::Sorted<int>{});
    EXPECT_FALSE(future2.get());
  });
}

TEST(ReduceAsync, MeanVarWithPollingCompute) {
  mprt::run(4, [](Comm& comm) {
    std::vector<double> xs;
    for (int i = 0; i < 25; ++i) {
      xs.push_back(comm.rank() * 1.5 + i * 0.125);
    }
    const auto blocking = rs::reduce(comm, xs, rs::ops::MeanVar{});
    auto future = rs::reduce_async(comm, xs, rs::ops::MeanVar{});
    // The intended usage: poll between chunks of other work.
    for (int c = 0; c < 50; ++c) coll::nb::poll();
    const auto& result = future.get();
    EXPECT_DOUBLE_EQ(result.mean, blocking.mean);
    EXPECT_DOUBLE_EQ(result.variance, blocking.variance);
    EXPECT_EQ(result.count, blocking.count);
  });
}

TEST(ReduceAsync, OutOfOrderGet) {
  mprt::run(6, [](Comm& comm) {
    const auto mine = rank_slice(comm.rank());
    auto first = rs::reduce_async(comm, mine, rs::ops::MinK<int>(3));
    auto second = rs::reduce_async(comm, mine, rs::ops::MinK<int>(7));
    const auto b7 = rs::reduce(comm, mine, rs::ops::MinK<int>(7));
    const auto b3 = rs::reduce(comm, mine, rs::ops::MinK<int>(3));
    EXPECT_EQ(second.get(), b7);
    EXPECT_EQ(first.get(), b3);
  });
}

TEST(ReduceAsync, SiblingSubcommunicators) {
  mprt::run(8, [](Comm& comm) {
    Comm sub = comm.split(comm.rank() % 2, comm.rank());
    const auto mine = rank_slice(comm.rank());
    auto sub_future = rs::reduce_async(sub, mine, rs::ops::MinK<int>(4));
    auto world_future = rs::reduce_async(comm, mine, rs::ops::MinK<int>(4));
    // Complete in opposite orders on the two subgroups.
    std::vector<int> world_result, sub_result;
    if (comm.rank() % 2 == 0) {
      world_result = world_future.get();
      sub_result = sub_future.get();
    } else {
      sub_result = sub_future.get();
      world_result = world_future.get();
    }
    const auto world_blocking = rs::reduce(comm, mine, rs::ops::MinK<int>(4));
    const auto sub_blocking = rs::reduce(sub, mine, rs::ops::MinK<int>(4));
    EXPECT_EQ(world_result, world_blocking);
    EXPECT_EQ(sub_result, sub_blocking);
  });
}

TEST(ScanAsync, InclusiveAndExclusiveMatchBlocking) {
  mprt::run(5, [](Comm& comm) {
    std::vector<int> buckets;
    for (int i = 0; i < 12; ++i) buckets.push_back((comm.rank() * 3 + i) % 8);
    const auto incl = rs::scan(comm, buckets, rs::ops::Counts(8),
                               rs::ScanKind::kInclusive);
    const auto excl = rs::scan(comm, buckets, rs::ops::Counts(8),
                               rs::ScanKind::kExclusive);
    auto f_incl = rs::scan_async(comm, buckets, rs::ops::Counts(8),
                                 rs::ScanKind::kInclusive);
    auto f_excl = rs::scan_async(comm, buckets, rs::ops::Counts(8),
                                 rs::ScanKind::kExclusive);
    EXPECT_EQ(f_excl.get(), excl);
    EXPECT_EQ(f_incl.get(), incl);
  });
}

TEST(ScanAsync, InputMayBeOverwrittenWhileInFlight) {
  mprt::run(4, [](Comm& comm) {
    std::vector<int> data(10);
    for (int i = 0; i < 10; ++i) data[i] = (comm.rank() + i) % 8;
    const auto blocking = rs::scan(comm, data, rs::ops::Counts(8));
    auto future = rs::scan_async(comm, data, rs::ops::Counts(8));
    std::fill(data.begin(), data.end(), 0);  // the future holds a copy
    EXPECT_EQ(future.get(), blocking);
  });
}

// A failed combine stays failed: get() rethrows on every call instead of
// generating a result from the unfinished state.  Rank 1 consumes the
// operation's tags without taking part, so rank 0's combine times out.
TEST(Future, GetAfterTimeoutThrowsEveryTime) {
  constexpr int kGoTag = 7;
  mprt::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.set_recv_deadline(mprt::RecvDeadline{0.05, 2, 2.0});
      auto future =
          rs::reduce_async(comm, rank_slice(0), rs::ops::MinK<int>(5));
      EXPECT_THROW(
          {
            while (!future.test()) {
            }
          },
          TimeoutError);
      EXPECT_THROW(future.get(), TimeoutError);
      EXPECT_THROW(future.get(), TimeoutError);
      EXPECT_THROW(future.wait(), TimeoutError);
      comm.set_recv_deadline(std::nullopt);
      comm.send(1, kGoTag, 1);
    } else {
      (void)comm.reserve_tag_block(coll::nb::kOperationTags);
      (void)comm.recv<int>(0, kGoTag);
    }
  });
}

// The same timeout seen by get() alone: between fruitless progress passes
// the waiting rank parks until the operation's receive deadline, so the
// combine throws TimeoutError rather than the scheduler declaring a
// deadlock (rank 1 is parked with no deadline of its own).
TEST(Future, GetTimesOutUnderRecvDeadline) {
  constexpr int kGoTag = 7;
  mprt::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.set_recv_deadline(mprt::RecvDeadline{0.05, 2, 2.0});
      auto future =
          rs::reduce_async(comm, rank_slice(0), rs::ops::MinK<int>(5));
      EXPECT_THROW(future.get(), TimeoutError);
      comm.set_recv_deadline(std::nullopt);
      comm.send(1, kGoTag, 1);
    } else {
      (void)comm.reserve_tag_block(coll::nb::kOperationTags);
      (void)comm.recv<int>(0, kGoTag);
    }
  });
}

TEST(Future, DefaultIsInvalid) {
  rs::Future<int> f;
  EXPECT_FALSE(f.valid());
  EXPECT_TRUE(f.done());
  EXPECT_THROW(f.get(), ArgumentError);
}

TEST(CApi, IreduceallWaitAndTest) {
  mprt::run(4, [](Comm& comm) {
    struct CSum {
      using In = int;
      struct State {
        long total;
      };
      static void ident(State& s) { s.total = 0; }
      static void accum(State& s, const In& x) { s.total += x; }
      static void combine(State& s1, const State& s2) {
        s1.total += s2.total;
      }
      static long generate(const State& s) { return s.total; }
    };
    const auto mine = rank_slice(comm.rank());
    long blocking = 0;
    c_api::RSMPI_Reduceall<CSum>(&blocking, mine, comm);

    long via_wait = 0;
    auto req = c_api::RSMPI_Ireduceall<CSum>(&via_wait, mine, comm);
    EXPECT_TRUE(req.valid());
    c_api::RSMPI_Wait(&req);
    EXPECT_FALSE(req.valid());  // completed handles become null
    EXPECT_EQ(via_wait, blocking);

    long via_test = 0;
    auto req2 = c_api::RSMPI_Ireduceall<CSum>(&via_test, mine, comm);
    while (c_api::RSMPI_Test(&req2) == 0) {
    }
    EXPECT_EQ(via_test, blocking);

    // Waitall over a batch, and Wait on a null handle is a no-op.
    long a = 0, b = 0;
    std::array<c_api::RSMPI_Request, 3> reqs = {
        c_api::RSMPI_Ireduceall<CSum>(&a, mine, comm),
        c_api::RSMPI_Request{},
        c_api::RSMPI_Ireduceall<CSum>(&b, mine, comm),
    };
    c_api::RSMPI_Waitall(std::span<c_api::RSMPI_Request>(reqs));
    EXPECT_EQ(a, blocking);
    EXPECT_EQ(b, blocking);
  });
}

// The overlap program of the two tests below, at 16 ranks on the default
// cost model: a blocking reduce followed by compute, or (`async`)
// reduce_async polled between the same compute chunks and then waited on.
// compute_scale is zeroed so the only clock charges are message costs and
// the explicit advances — the makespan is a deterministic function of the
// cost model.
double overlap_makespan(bool async, const mprt::ExecPolicy& exec) {
  mprt::CostModel model;  // default LogGP parameters
  model.compute_scale = 0.0;
  constexpr int kRanks = 16;
  // 20 chunks of 4 us: enough compute to hide the butterfly's 4 rounds.
  // (The blocking baseline got ~4x cheaper on communication when the
  // commutative allreduce moved from 8-round reduce+bcast to a 4-round
  // recursive doubling, so the maximum achievable saving shrank; the
  // compute span is sized so a full overlap is still >= 20% of the total.)
  constexpr int kChunks = 20;
  constexpr double kChunkSeconds = 4e-6;

  auto slice = [](int rank) {
    std::vector<rs::ops::Located<double, std::int64_t>> v;
    for (int i = 0; i < 256; ++i) {
      const std::int64_t g = rank * 256 + i;
      v.push_back({static_cast<double>((g * 7919) % 104729), g});
    }
    return v;
  };

  const auto body = [&](Comm& comm) {
    const rs::ops::TopBottomK<double, std::int64_t> op(10);
    if (!async) {
      (void)rs::reduce(comm, slice(comm.rank()), op);
      for (int c = 0; c < kChunks; ++c) comm.clock().advance(kChunkSeconds);
      return;
    }
    auto future = rs::reduce_async(comm, slice(comm.rank()), op);
    for (int c = 0; c < kChunks; ++c) {
      comm.clock().advance(kChunkSeconds);
      coll::nb::poll();
    }
    (void)future.get();
  };
  return mprt::run(kRanks, body, model, mprt::SimConfig{}, exec).makespan_s;
}

// The acceptance measurement, pinned down deterministically: reduce_async
// overlapped with compute must beat blocking reduce + the same compute by
// at least 20% of modelled critical-path time.
TEST(Overlap, AsyncBeatsBlockingByTwentyPercent) {
  const double blocking = overlap_makespan(false, mprt::ExecPolicy{});
  const double overlapped = overlap_makespan(true, mprt::ExecPolicy{});
  EXPECT_LE(overlapped, 0.8 * blocking)
      << "blocking " << blocking << " s, overlapped " << overlapped << " s";
}

// The overlapped makespan is a function of the message schedule alone:
// which messages a poll happens to find queued — which depends on how the
// workers interleave the ranks — must not move it.  Each operation runs on
// its own timeline, and its finish time joins the rank clock at get().
TEST(Overlap, MakespanIndependentOfWorkers) {
  const double first = overlap_makespan(true, mprt::ExecPolicy{1});
  for (const int workers : {1, 2, 4, 16}) {
    for (int rep = 0; rep < 3; ++rep) {
      EXPECT_EQ(overlap_makespan(true, mprt::ExecPolicy{workers}), first)
          << workers << " workers, repetition " << rep;
    }
  }
}


// Rank 0 launches a 4-rank reduce_async (a butterfly) and then sends a
// 256 KiB message to rank 2 on its own timeline.  With `partner_first`,
// rank 1's first-round message is already queued when rank 0 launches, so
// the operation posts its second-round send before the big one in host
// order; otherwise rank 1 launches only after the big send, and that
// operation send is posted from get().  Its virtual instant is the same
// either way.
double overlapped_send_makespan(bool partner_first) {
  mprt::CostModel model;  // default LogGP parameters
  model.compute_scale = 0.0;
  std::atomic<bool> rank1_launched{false};
  std::atomic<bool> rank0_sent{false};
  const auto body = [&](Comm& comm) {
    const int rank = comm.rank();
    if (rank == 0 && partner_first) {
      while (!rank1_launched.load()) comm.yield_rank();
    }
    if (rank == 1 && !partner_first) {
      while (!rank0_sent.load()) comm.yield_rank();
    }
    auto future = rs::reduce_async(comm, rank_slice(rank), rs::ops::Counts(128));
    if (rank == 1) rank1_launched.store(true);
    if (rank == 0) {
      const std::vector<std::byte> big(std::size_t{256} << 10);
      comm.send_bytes(2, 7, std::span<const std::byte>(big));
      rank0_sent.store(true);
    }
    if (rank == 2) (void)comm.recv_message(0, 7);
    (void)future.get();
  };
  return mprt::run(4, body, model).makespan_s;
}

// An operation's sends book the ports of its own timeline, and the rank's
// sends made while it is in flight book the rank's: which of the two the
// host happens to post first must not move the makespan.
TEST(Overlap, OperationSendsDoNotQueueInHostOrder) {
  EXPECT_EQ(overlapped_send_makespan(true), overlapped_send_makespan(false));
}

}  // namespace
