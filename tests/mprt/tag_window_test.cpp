// Tests for the collective tag window and the receive-side counters on
// Comm.
#include <gtest/gtest.h>

#include <climits>
#include <unordered_set>
#include <vector>

#include "coll/local_reduce.hpp"
#include "mprt/runtime.hpp"
#include "rs/ops/ops.hpp"
#include "svc/persistent.hpp"
#include "util/error.hpp"

namespace {

using namespace rsmpi;
using mprt::Comm;

// Regression: the tag sequence used to be masked to 16 bits, so the
// 65537th collective aliased the first and could steal its messages.
// The window now spans [2^20, INT_MAX].
TEST(TagWindow, SixtyFourKCollectivesGetDistinctTags) {
  mprt::run(1, [](Comm& comm) {
    std::unordered_set<int> seen;
    seen.reserve(70000);
    for (int i = 0; i < 70000; ++i) {
      const int tag = comm.next_collective_tag();
      EXPECT_GE(tag, Comm::kCollectiveTagBase);
      EXPECT_TRUE(seen.insert(tag).second) << "tag " << tag << " repeated";
    }
  });
}

TEST(TagWindow, ReservedBlocksNeverStraddleTheWrap) {
  mprt::run(1, [](Comm& comm) {
    // Big blocks walk the sequence past the window's end several times;
    // every block must stay inside [base, INT_MAX] as a contiguous range.
    const int block = 1 << 28;
    for (int i = 0; i < 40; ++i) {
      const int first = comm.reserve_collective_tags(block);
      EXPECT_GE(first, Comm::kCollectiveTagBase);
      EXPECT_LE(static_cast<std::int64_t>(first) + block - 1,
                static_cast<std::int64_t>(INT_MAX));
    }
  });
}

TEST(TagWindow, ConsecutiveReservationsAreDisjoint) {
  mprt::run(1, [](Comm& comm) {
    const int a = comm.reserve_collective_tags(3);
    const int b = comm.reserve_collective_tags(2);
    const int c = comm.next_collective_tag();
    EXPECT_GE(b, a + 3);
    EXPECT_GE(c, b + 2);
  });
}

TEST(TagWindow, RejectsBadCounts) {
  mprt::run(1, [](Comm& comm) {
    EXPECT_THROW(comm.reserve_collective_tags(0), ArgumentError);
    EXPECT_THROW(comm.reserve_collective_tags(-5), ArgumentError);
    EXPECT_THROW(comm.reserve_collective_tags(INT_MAX), ArgumentError);
  });
}

// The skip at the wrap must be taken identically by every rank (the
// sequence is SPMD state); otherwise tags stop matching across ranks.
TEST(TagWindow, TagsAgreeAcrossRanksThroughTheWrap) {
  mprt::run(4, [](Comm& comm) {
    int tag = 0;
    for (int i = 0; i < 40; ++i) {
      tag = comm.reserve_collective_tags(1 << 28);
    }
    const int max_tag = coll::local_allreduce_value(comm, tag,
                                                    coll::Max<int>{});
    const int min_tag = coll::local_allreduce_value(comm, tag,
                                                    coll::Min<int>{});
    EXPECT_EQ(max_tag, min_tag);
  });
}

// Sustainability: a persistent handle leases its reserved block every
// epoch instead of walking the global sequence, so an epoch loop far
// longer than the whole tag window never wraps it.  With a 32-tag window
// a per-epoch consumer would wrap 2.5 times in 80 epochs; the handle must
// hold the sequence perfectly flat while still reducing correctly.
TEST(TagWindow, PersistentHandleOutlivesShrunkenWindow) {
  mprt::run(4, [](Comm& comm) {
    comm.set_collective_tag_window_for_test(32);
    svc::PersistentReduce<rsmpi::rs::ops::Sum<long>> handle(
        comm, rsmpi::rs::ops::Sum<long>{});
    const std::int64_t consumed = comm.collective_tags_consumed();
    constexpr int kEpochs = 80;  // > 2x the shrunken window
    for (int e = 0; e < kEpochs; ++e) {
      const std::vector<long> mine = {static_cast<long>(comm.rank() + e)};
      const long got = handle.execute(mine);
      EXPECT_EQ(got, 4L * e + 0 + 1 + 2 + 3) << "epoch " << e;
      EXPECT_EQ(comm.collective_tags_consumed(), consumed) << "epoch " << e;
    }
  });
}

TEST(RecvCounters, CountMessagesAndBytes) {
  mprt::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, 123);
      comm.send(1, 7, 456L);
    } else {
      EXPECT_EQ(comm.messages_received(), 0u);
      (void)comm.recv_message(0, 7);
      (void)comm.recv_message(0, 7);
      EXPECT_EQ(comm.messages_received(), 2u);
      EXPECT_EQ(comm.metrics()[mprt::Metric::kBytesReceived],
                sizeof(int) + sizeof(long));
    }
  });
}

// The spin loop must finish on one worker too: an empty try_recv yields.
TEST(RecvCounters, TryRecvCountsOnlyOnSuccess) {
  const auto body = [](Comm& comm) {
    if (comm.rank() == 0) {
      EXPECT_FALSE(comm.try_recv<int>(1, 3).has_value());
      EXPECT_EQ(comm.messages_received(), 0u);
      comm.send(1, 4, 0);  // only now may rank 1 send
      std::optional<int> got;
      while (!got.has_value()) got = comm.try_recv<int>(1, 3);
      EXPECT_EQ(comm.messages_received(), 1u);
      EXPECT_EQ(comm.metrics()[mprt::Metric::kBytesReceived], sizeof(int));
    } else {
      (void)comm.recv_message(0, 4);
      comm.send(0, 3, 9);
    }
  };
  for (const int workers : {0, 1}) {  // 0: the default, min(p, nproc)
    mprt::run(2, body, mprt::CostModel{}, mprt::SimConfig{},
              mprt::ExecPolicy{workers});
  }
}

TEST(RecvCounters, ResetClearsBothDirections) {
  mprt::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, 1);
    } else {
      (void)comm.recv_message(0, 1);
    }
    comm.reset_counters();
    EXPECT_EQ(comm.messages_sent(), 0u);
    EXPECT_EQ(comm.messages_received(), 0u);
    EXPECT_EQ(comm.metrics()[mprt::Metric::kBytesReceived], 0u);
  });
}

}  // namespace
