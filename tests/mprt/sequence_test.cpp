// Regression tests for sequence-number delivery (ISSUE 4, satellite 1):
// every receive path — blocking take, try_take (the poll the async
// progress engine runs on) and probe — must agree on one delivery order
// when a fault plan physically reorders or duplicates messages, and each
// sequence number is delivered at most once.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "mprt/mailbox.hpp"
#include "mprt/runtime.hpp"
#include "mprt/sim.hpp"
#include "rs/async.hpp"
#include "rs/ops/counts.hpp"
#include "rs/reduce.hpp"
#include "util/error.hpp"
#include "verify/oracle.hpp"

namespace {

using namespace rsmpi;
using mprt::Comm;
using mprt::kAnySource;
using mprt::kAnyTag;
using mprt::Mailbox;
using mprt::Message;
using mprt::SimConfig;

constexpr std::int64_t kWorld = 0;

Message make_msg(int source, int tag, std::uint64_t seq,
                 double arrival_s = 0.0) {
  Message m;
  m.context = kWorld;
  m.source = source;
  m.tag = tag;
  m.seq = seq;
  m.arrival_vtime_s = arrival_s;
  const auto marker = static_cast<std::byte>(seq);
  m.assign_payload(std::span<const std::byte>(&marker, 1));
  return m;
}

TEST(Sequence, PhysicalReorderDeliversInSeqOrder) {
  Mailbox mb;
  mb.put(make_msg(0, 1, 2));
  mb.put(make_msg(0, 1, 3));
  mb.put(make_msg(0, 1, 1), /*front=*/true);  // fault-plan front insertion
  EXPECT_EQ(mb.take(kWorld, 0, 1).seq, 1u);
  EXPECT_EQ(mb.take(kWorld, 0, 1).seq, 2u);
  EXPECT_EQ(mb.take(kWorld, 0, 1).seq, 3u);
}

TEST(Sequence, FrontInsertedLaterSeqCannotOvertake) {
  Mailbox mb;
  mb.put(make_msg(0, 7, 1));
  mb.put(make_msg(0, 7, 2), /*front=*/true);
  // Physically seq 2 is at the head; logically seq 1 still precedes it.
  auto got = mb.try_take(kWorld, 0, 7);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->seq, 1u);
}

TEST(Sequence, DuplicateSeqIsDeliveredOnceAndCounted) {
  Mailbox mb;
  mb.put(make_msg(0, 1, 1));
  mb.put(make_msg(0, 1, 1));  // duplicate delivery of the same send
  mb.put(make_msg(0, 1, 2));
  EXPECT_EQ(mb.take(kWorld, 0, 1).seq, 1u);
  EXPECT_EQ(mb.take(kWorld, 0, 1).seq, 2u);
  EXPECT_EQ(mb.pending(), 0u);
  EXPECT_EQ(mb.duplicates_suppressed(), 1u);
}

TEST(Sequence, ProbeAgreesWithTakeOnDuplicates) {
  Mailbox mb;
  mb.put(make_msg(0, 1, 1));
  EXPECT_EQ(mb.take(kWorld, 0, 1).seq, 1u);
  // A late duplicate of the delivered message: probe must not advertise a
  // message take would refuse to deliver.
  mb.put(make_msg(0, 1, 1));
  EXPECT_FALSE(mb.probe(kWorld, 0, 1));
  EXPECT_EQ(mb.duplicates_suppressed(), 1u);
  EXPECT_EQ(mb.pending(), 0u);  // purged by the probe
}

TEST(Sequence, StreamsAreIndependent) {
  Mailbox mb;
  mb.put(make_msg(0, 1, 5));  // (src 0, tag 1) stream is at seq 5
  mb.put(make_msg(1, 1, 1));  // (src 1, tag 1) is a different stream
  mb.put(make_msg(0, 2, 1));  // as is (src 0, tag 2)
  EXPECT_EQ(mb.take(kWorld, 0, 1).seq, 5u);
  EXPECT_EQ(mb.take(kWorld, 1, 1).seq, 1u);
  EXPECT_EQ(mb.take(kWorld, 0, 2).seq, 1u);
  EXPECT_EQ(mb.duplicates_suppressed(), 0u);
}

// Suppression is tag-free: numbers are per (context, source) channel and
// the delivered ones merge into ranges.  Taking the channel's messages in
// the order 1, 3, 5, 2, 4 (one fresh tag each) exercises every merge, and
// a late duplicate whose number lies inside the merged range is dropped.
TEST(Sequence, LateDuplicateInsideMergedRangeIsSuppressed) {
  Mailbox mb;
  for (std::uint64_t s = 1; s <= 5; ++s) {
    mb.put(make_msg(0, /*tag=*/static_cast<int>(s), s));
  }
  for (const int tag : {1, 3, 5, 2, 4}) {
    const auto got = mb.try_take(kWorld, 0, tag);
    ASSERT_TRUE(got.has_value()) << "tag " << tag;
    EXPECT_EQ(got->seq, static_cast<std::uint64_t>(tag));
  }
  EXPECT_EQ(mb.delivered_ranges(), 1u);

  mb.put(make_msg(0, 3, 3));  // late duplicate of seq 3
  EXPECT_FALSE(mb.probe(kWorld, 0, kAnyTag));
  EXPECT_EQ(mb.duplicates_suppressed(), 1u);
  EXPECT_EQ(mb.pending(), 0u);
  EXPECT_EQ(mb.delivered_ranges(), 1u);
}

// A number that is never delivered (a fault plan dropped it) leaves a hole:
// it costs exactly one extra range, and late duplicates on either side of
// it stay suppressed.
TEST(Sequence, HoleCostsOneRangeAndKeepsDuplicatesSuppressed) {
  Mailbox mb;
  for (const std::uint64_t s : {1, 2, 4, 5}) mb.put(make_msg(0, 1, s));
  for (const std::uint64_t s : {1, 2, 4, 5}) {
    EXPECT_EQ(mb.take(kWorld, 0, 1).seq, s);
  }
  EXPECT_EQ(mb.delivered_ranges(), 2u);  // [1, 2] and [4, 5]

  mb.put(make_msg(0, 1, 2));
  mb.put(make_msg(0, 1, 4));
  mb.put(make_msg(0, 1, 5));
  EXPECT_FALSE(mb.try_take(kWorld, 0, kAnyTag).has_value());
  EXPECT_EQ(mb.duplicates_suppressed(), 3u);
  EXPECT_EQ(mb.pending(), 0u);
  EXPECT_EQ(mb.delivered_ranges(), 2u);
}

// The one-shot-collective pattern: every message carries a fresh tag.  The
// suppression state must stay O(channels), not O(messages): 100,000
// messages over 3 channels, each batch received newest first so ranges
// split and merge again, end at one range per channel.
TEST(Sequence, FreshTagsKeepOneRangePerChannel) {
  constexpr int kChannels = 3;
  constexpr int kMessages = 100000;
  constexpr int kBatch = 24;
  Mailbox mb;
  std::array<std::uint64_t, kChannels> last_seq{};
  std::vector<std::pair<int, int>> batch;  // (source, tag), in send order
  int tag = 0;
  for (int sent = 0; sent < kMessages;) {
    batch.clear();
    for (int i = 0; i < kBatch && sent < kMessages; ++i, ++sent, ++tag) {
      const int source = i % kChannels;
      mb.put(make_msg(source, tag, ++last_seq[source]));
      batch.emplace_back(source, tag);
    }
    for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
      ASSERT_TRUE(mb.try_take(kWorld, it->first, it->second).has_value())
          << "tag " << it->second;
    }
  }
  EXPECT_EQ(mb.pending(), 0u);
  EXPECT_EQ(mb.duplicates_suppressed(), 0u);
  EXPECT_EQ(mb.delivered_ranges(), static_cast<std::size_t>(kChannels));
}

// Through Comm with every message duplicated: a receiver that takes tag B
// before tag A from the same sender (B numbered after A on their shared
// channel) gets each message exactly once.  Run on fibers so that a wrongly
// suppressed A surfaces as DeadlockError instead of a hang.
TEST(Sequence, OutOfTagOrderReceiveUnderDuplicatesDeliversEachOnce) {
  SimConfig sim;
  sim.seed = 13;
  sim.duplicate_prob = 1.0;
  sim.reorder_prob = 0.5;
  constexpr int kRounds = 8;
  constexpr int kDoneTag = 100;
  std::vector<int> got;
  int leftovers = 0;
  std::uint64_t suppressed = 0;
  mprt::run(
      2,
      [&](Comm& comm) {
        if (comm.rank() == 0) {
          for (int i = 0; i < kRounds; ++i) {
            comm.send(1, /*tag=*/2 * i, 2 * i);          // A
            comm.send(1, /*tag=*/2 * i + 1, 2 * i + 1);  // B
          }
          comm.send(1, kDoneTag, 0);
          return;
        }
        for (int i = 0; i < kRounds; ++i) {
          got.push_back(comm.recv<int>(0, 2 * i + 1));
          got.push_back(comm.recv<int>(0, 2 * i));
        }
        // Every copy of every A and B was enqueued before the done marker.
        (void)comm.recv<int>(0, kDoneTag);
        for (int t = 0; t < 2 * kRounds; ++t) {
          leftovers += comm.try_recv_message(0, t).has_value() ? 1 : 0;
        }
        suppressed =
            comm.metrics()[mprt::Metric::kDuplicatesSuppressed];
      },
      mprt::CostModel{}, sim, mprt::ExecPolicy{/*workers=*/2, 0});

  std::vector<int> want;
  for (int i = 0; i < kRounds; ++i) {
    want.push_back(2 * i + 1);
    want.push_back(2 * i);
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(leftovers, 0);
  EXPECT_EQ(suppressed, static_cast<std::uint64_t>(2 * kRounds));
}

TEST(Sequence, LostMessageHoldsItsStreamUntilAReceiveGivesUp) {
  Mailbox mb;
  mb.note_lost(make_msg(0, 5, 1));  // a fault plan dropped seq 1
  mb.put(make_msg(0, 5, 2));
  mb.put(make_msg(0, 6, 3));
  // Only the lost message's (source, tag) stream is held.
  EXPECT_EQ(mb.take(kWorld, 0, 6).seq, 3u);
  EXPECT_FALSE(mb.probe(kWorld, 0, 5));
  EXPECT_FALSE(mb.try_take(kWorld, kAnySource, 5).has_value());
  // The receive that gave up reported the loss; the stream flows again.
  mb.forget_lost(kWorld, kAnySource, 5);
  EXPECT_EQ(mb.take(kWorld, 0, 5).seq, 2u);
}

TEST(Sequence, TimeoutOnALostMessageLetsTheTagBeReused) {
  // Drop rank 0's first message; the receive of it times out, and the
  // next message on the same (source, tag) is then received, not held.
  verify::RecordingOracle oracle(
      2, {}, verify::FaultPlacement{verify::FaultPlacement::Kind::kDrop, 0, 0});
  SimConfig sim;
  sim.oracle = &oracle;
  std::vector<int> got;
  bool timed_out = false;
  mprt::run(
      2,
      [&](Comm& comm) {
        if (comm.rank() == 0) {
          comm.send(1, 4, 1);
          comm.send(1, 4, 2);
          return;
        }
        comm.set_recv_deadline(mprt::RecvDeadline{0.2, 2, 2.0});
        try {
          got.push_back(comm.recv<int>(0, 4));
        } catch (const TimeoutError&) {
          timed_out = true;
        }
        got.push_back(comm.recv<int>(0, 4));
      },
      mprt::CostModel{}, sim);
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(got, std::vector<int>{2});
}

TEST(Sequence, LegacyUnsequencedMessagesKeepQueueOrder) {
  // seq 0 marks messages constructed outside Comm::send (older tests,
  // hand-built harnesses): they must keep the historical queue-position
  // order and never participate in duplicate suppression.
  Mailbox mb;
  mb.put(make_msg(0, 1, 0, /*arrival_s=*/1.0));
  mb.put(make_msg(0, 1, 0, /*arrival_s=*/2.0));
  EXPECT_EQ(mb.take(kWorld, 0, 1).arrival_vtime_s, 1.0);
  EXPECT_EQ(mb.take(kWorld, 0, 1).arrival_vtime_s, 2.0);
  EXPECT_EQ(mb.duplicates_suppressed(), 0u);
}

// The end-to-end replay the satellite names: the async progress engine
// (which polls with try_take between compute chunks and waits at the end)
// under a reorder+duplicate fault plan must match the blocking collective
// bit for bit.
TEST(Sequence, AsyncEngineReplayUnderReorderAndDuplicates) {
  SimConfig sim;
  sim.seed = 77;
  sim.duplicate_prob = 0.7;
  sim.reorder_prob = 0.7;
  sim.delay_prob = 0.5;
  sim.max_extra_delay_s = 2e-5;

  std::vector<std::vector<long>> async_out(7);
  std::vector<std::vector<long>> blocking_out(7);
  mprt::run(
      7,
      [&](Comm& comm) {
        const auto r = static_cast<std::size_t>(comm.rank());
        std::vector<int> mine;
        for (int i = 0; i < 12; ++i) {
          mine.push_back((comm.rank() * 31 + i * 17) % 8);
        }
        blocking_out[r] = rs::reduce(comm, mine, rs::ops::Counts(8));
        auto fut = rs::reduce_async(comm, mine, rs::ops::Counts(8));
        // Poll between compute chunks, as an overlapping caller would;
        // this drives the try_take path before the final wait.  Each
        // section closes before its poll, which may yield the rank.
        for (int chunk = 0; chunk < 4; ++chunk) {
          {
            auto timer = comm.compute_section();
          }
          coll::nb::poll();
        }
        async_out[r] = fut.get();
      },
      mprt::CostModel{}, sim);

  for (std::size_t r = 0; r < 7; ++r) {
    EXPECT_EQ(async_out[r], blocking_out[r]) << "rank " << r;
    EXPECT_EQ(async_out[r], async_out[0]) << "rank " << r;
  }
}

}  // namespace
