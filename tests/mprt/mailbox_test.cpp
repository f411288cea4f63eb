// Unit tests for the per-rank mailbox: matching (including communicator
// contexts), ordering, blocking and abort.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "mprt/mailbox.hpp"
#include "mprt/runtime.hpp"
#include "util/error.hpp"

namespace {

using rsmpi::AbortError;
using rsmpi::mprt::Comm;
using rsmpi::mprt::kAnySource;
using rsmpi::mprt::kAnyTag;
using rsmpi::mprt::Mailbox;
using rsmpi::mprt::Message;

constexpr std::int64_t kWorld = 0;

Message make_msg(int source, int tag, std::byte marker = std::byte{0},
                 std::int64_t context = kWorld) {
  Message m;
  m.context = context;
  m.source = source;
  m.tag = tag;
  m.assign_payload(std::span<const std::byte>(&marker, 1));
  return m;
}

TEST(Mailbox, ExactMatchTake) {
  Mailbox mb;
  mb.put(make_msg(1, 10));
  const Message m = mb.take(kWorld, 1, 10);
  EXPECT_EQ(m.source, 1);
  EXPECT_EQ(m.tag, 10);
  EXPECT_EQ(mb.pending(), 0u);
}

TEST(Mailbox, NonMatchingMessageIsSkipped) {
  Mailbox mb;
  mb.put(make_msg(1, 10));
  mb.put(make_msg(2, 20));
  const Message m = mb.take(kWorld, 2, 20);
  EXPECT_EQ(m.source, 2);
  EXPECT_EQ(mb.pending(), 1u);  // the (1, 10) message is still queued
}

TEST(Mailbox, WildcardSource) {
  Mailbox mb;
  mb.put(make_msg(5, 7));
  const Message m = mb.take(kWorld, kAnySource, 7);
  EXPECT_EQ(m.source, 5);
}

TEST(Mailbox, WildcardTag) {
  Mailbox mb;
  mb.put(make_msg(3, 99));
  const Message m = mb.take(kWorld, 3, kAnyTag);
  EXPECT_EQ(m.tag, 99);
}

TEST(Mailbox, DoubleWildcardTakesOldest) {
  Mailbox mb;
  mb.put(make_msg(1, 1, std::byte{0xA}));
  mb.put(make_msg(2, 2, std::byte{0xB}));
  const Message m = mb.take(kWorld, kAnySource, kAnyTag);
  EXPECT_EQ(m.payload()[0], std::byte{0xA});
}

TEST(Mailbox, ContextIsolatesCommunicators) {
  // Identical (source, tag) on two contexts must never cross-match, even
  // under full wildcards.
  Mailbox mb;
  mb.put(make_msg(0, 5, std::byte{0xA}, /*context=*/111));
  mb.put(make_msg(0, 5, std::byte{0xB}, /*context=*/222));
  const Message m222 = mb.take(222, kAnySource, kAnyTag);
  EXPECT_EQ(m222.payload()[0], std::byte{0xB});
  const Message m111 = mb.take(111, 0, 5);
  EXPECT_EQ(m111.payload()[0], std::byte{0xA});
}

TEST(Mailbox, ProbeRespectsContext) {
  Mailbox mb;
  mb.put(make_msg(0, 5, std::byte{0}, /*context=*/7));
  EXPECT_TRUE(mb.probe(7, kAnySource, kAnyTag));
  EXPECT_FALSE(mb.probe(kWorld, kAnySource, kAnyTag));
}

TEST(Mailbox, FifoPerSourceTagPair) {
  // The MPI non-overtaking rule: same (source, tag) delivers in order.
  Mailbox mb;
  mb.put(make_msg(1, 5, std::byte{1}));
  mb.put(make_msg(1, 5, std::byte{2}));
  mb.put(make_msg(1, 5, std::byte{3}));
  EXPECT_EQ(mb.take(kWorld, 1, 5).payload()[0], std::byte{1});
  EXPECT_EQ(mb.take(kWorld, 1, 5).payload()[0], std::byte{2});
  EXPECT_EQ(mb.take(kWorld, 1, 5).payload()[0], std::byte{3});
}

TEST(Mailbox, TryTakeReturnsNulloptWhenEmpty) {
  Mailbox mb;
  EXPECT_FALSE(mb.try_take(kWorld, 0, 0).has_value());
}

TEST(Mailbox, TryTakeMatches) {
  Mailbox mb;
  mb.put(make_msg(4, 4));
  EXPECT_FALSE(mb.try_take(kWorld, 4, 5).has_value());
  EXPECT_TRUE(mb.try_take(kWorld, 4, 4).has_value());
  EXPECT_EQ(mb.pending(), 0u);
}

TEST(Mailbox, ProbeDoesNotConsume) {
  Mailbox mb;
  mb.put(make_msg(1, 1));
  EXPECT_TRUE(mb.probe(kWorld, 1, 1));
  EXPECT_TRUE(mb.probe(kWorld, kAnySource, kAnyTag));
  EXPECT_FALSE(mb.probe(kWorld, 2, 1));
  EXPECT_EQ(mb.pending(), 1u);
}

// A blocking take parks its rank until a put wakes it.  On one worker the
// taking rank runs first, so its take really blocks before the put.
TEST(Mailbox, BlockingTakeWokenByPut) {
  int tag = -1;
  rsmpi::mprt::run(
      2,
      [&](Comm& comm) {
        if (comm.rank() == 0) {
          tag = comm.recv_message(1, 42).tag;
        } else {
          comm.send(0, 42, 1);
        }
      },
      rsmpi::mprt::CostModel{}, rsmpi::mprt::SimConfig{},
      rsmpi::mprt::ExecPolicy{1});
  EXPECT_EQ(tag, 42);
}

// A sibling's failure aborts the run, which unblocks the parked take with
// AbortError; the run rethrows the sibling's own error.
TEST(Mailbox, AbortUnblocksTake) {
  bool aborted = false;
  EXPECT_THROW(rsmpi::mprt::run(
                   2,
                   [&](Comm& comm) {
                     if (comm.rank() == 1) throw std::runtime_error("fails");
                     try {
                       (void)comm.recv_message(1, 0);
                     } catch (const AbortError&) {
                       aborted = true;
                     }
                   },
                   rsmpi::mprt::CostModel{}, rsmpi::mprt::SimConfig{},
                   rsmpi::mprt::ExecPolicy{1}),
               std::runtime_error);
  EXPECT_TRUE(aborted);
}

TEST(Mailbox, BlockingTakeWithoutWaiterThrows) {
  Mailbox mb;
  EXPECT_THROW(mb.take(kWorld, 0, 0), rsmpi::Error);
}

TEST(Mailbox, AbortedTryTakeThrows) {
  Mailbox mb;
  mb.abort();
  EXPECT_THROW(mb.try_take(kWorld, 0, 0), AbortError);
}

// -- Message payload storage (inline vs heap) -------------------------------

std::vector<std::byte> pattern_bytes(std::size_t n) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = std::byte(i & 0xFF);
  return v;
}

TEST(MessagePayload, SmallPayloadIsStoredInline) {
  Message m;
  const auto data = pattern_bytes(Message::kInlineCapacity);
  EXPECT_TRUE(m.assign_payload(data));
  EXPECT_TRUE(m.payload_inline());
  EXPECT_EQ(m.payload_size(), data.size());
  EXPECT_TRUE(std::equal(data.begin(), data.end(), m.payload().begin()));
  // No heap buffer to recycle from an inline payload.
  EXPECT_EQ(m.release_storage().capacity(), 0u);
}

TEST(MessagePayload, LargePayloadUsesHeap) {
  Message m;
  const auto data = pattern_bytes(Message::kInlineCapacity + 1);
  EXPECT_FALSE(m.assign_payload(data));
  EXPECT_FALSE(m.payload_inline());
  EXPECT_EQ(m.payload_size(), data.size());
  EXPECT_TRUE(std::equal(data.begin(), data.end(), m.payload().begin()));
}

TEST(MessagePayload, AdoptLargeBufferDoesNotCopy) {
  Message m;
  auto data = pattern_bytes(1024);
  const std::byte* storage = data.data();
  auto leftover = m.adopt_payload(std::move(data));
  EXPECT_TRUE(leftover.empty());  // buffer was adopted
  EXPECT_FALSE(m.payload_inline());
  EXPECT_EQ(m.payload().data(), storage);  // same allocation, no copy
  // take_payload moves the same allocation back out.
  auto out = m.take_payload();
  EXPECT_EQ(out.data(), storage);
}

TEST(MessagePayload, AdoptSmallBufferReturnsItForReuse) {
  Message m;
  auto data = pattern_bytes(8);
  data.reserve(256);
  auto leftover = m.adopt_payload(std::move(data));
  EXPECT_TRUE(m.payload_inline());
  EXPECT_EQ(m.payload_size(), 8u);
  // The caller gets its (capacity-bearing) buffer back for recycling.
  EXPECT_GE(leftover.capacity(), 256u);
}

TEST(MessagePayload, InlinePayloadSurvivesMailboxTransit) {
  Mailbox mb;
  Message m;
  m.context = kWorld;
  m.source = 3;
  m.tag = 9;
  const auto data = pattern_bytes(16);
  m.assign_payload(data);
  mb.put(std::move(m));
  Message got = mb.take(kWorld, 3, 9);
  EXPECT_TRUE(got.payload_inline());
  ASSERT_EQ(got.payload_size(), 16u);
  EXPECT_TRUE(std::equal(data.begin(), data.end(), got.payload().begin()));
}

}  // namespace
