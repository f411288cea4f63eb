// Tests for the LogGP cost model and virtual-clock plumbing.
//
// Determinism matters here: with compute_scale = 0 the virtual time of an
// execution is a pure function of its message pattern, so tests can state
// exact expected makespans.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "mprt/comm.hpp"
#include "mprt/cost_model.hpp"
#include "mprt/runtime.hpp"

namespace {

using namespace rsmpi;
using mprt::Comm;
using mprt::CostModel;

/// Cost model with no compute charging and round numbers for exact math.
CostModel deterministic_model() {
  CostModel m;
  m.send_overhead_s = 1.0;
  m.recv_overhead_s = 2.0;
  m.latency_s = 10.0;
  m.per_byte_s = 0.5;
  m.compute_scale = 0.0;
  return m;
}

TEST(CostModel, WireTime) {
  CostModel m;
  m.latency_s = 5.0;
  m.per_byte_s = 0.25;
  EXPECT_DOUBLE_EQ(m.wire_time_between(0, 1, 0), 5.0);
  EXPECT_DOUBLE_EQ(m.wire_time_between(0, 1, 8), 7.0);
}

TEST(CostModel, FreeModelIsFree) {
  const CostModel m = CostModel::free();
  EXPECT_DOUBLE_EQ(m.wire_time_between(0, 1, 1 << 20), 0.0);
  EXPECT_DOUBLE_EQ(m.send_overhead_s, 0.0);
  EXPECT_DOUBLE_EQ(m.recv_overhead_s, 0.0);
}

TEST(VirtualClock, AdvanceAndMergeAreMonotone) {
  mprt::VirtualClock c;
  EXPECT_DOUBLE_EQ(c.now(), 0.0);
  c.advance(3.0);
  EXPECT_DOUBLE_EQ(c.now(), 3.0);
  c.advance(-5.0);  // negative durations are ignored
  EXPECT_DOUBLE_EQ(c.now(), 3.0);
  c.merge(1.0);  // merge never rewinds
  EXPECT_DOUBLE_EQ(c.now(), 3.0);
  c.merge(7.5);
  EXPECT_DOUBLE_EQ(c.now(), 7.5);
}

TEST(VClock, SingleMessageTiming) {
  // One 4-byte message: sender pays o_s = 1; arrival = 1 + L + 4G = 13;
  // receiver merges and pays o_r = 2 -> 15.
  const auto result = mprt::run(
      2,
      [](Comm& comm) {
        if (comm.rank() == 0) {
          comm.send(1, 0, std::int32_t{5});
        } else {
          (void)comm.recv<std::int32_t>(0, 0);
        }
      },
      deterministic_model());
  EXPECT_DOUBLE_EQ(result.rank_times_s[0], 1.0);
  EXPECT_DOUBLE_EQ(result.rank_times_s[1], 15.0);
  EXPECT_DOUBLE_EQ(result.makespan_s, 15.0);
}

TEST(VClock, MergeTakesMaxOfOwnAndSenderTime) {
  // The receiver has already advanced beyond the message's arrival time;
  // only o_r is added on top of its own clock.
  const auto result = mprt::run(
      2,
      [](Comm& comm) {
        if (comm.rank() == 0) {
          comm.send(1, 0, std::int32_t{5});  // arrival at t = 13
        } else {
          comm.clock().advance(100.0);
          (void)comm.recv<std::int32_t>(0, 0);  // 100 + o_r
        }
      },
      deterministic_model());
  EXPECT_DOUBLE_EQ(result.rank_times_s[1], 102.0);
}

TEST(VClock, ChainAccumulatesLatency) {
  // 0 -> 1 -> 2 relay of a 4-byte message: each hop adds o_s + L + 4G,
  // then o_r: rank2 time = 2*(1 + 12) + 2*2 = hmm, computed stepwise below.
  //   rank0: send at 0, pays o_s -> 1; arrival1 = 1 + 12 = 13.
  //   rank1: merge 13, +o_r -> 15; send pays o_s -> 16; arrival2 = 28.
  //   rank2: merge 28, +o_r -> 30.
  const auto result = mprt::run(
      3,
      [](Comm& comm) {
        if (comm.rank() == 0) {
          comm.send(1, 0, std::int32_t{1});
        } else if (comm.rank() == 1) {
          const auto v = comm.recv<std::int32_t>(0, 0);
          comm.send(2, 0, v);
        } else {
          (void)comm.recv<std::int32_t>(1, 0);
        }
      },
      deterministic_model());
  EXPECT_DOUBLE_EQ(result.rank_times_s[0], 1.0);
  EXPECT_DOUBLE_EQ(result.rank_times_s[1], 16.0);
  EXPECT_DOUBLE_EQ(result.rank_times_s[2], 30.0);
  EXPECT_DOUBLE_EQ(result.makespan_s, 30.0);
}

TEST(VClock, PayloadSizeAffectsWireTime) {
  // 16 bytes at 0.5 s/byte: arrival = o_s + L + 8 extra vs a 0-byte probe.
  const auto result = mprt::run(
      2,
      [](Comm& comm) {
        if (comm.rank() == 0) {
          const std::vector<std::int64_t> big = {1, 2};  // 16 bytes
          comm.send_span<std::int64_t>(1, 0, big);
        } else {
          (void)comm.recv_vector<std::int64_t>(0, 0);
        }
      },
      deterministic_model());
  // arrival = 1 + 10 + 16*0.5 = 19; +o_r = 21.
  EXPECT_DOUBLE_EQ(result.rank_times_s[1], 21.0);
}

TEST(VClock, ComputeTimerChargesCpuTime) {
  CostModel m = CostModel::free();
  m.compute_scale = 1.0;
  const auto result = mprt::run(
      1,
      [](Comm& comm) {
        auto timer = comm.compute_section();
        // Busy work long enough to register on the thread CPU clock.
        volatile double sink = 0;
        for (int i = 0; i < 2'000'000; ++i) sink = sink + 1.0;
      },
      m);
  EXPECT_GT(result.makespan_s, 0.0);
  EXPECT_LT(result.makespan_s, 10.0);  // sanity: well under wall-clock scale
}

TEST(VClock, ComputeScaleZeroSuppressesCharging) {
  const auto result = mprt::run(
      1,
      [](Comm& comm) {
        auto timer = comm.compute_section();
        volatile double sink = 0;
        for (int i = 0; i < 100'000; ++i) sink = sink + 1.0;
      },
      deterministic_model());
  EXPECT_DOUBLE_EQ(result.makespan_s, 0.0);
}

// -- Ports: one injection and one ejection port per rank and tier ----------
//
// Under deterministic_model() a message of b = 100 bytes holds a port for
// b·G = 50.  Every case below finishes at exactly k·b·G + L + o_s + o_r:
// the ports serialize the k messages' bytes, and only one latency and one
// pair of overheads stay exposed.

constexpr std::size_t kPortBytes = 100;
constexpr double kPortTime = 50.0;  // kPortBytes * G

void send_port_message(Comm& comm, int dest) {
  const std::vector<std::byte> payload(kPortBytes);
  comm.send_bytes(dest, 0, payload);
}

TEST(VClockPorts, StreamFinishesNoEarlierThanItsBytes) {
  // Rank 0 streams k messages to rank 1: message i departs when the
  // injection port frees, at 1 + (i−1)·bG, so the last arrives at
  // 1 + L + k·bG and completes there, plus o_r.
  for (const int k : {1, 2, 5, 16}) {
    const auto result = mprt::run(
        2,
        [k](Comm& comm) {
          for (int i = 0; i < k; ++i) {
            if (comm.rank() == 0) {
              send_port_message(comm, 1);
            } else {
              (void)comm.recv_message(0, 0);
            }
          }
        },
        deterministic_model());
    EXPECT_GE(result.rank_times_s[1], k * kPortTime) << "k=" << k;
    EXPECT_DOUBLE_EQ(result.rank_times_s[1], k * kPortTime + 13.0)
        << "k=" << k;
    // The sender's CPU pays only o_s per message; its port does the rest.
    EXPECT_DOUBLE_EQ(result.rank_times_s[0], static_cast<double>(k));
  }
}

TEST(VClockPorts, FanInFinishesNoEarlierThanItsBytes) {
  // k ranks send to rank 0 at once: all arrive at 1 + L + bG = 61, and the
  // root's ejection port takes their bytes one message after another.
  for (const int k : {1, 2, 4, 7}) {
    const auto result = mprt::run(
        k + 1,
        [k](Comm& comm) {
          if (comm.rank() == 0) {
            for (int i = 0; i < k; ++i) {
              (void)comm.recv_message(mprt::kAnySource, 0);
            }
          } else {
            send_port_message(comm, 0);
          }
        },
        deterministic_model());
    EXPECT_GE(result.rank_times_s[0], k * kPortTime) << "k=" << k;
    EXPECT_DOUBLE_EQ(result.rank_times_s[0], k * kPortTime + 13.0)
        << "k=" << k;
  }
}

TEST(VClockPorts, TiersHaveTheirOwnPorts) {
  // Ranks 0 and 1 share a node, rank 2 is on the next.  Rank 0 streams
  // three messages to rank 1 and then sends one to rank 2: the inter-node
  // port is still free, so that message departs at rank 0's clock (4 after
  // four o_s) and rank 2 finishes at 4 + L + bG + o_r = 66.
  CostModel m = deterministic_model();
  m.ranks_per_node = 2;
  m.intra_send_overhead_s = 1.0;
  m.intra_recv_overhead_s = 2.0;
  m.intra_latency_s = 10.0;
  m.intra_per_byte_s = 0.5;
  const auto result = mprt::run(
      3,
      [](Comm& comm) {
        if (comm.rank() == 0) {
          for (int i = 0; i < 3; ++i) send_port_message(comm, 1);
          send_port_message(comm, 2);
        } else if (comm.rank() == 1) {
          for (int i = 0; i < 3; ++i) (void)comm.recv_message(0, 0);
        } else {
          (void)comm.recv_message(0, 0);
        }
      },
      m);
  EXPECT_DOUBLE_EQ(result.rank_times_s[2], 66.0);
  EXPECT_DOUBLE_EQ(result.rank_times_s[1], 3 * kPortTime + 13.0);
}

TEST(VClockPorts, ResetClearsThePortsAndJoinTakesTheLater) {
  mprt::VirtualClock c;
  EXPECT_DOUBLE_EQ(c.inject(false, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(c.inject(false, 5.0), 5.0);  // waits for the port
  EXPECT_DOUBLE_EQ(c.eject(false, 1.0, 5.0), 5.0);
  EXPECT_DOUBLE_EQ(c.eject(false, 1.0, 5.0), 10.0);
  // Joining a timeline (a nonblocking operation's) takes the later time
  // and, port by port, the later free time.
  mprt::VirtualClock op = c;
  op.advance(2.0);
  EXPECT_DOUBLE_EQ(op.inject(true, 3.0), 2.0);  // the intra-node port
  c.join(op);
  EXPECT_DOUBLE_EQ(c.now(), 2.0);
  EXPECT_DOUBLE_EQ(c.inject(true, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(c.inject(false, 5.0), 10.0);
  EXPECT_DOUBLE_EQ(c.eject(false, 1.0, 5.0), 15.0);
  c.reset();
  EXPECT_DOUBLE_EQ(c.now(), 0.0);
  EXPECT_DOUBLE_EQ(c.inject(false, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(c.eject(false, 1.0, 5.0), 5.0);
}

}  // namespace
