// Tests for the virtual machine: rank spawning, point-to-point messaging,
// failure propagation, and the send/byte counters.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "mprt/comm.hpp"
#include "mprt/runtime.hpp"
#include "util/error.hpp"

namespace {

using namespace rsmpi;
using mprt::Comm;

TEST(Runtime, SpawnsRequestedRanks) {
  std::atomic<int> count{0};
  std::vector<std::atomic<bool>> seen(8);
  mprt::run(8, [&](Comm& comm) {
    count.fetch_add(1);
    EXPECT_EQ(comm.size(), 8);
    EXPECT_GE(comm.rank(), 0);
    EXPECT_LT(comm.rank(), 8);
    seen[static_cast<std::size_t>(comm.rank())] = true;
  });
  EXPECT_EQ(count.load(), 8);
  for (const auto& s : seen) EXPECT_TRUE(s.load());
}

TEST(Runtime, SingleRankWorks) {
  auto result = mprt::run(1, [](Comm& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
  });
  EXPECT_EQ(result.metrics[mprt::Metric::kMessagesSent], 0u);
}

TEST(Runtime, ZeroRanksRejected) {
  EXPECT_THROW(mprt::run(0, [](Comm&) {}), ArgumentError);
}

TEST(Runtime, PingPong) {
  mprt::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, 123);
      EXPECT_EQ(comm.recv<int>(1, 8), 124);
    } else {
      EXPECT_EQ(comm.recv<int>(0, 7), 123);
      comm.send(0, 8, 124);
    }
  });
}

TEST(Runtime, VectorPayloadRoundTrip) {
  mprt::run(2, [](Comm& comm) {
    const std::vector<double> data = {1.5, 2.5, 3.5};
    if (comm.rank() == 0) {
      comm.send_span<double>(1, 1, data);
    } else {
      EXPECT_EQ(comm.recv_vector<double>(0, 1), data);
    }
  });
}

TEST(Runtime, RecvSpanChecksExtent) {
  EXPECT_THROW(mprt::run(2,
                         [](Comm& comm) {
                           if (comm.rank() == 0) {
                             const std::vector<int> data = {1, 2, 3};
                             comm.send_span<int>(1, 1, data);
                           } else {
                             std::vector<int> out(2);  // wrong extent
                             comm.recv_span<int>(0, 1, out);
                           }
                         }),
               ProtocolError);
}

TEST(Runtime, WildcardRecvReportsSource) {
  mprt::run(3, [](Comm& comm) {
    if (comm.rank() == 0) {
      int seen_mask = 0;
      for (int i = 0; i < 2; ++i) {
        mprt::RecvStatus status;
        const int v = comm.recv<int>(mprt::kAnySource, 5, &status);
        EXPECT_EQ(v, status.source * 10);
        seen_mask |= 1 << status.source;
      }
      EXPECT_EQ(seen_mask, 0b110);
    } else {
      comm.send(0, 5, comm.rank() * 10);
    }
  });
}

TEST(Runtime, SelfSendRejected) {
  EXPECT_THROW(mprt::run(2,
                         [](Comm& comm) {
                           comm.send(comm.rank(), 0, 1);
                         }),
               ArgumentError);
}

TEST(Runtime, OutOfRangeDestinationRejected) {
  EXPECT_THROW(mprt::run(2,
                         [](Comm& comm) {
                           if (comm.rank() == 0) comm.send(5, 0, 1);
                         }),
               ArgumentError);
}

TEST(Runtime, ExceptionPropagatesToCaller) {
  EXPECT_THROW(mprt::run(4,
                         [](Comm& comm) {
                           if (comm.rank() == 2) {
                             throw std::logic_error("rank 2 failed");
                           }
                         }),
               std::logic_error);
}

TEST(Runtime, FailingRankUnblocksPeersInRecv) {
  // Rank 1 blocks forever waiting for a message that never comes; rank 0
  // throws.  Without fail-fast teardown this test would deadlock.
  EXPECT_THROW(mprt::run(2,
                         [](Comm& comm) {
                           if (comm.rank() == 0) {
                             throw std::runtime_error("boom");
                           }
                           (void)comm.recv<int>(0, 9);
                         }),
               std::runtime_error);
}

TEST(Runtime, CountersAggregateSends) {
  auto result = mprt::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 0, 1.0);  // 8 bytes
      comm.send(1, 0, 2.0);  // 8 bytes
    } else {
      (void)comm.recv<double>(0, 0);
      (void)comm.recv<double>(0, 0);
    }
  });
  EXPECT_EQ(result.metrics[mprt::Metric::kMessagesSent], 2u);
  EXPECT_EQ(result.metrics[mprt::Metric::kBytesSent], 16u);
}

TEST(Runtime, SendrecvExchangesValues) {
  mprt::run(2, [](Comm& comm) {
    const int partner = 1 - comm.rank();
    const int got =
        comm.sendrecv(partner, 3, comm.rank() * 100, partner, 3);
    EXPECT_EQ(got, partner * 100);
  });
}

TEST(Runtime, ManyRanksAllToOne) {
  constexpr int kRanks = 16;
  mprt::run(kRanks, [](Comm& comm) {
    if (comm.rank() == 0) {
      long sum = 0;
      for (int i = 1; i < comm.size(); ++i) {
        sum += comm.recv<long>(mprt::kAnySource, 1);
      }
      EXPECT_EQ(sum, kRanks * (kRanks - 1) / 2);
    } else {
      comm.send(0, 1, static_cast<long>(comm.rank()));
    }
  });
}

}  // namespace
