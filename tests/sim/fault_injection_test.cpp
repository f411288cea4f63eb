// Negative tests for the fault-injection layer (ISSUE 4): each fault class
// the ChaosController can inject must be *detected* — duplicates by the
// sequence-number watermark, drops by the typed RecvDeadline timeout,
// kills by RankKilledError on the victim and PeerLostError (or the C API's
// RSMPI_ERR_PEER_LOST status) on the survivors.  Plus the replay
// guarantee: the same seed reproduces the same run, bit for bit.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "mprt/runtime.hpp"
#include "mprt/sim.hpp"
#include "rs/ops/basic.hpp"
#include "rs/ops/counts.hpp"
#include "rs/reduce.hpp"
#include "rs/scan.hpp"
#include "rsmpi_c/rsmpi_c.hpp"
#include "util/error.hpp"

namespace {

using namespace rsmpi;
using mprt::Comm;
using mprt::SimConfig;
namespace ops = rs::ops;

// -- Duplicates --------------------------------------------------------------

TEST(FaultInjection, DuplicateStormKeepsCollectivesCorrect) {
  SimConfig sim;
  sim.seed = 7;
  sim.duplicate_prob = 1.0;  // every message delivered twice

  std::vector<long> results(6);
  const auto rr = mprt::run(
      6,
      [&](Comm& comm) {
        std::vector<long> mine = {comm.rank() + 1L, 10L * comm.rank()};
        results[static_cast<std::size_t>(comm.rank())] =
            rs::reduce(comm, mine, ops::Sum<long>{});
      },
      mprt::CostModel{}, sim);

  long expected = 0;
  for (int r = 0; r < 6; ++r) expected += (r + 1L) + 10L * r;
  for (const long v : results) EXPECT_EQ(v, expected);
  EXPECT_GT(rr.sim.duplicated, 0u);
}

TEST(FaultInjection, DuplicatesOnAStreamAreSuppressedAndCounted) {
  SimConfig sim;
  sim.seed = 3;
  sim.duplicate_prob = 1.0;

  constexpr int kMessages = 8;
  constexpr int kTag = 5;
  const auto rr = mprt::run(
      2,
      [&](Comm& comm) {
        if (comm.rank() == 0) {
          for (int i = 0; i < kMessages; ++i) comm.send(1, kTag, i);
        } else {
          // Delivery must be in send order, each message exactly once,
          // despite every one being physically enqueued twice.
          for (int i = 0; i < kMessages; ++i) {
            EXPECT_EQ(comm.recv<int>(0, kTag), i);
          }
          EXPECT_GT(comm.metrics()[mprt::Metric::kDuplicatesSuppressed], 0u);
        }
      },
      mprt::CostModel{}, sim);

  EXPECT_EQ(rr.sim.duplicated, static_cast<std::uint64_t>(kMessages));
  // The duplicate of message i is purged while matching message i+1; only
  // the final message's copy may still be queued unexamined at teardown.
  EXPECT_GE(rr.metrics[mprt::Metric::kDuplicatesSuppressed],
            static_cast<std::uint64_t>(kMessages - 1));
}

// -- Drops -------------------------------------------------------------------

TEST(FaultInjection, DropsProduceTypedTimeoutAfterRetries) {
  SimConfig sim;
  sim.seed = 11;
  sim.drop_prob = 1.0;  // nothing ever arrives

  std::atomic<int> timeouts{0};
  std::atomic<std::uint64_t> retries{0};
  const auto rr = mprt::run(
      2,
      [&](Comm& comm) {
        if (comm.rank() == 0) {
          comm.send(1, 3, 42);
          return;
        }
        comm.set_recv_deadline(mprt::RecvDeadline{0.2, 3, 2.0});
        try {
          comm.recv<int>(0, 3);
          ADD_FAILURE() << "recv of a dropped message returned";
        } catch (const TimeoutError&) {
          timeouts.fetch_add(1);
          retries.fetch_add(comm.recv_retries());
        }
      },
      mprt::CostModel{}, sim);

  EXPECT_EQ(timeouts.load(), 1);
  EXPECT_EQ(retries.load(), 3u);  // every backoff slice expired
  EXPECT_GE(rr.sim.dropped, 1u);
}

TEST(FaultInjection, DeadlineIsHarmlessWhenMessagesArrive) {
  const auto rr = mprt::run(2, [&](Comm& comm) {
    comm.set_recv_deadline(mprt::RecvDeadline{5.0, 4, 2.0});
    if (comm.rank() == 0) {
      comm.send(1, 1, 7);
    } else {
      EXPECT_EQ(comm.recv<int>(0, 1), 7);
      EXPECT_EQ(comm.recv_retries(), 0u);
    }
  });
  EXPECT_EQ(rr.sim.dropped, 0u);
}

// -- Kills -------------------------------------------------------------------

TEST(FaultInjection, KillMidCollectiveSurfacesRootCause) {
  SimConfig sim;
  sim.seed = 5;
  sim.kill_rank = 1;
  sim.kill_after_sends = 0;  // killed at its first send

  // No rank handles the failure: run() must rethrow the root cause
  // (RankKilledError), not the survivors' PeerLostError symptom — and must
  // not hang.
  EXPECT_THROW(
      mprt::run(
          3,
          [&](Comm& comm) {
            std::vector<long> mine = {1L + comm.rank()};
            rs::reduce(comm, mine, ops::Sum<long>{});
          },
          mprt::CostModel{}, sim),
      RankKilledError);
}

TEST(FaultInjection, SurvivorsObserveTypedPeerLost) {
  SimConfig sim;
  sim.seed = 6;
  sim.kill_rank = 2;
  sim.kill_after_sends = 1;  // survives round one of the butterfly

  std::atomic<int> peer_lost{0};
  EXPECT_THROW(
      mprt::run(
          4,
          [&](Comm& comm) {
            std::vector<long> mine = {1L + comm.rank()};
            try {
              rs::reduce_state(comm, mine, ops::Sum<long>{}, true);
            } catch (const PeerLostError&) {
              // A rank may handle the loss and exit cleanly instead of
              // unwinding into the runtime's abort path.
              peer_lost.fetch_add(1);
            }
          },
          mprt::CostModel{}, sim),
      RankKilledError);
  EXPECT_GE(peer_lost.load(), 1);
}

TEST(FaultInjection, ExitDuringScanDoesNotHang) {
  SimConfig sim;
  sim.seed = 8;
  sim.kill_rank = 0;
  sim.kill_after_sends = 0;

  // Rank 0 dies before its first xscan send; downstream ranks block on it
  // and must get a typed error, not a deadlock (the regression this layer
  // exists to prevent).
  EXPECT_THROW(
      mprt::run(
          5,
          [&](Comm& comm) {
            std::vector<long> mine = {1L + comm.rank(), 2L};
            rs::scan(comm, mine, ops::Sum<long>{}, rs::ScanKind::kExclusive);
          },
          mprt::CostModel{}, sim),
      RankKilledError);
}

// -- Kill through the C API -------------------------------------------------

struct CSum {
  using In = long;
  struct State {
    long total;
  };
  static void ident(State& s) { s.total = 0; }
  static void accum(State& s, const In& x) { s.total += x; }
  static void combine(State& s1, const State& s2) { s1.total += s2.total; }
  static long generate(const State& s) { return s.total; }
};

TEST(FaultInjection, CApiWaitReturnsPeerLostStatus) {
  SimConfig sim;
  sim.seed = 9;
  sim.kill_rank = 1;
  sim.kill_after_sends = 0;

  std::atomic<int> peer_lost_status{0};
  std::atomic<int> other_status{0};
  EXPECT_THROW(
      mprt::run(
          4,
          [&](Comm& comm) {
            long out = 0;
            std::vector<long> mine = {10L * comm.rank()};
            auto req = c_api::RSMPI_Ireduceall<CSum>(&out, mine, comm);
            const int status = c_api::RSMPI_Wait(&req);
            if (status == c_api::RSMPI_ERR_PEER_LOST) {
              peer_lost_status.fetch_add(1);
            } else if (status != c_api::RSMPI_SUCCESS) {
              other_status.fetch_add(1);
            }
            // The handle is freed either way.
            EXPECT_FALSE(req.valid());
          },
          mprt::CostModel{}, sim),
      RankKilledError);
  EXPECT_GE(peer_lost_status.load(), 1);
  EXPECT_EQ(other_status.load(), 0);
}

TEST(CApiStatus, NullRequestWaitAndTestSucceed) {
  c_api::RSMPI_Request null_req;
  EXPECT_EQ(c_api::RSMPI_Wait(&null_req), c_api::RSMPI_SUCCESS);
  int status = -1;
  EXPECT_EQ(c_api::RSMPI_Test(&null_req, &status), 1);
  EXPECT_EQ(status, c_api::RSMPI_SUCCESS);
}

TEST(CApiStatus, WaitallReportsFirstFailure) {
  SimConfig sim;
  sim.seed = 12;
  sim.kill_rank = 2;
  sim.kill_after_sends = 0;

  std::atomic<int> nonsuccess{0};
  EXPECT_THROW(
      mprt::run(
          4,
          [&](Comm& comm) {
            long out = 0;
            std::vector<long> mine = {1L + comm.rank()};
            std::vector<c_api::RSMPI_Request> reqs;
            reqs.push_back(c_api::RSMPI_Ireduceall<CSum>(&out, mine, comm));
            const int status = c_api::RSMPI_Waitall(reqs);
            if (status != c_api::RSMPI_SUCCESS) nonsuccess.fetch_add(1);
          },
          mprt::CostModel{}, sim),
      RankKilledError);
  EXPECT_GE(nonsuccess.load(), 1);
}

// -- Replay ------------------------------------------------------------------

TEST(FaultInjection, SameSeedReplaysIdentically) {
  SimConfig sim;
  sim.seed = 20260805;
  sim.delay_prob = 0.4;
  sim.max_extra_delay_s = 1e-5;
  sim.duplicate_prob = 0.4;
  sim.reorder_prob = 0.4;
  sim.max_compute_skew_s = 5e-6;

  // Deterministic-partner schedules only (butterfly + xscan): wildcard
  // combine-as-available receives fold in physical arrival order, which
  // the host scheduler — not the seed — decides.  Virtual timestamps are
  // excluded from the comparison: the clock charges *measured* per-thread
  // CPU time for compute segments, so makespan is host-noise-dependent
  // even when every fault decision replays exactly.
  const auto once = [&] {
    std::vector<long> reds(6);
    std::vector<std::vector<long>> prefixes(6);
    const auto rr = mprt::run(
        6,
        [&](Comm& comm) {
          const auto r = static_cast<std::size_t>(comm.rank());
          std::vector<long> mine = {3L * comm.rank() + 1, 7L - comm.rank()};
          reds[r] = rs::red_result(
              rs::reduce_state(comm, mine, ops::Sum<long>{}, true));
          prefixes[r] = rs::scan(comm, mine, ops::Sum<long>{},
                                 rs::ScanKind::kExclusive);
        },
        mprt::CostModel{}, sim);
    return std::make_tuple(reds, prefixes, rr.sim.duplicated, rr.sim.delayed,
                           rr.sim.reordered, rr.sim.skew_events,
                           rr.metrics[mprt::Metric::kDuplicatesSuppressed]);
  };

  const auto first = once();
  const auto second = once();
  EXPECT_EQ(first, second);
}

}  // namespace
