// Rank virtualization: many ranks multiplexed onto a small OS-thread
// worker pool via fibers — the runtime's only executor.
//
// The headline acceptance test runs a p=4096 zoo allreduce on 8 workers —
// three orders of magnitude more ranks than threads — and checks every
// rank's result against the serial oracle, plus the scheduler counters
// surfaced through RunResult.  The remaining tests pin down the failure
// modes unique to virtualization: exact structural deadlock detection
// (every fiber parked, no timers pending), compute sections that would
// span a park, and the timed-receive path, whose deadline slices must
// ride the scheduler's timer heap.

#include <gtest/gtest.h>

#include <atomic>
#include <cfenv>
#include <cstdint>
#include <string>
#include <vector>

#include "mprt/runtime.hpp"
#include "rs/state_exchange.hpp"
#include "util/error.hpp"
#include "verify/registry.hpp"

namespace {

using namespace rsmpi;
using mprt::Comm;

// p = 4096 virtual ranks on 8 OS threads: the production state_allreduce
// dispatch (the flat cost model picks a logarithmic schedule for the
// small Counts state — never the 2(p−1)-step ring) must deliver the
// serial-oracle result on every rank, well inside the default ctest
// timeout.
TEST(Virtualized, P4096CountsAllreduceOnEightWorkers) {
  constexpr int kRanks = 4096;
  const mprt::ExecPolicy exec{/*workers=*/8, /*stack_bytes=*/0};
  std::vector<rs::reduce_result_t<rs::ops::Counts>> results(kRanks);
  const mprt::RunResult run = mprt::run(
      kRanks,
      [&](Comm& comm) {
        auto op = verify::accumulated<rs::ops::Counts>(comm.rank());
        rs::detail::state_allreduce(comm, op);
        results[static_cast<std::size_t>(comm.rank())] = rs::red_result(op);
      },
      mprt::CostModel{}, mprt::SimConfig{}, exec);

  const auto want = verify::expected_result<rs::ops::Counts>(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    ASSERT_TRUE(results[static_cast<std::size_t>(r)] == want) << "rank " << r;
  }

  // Scheduler observability: the pool really was 8 workers wide, ranks
  // really parked (4096 fibers cannot all run at once on 8 threads), and
  // the park/resume protocol fired.
  EXPECT_EQ(run.metrics[mprt::Metric::kWorkers], 8u);
  EXPECT_GT(run.metrics[mprt::Metric::kParkedRanks], 0u);
  EXPECT_LE(run.metrics[mprt::Metric::kParkedRanks],
            static_cast<std::uint64_t>(kRanks));
  EXPECT_GT(run.metrics[mprt::Metric::kParkEvents], 0u);
}

// A custom fiber stack size flows through ExecPolicy (the RSMPI_STACK_BYTES
// env var takes the same path); the run must still complete correctly.
TEST(Virtualized, CustomStackSize) {
  const mprt::ExecPolicy exec{/*workers=*/2, /*stack_bytes=*/512 * 1024};
  std::vector<rs::reduce_result_t<rs::ops::Counts>> results(16);
  mprt::run(
      16,
      [&](Comm& comm) {
        auto op = verify::accumulated<rs::ops::Counts>(comm.rank());
        rs::detail::state_allreduce(comm, op);
        results[static_cast<std::size_t>(comm.rank())] = rs::red_result(op);
      },
      mprt::CostModel{}, mprt::SimConfig{}, exec);
  const auto want = verify::expected_result<rs::ops::Counts>(16);
  for (int r = 0; r < 16; ++r) {
    EXPECT_TRUE(results[static_cast<std::size_t>(r)] == want) << "rank " << r;
  }
}

// Two ranks each blocking on a receive the other never sends: with every
// fiber parked and no timers pending, the virtualized scheduler has exact
// knowledge that no progress is possible and must convert the hang into
// DeadlockError instead of stalling until the ctest timeout.
TEST(Virtualized, StructuralDeadlockDetected) {
  const mprt::ExecPolicy exec{/*workers=*/2, /*stack_bytes=*/0};
  EXPECT_THROW(
      mprt::run(
          2,
          [](Comm& comm) {
            const int peer = 1 - comm.rank();
            (void)comm.recv_message(peer, /*tag=*/7);
          },
          mprt::CostModel{}, mprt::SimConfig{}, exec),
      rsmpi::DeadlockError);
}

// 1/3 rounds differently upward than to nearest; the volatile operands keep
// the division at run time, under the calling fiber's MXCSR.
double one_third() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  return one / three;
}

// A fiber switch carries the fiber's floating-point control state: MXCSR
// (SSE rounding, read back through one_third) and the x87 control word
// (what fegetround reports).  Even ranks round upward and park, over and
// over; the odd partner they wait on keeps rounding to nearest.  With one
// worker the partner runs on the parked rank's own worker; with four,
// ranks also resume on other workers.
TEST(Virtualized, FiberSwitchKeepsRoundingModePerFiber) {
  const double nearest = one_third();
  std::fesetround(FE_UPWARD);
  const double upward = one_third();
  std::fesetround(FE_TONEAREST);
  ASSERT_NE(nearest, upward);

  for (const int workers : {1, 4}) {
    constexpr int kRanks = 16;
    constexpr int kRounds = 20;
    std::atomic<int> wrong{0};
    const auto check = [&](int mode, double third) {
      if (std::fegetround() != mode) wrong.fetch_add(1);
      if (third != (mode == FE_UPWARD ? upward : nearest)) wrong.fetch_add(1);
    };
    mprt::run(
        kRanks,
        [&](Comm& comm) {
          const int partner = comm.rank() ^ 1;
          if (comm.rank() % 2 == 0) {
            std::fesetround(FE_UPWARD);
            for (int i = 0; i < kRounds; ++i) {
              comm.send(partner, /*tag=*/i, i);
              (void)comm.recv<int>(partner, i);  // parks until the reply
              check(FE_UPWARD, one_third());
            }
            std::fesetround(FE_TONEAREST);
          } else {
            for (int i = 0; i < kRounds; ++i) {
              (void)comm.recv<int>(partner, i);
              check(FE_TONEAREST, one_third());
              comm.send(partner, i, i);
            }
          }
        },
        mprt::CostModel{}, mprt::SimConfig{},
        mprt::ExecPolicy{workers, /*stack_bytes=*/0});
    EXPECT_EQ(wrong.load(), 0) << workers << " workers";
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  }
}

// A compute section measures its worker thread's CPU clock; left open
// across a park or a yield it would be charged every rank the worker runs
// meanwhile.  The scheduler refuses both with a typed error naming the
// rank.  (The peer never sends, so the receive must park.)
TEST(Virtualized, ComputeSectionMayNotSpanParkOrYield) {
  for (const bool blocking : {true, false}) {
    try {
      mprt::run(2, [&](Comm& comm) {
        if (comm.rank() != 0) return;
        auto timer = comm.compute_section();
        if (blocking) {
          (void)comm.recv_message(1, /*tag=*/7);
        } else {
          (void)comm.try_recv_message(1, /*tag=*/7);
        }
      });
      ADD_FAILURE() << "no error (blocking=" << blocking << ")";
    } catch (const rsmpi::Error& e) {
      EXPECT_NE(std::string(e.what()).find("rank 0"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(blocking ? "park" : "yield"),
                std::string::npos)
          << e.what();
    }
  }
}

// Receive deadlines under virtualization: the deadline slices must arm
// timers on the scheduler's heap (a parked fiber cannot sit in a timed
// condition-variable wait), fire after the budget, and surface the usual
// TimeoutError.  Rank 0 exits immediately, so rank 1 is the sole parked
// fiber — the pending timer is the only thing distinguishing this state
// from a structural deadlock.
TEST(Virtualized, RecvDeadlineFiresOnTimerHeap) {
  const mprt::ExecPolicy exec{/*workers=*/2, /*stack_bytes=*/0};
  bool timed_out = false;
  mprt::run(
      2,
      [&](Comm& comm) {
        if (comm.rank() != 1) return;
        comm.set_recv_deadline(
            mprt::RecvDeadline{/*timeout_s=*/0.05, /*retries=*/2,
                               /*backoff=*/2.0});
        try {
          (void)comm.recv_message(0, /*tag=*/7);
        } catch (const rsmpi::TimeoutError&) {
          timed_out = true;
        }
      },
      mprt::CostModel{}, mprt::SimConfig{}, exec);
  EXPECT_TRUE(timed_out);
}

}  // namespace
