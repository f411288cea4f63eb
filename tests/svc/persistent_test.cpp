// Tests for persistent collectives (coll/persistent.hpp and
// svc/persistent.hpp): a cached plan must execute bit-identically to a
// freshly-planned call — across the operator zoo, all four schedules,
// with and without fault injection — and warm epochs must neither
// autotune, nor consume collective tags, nor allocate payload buffers.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "coll/persistent.hpp"
#include "mprt/runtime.hpp"
#include "rs/ops/ops.hpp"
#include "rs/scan.hpp"
#include "rs/state_exchange.hpp"
#include "svc/persistent.hpp"

namespace {

using namespace rsmpi;
namespace ops = rs::ops;
using mprt::Comm;
using rs::save_op;

const int kRankSweep[] = {2, 3, 5, 8, 16};

/// Pins RSMPI_SCHEDULE for a scope ("" = auto / unset).
class ScheduleEnv {
 public:
  explicit ScheduleEnv(const char* name) {
    if (name != nullptr && *name != '\0') {
      setenv("RSMPI_SCHEDULE", name, 1);
    } else {
      unsetenv("RSMPI_SCHEDULE");
    }
  }
  ~ScheduleEnv() { unsetenv("RSMPI_SCHEDULE"); }
};

const std::vector<const char*> kScheduleSweep = {
    "",  // autotuned
    "two_message", "butterfly", "rabenseifner", "ring"};

// two_message combines commutative states in kAnySource arrival order, so
// two invocations of the SAME schedule can legitimately associate
// floating-point states differently.  Every other schedule receives from
// fixed sources in a fixed order.  (The autotuner may pick two_message,
// so "" is excluded too.)
const std::vector<const char*> kDeterministicOrderSweep = {
    "butterfly", "rabenseifner", "ring"};

/// A benign fault plan: duplicates, delays, reorders, and compute skew —
/// everything the runtime must absorb without changing results.
mprt::SimConfig benign_chaos(std::uint64_t seed) {
  mprt::SimConfig sim;
  sim.seed = seed;
  sim.duplicate_prob = 0.10;
  sim.delay_prob = 0.20;
  sim.max_extra_delay_s = 1e-4;
  sim.reorder_prob = 0.10;
  sim.max_compute_skew_s = 1e-5;
  return sim;
}

/// For every rank count and schedule, with and without chaos: the planned
/// executor's state must equal the fresh dispatch's, byte for byte.
template <typename Op, typename Fill>
void planned_matches_fresh(const Op& prototype, Fill fill,
                           const std::vector<const char*>& schedules =
                               kScheduleSweep) {
  for (const char* schedule : schedules) {
    ScheduleEnv env(schedule);
    for (const int p : kRankSweep) {
      for (const bool chaos : {false, true}) {
        const mprt::SimConfig sim =
            chaos ? benign_chaos(0x5eedULL + static_cast<std::uint64_t>(p))
                  : mprt::SimConfig{};
        mprt::run(
            p,
            [&](Comm& comm) {
              Op mine = prototype;
              fill(mine, comm.rank());

              Op fresh = mine;
              rs::detail::state_allreduce(comm, fresh);

              auto plan = coll::plan_state_allreduce(comm, prototype);
              Op planned = mine;
              coll::execute_planned_allreduce(comm, planned, plan);

              EXPECT_EQ(save_op(fresh), save_op(planned))
                  << "schedule=" << schedule << " p=" << p
                  << " chaos=" << chaos;
              EXPECT_EQ(plan.epochs, 1u);
            },
            mprt::CostModel{}, sim);
      }
    }
  }
}

TEST(PersistentPlan, MatchesFreshSum) {
  planned_matches_fresh(ops::Sum<long>{}, [](ops::Sum<long>& op, int r) {
    for (int i = 0; i < 32; ++i) op.accum(r * 131 + i);
  });
}

TEST(PersistentPlan, MatchesFreshCounts) {
  planned_matches_fresh(ops::Counts(8), [](ops::Counts& op, int r) {
    for (int i = 0; i < 64; ++i) op.accum((r * 7 + i * 13) % 8);
  });
}

TEST(PersistentPlan, MatchesFreshHistogram) {
  const ops::Histogram<double> proto({0.0, 1.0, 2.0, 4.0, 8.0});
  planned_matches_fresh(proto, [](ops::Histogram<double>& op, int r) {
    for (int i = 0; i < 48; ++i) op.accum(0.37 * ((r * 11 + i * 29) % 24));
  });
}

TEST(PersistentPlan, MatchesFreshMeanVar) {
  // Floating-point: bit-identity holds on every deterministic-order
  // schedule, because the plan replays the fresh path's exact combine
  // tree, rounding included.
  planned_matches_fresh(
      ops::MeanVar{},
      [](ops::MeanVar& op, int r) {
        for (int i = 0; i < 40; ++i) op.accum(0.1 * r + 0.01 * i);
      },
      kDeterministicOrderSweep);
}

TEST(PersistentPlan, MeanVarTwoMessageAgreesUpToReassociation) {
  // Arrival-order combining: the planned and fresh results may associate
  // differently, but must agree to rounding error.
  ScheduleEnv env("two_message");
  mprt::run(8, [](Comm& comm) {
    ops::MeanVar mine;
    for (int i = 0; i < 40; ++i) mine.accum(0.1 * comm.rank() + 0.01 * i);

    ops::MeanVar fresh = mine;
    rs::detail::state_allreduce(comm, fresh);

    auto plan = coll::plan_state_allreduce(comm, ops::MeanVar{});
    ops::MeanVar planned = mine;
    coll::execute_planned_allreduce(comm, planned, plan);

    const auto a = fresh.gen();
    const auto b = planned.gen();
    EXPECT_EQ(a.count, b.count);
    EXPECT_NEAR(a.mean, b.mean, 1e-12);
    EXPECT_NEAR(a.variance, b.variance, 1e-9);
  });
}

TEST(PersistentPlan, MatchesFreshHyperLogLog) {
  const ops::HyperLogLog<std::uint64_t> proto(10);
  planned_matches_fresh(proto,
                        [](ops::HyperLogLog<std::uint64_t>& op, int r) {
                          for (int i = 0; i < 100; ++i) {
                            op.accum(static_cast<std::uint64_t>(r) * 1000 + i);
                          }
                        });
}

TEST(PersistentPlan, MatchesFreshNonCommutativeConcat) {
  // Non-commutative: every schedule name degrades to the order-preserving
  // reduce+bcast, in the plan exactly as in the fresh dispatch.
  planned_matches_fresh(ops::Concat{}, [](ops::Concat& op, int r) {
    for (int i = 0; i < 4; ++i) op.accum(static_cast<char>('a' + (r + i) % 26));
  });
}

// --- warm-path guarantees ---------------------------------------------------

TEST(PersistentPlan, WarmEpochsDoNotPlanOrAllocate) {
  mprt::run(8, [](Comm& comm) {
    const ops::Histogram<double> proto({0.0, 1.0, 2.0, 4.0, 8.0});
    svc::PersistentReduce<ops::Histogram<double>> handle(comm, proto);
    // Partitionable + commutative + no env override: planning paid exactly
    // one autotuner argmin.
    EXPECT_EQ(comm.autotune_invocations(), 1u);

    std::vector<double> batch(64);
    auto run_epoch = [&](int e) {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        batch[i] = 0.13 * static_cast<double>((e * 31 + comm.rank() * 7 +
                                               static_cast<int>(i)) %
                                              64);
      }
      return handle.execute_state(batch);
    };

    for (int e = 0; e < 3; ++e) run_epoch(e);  // warm-up
    const std::uint64_t allocs = comm.payload_allocs();
    const std::uint64_t regrows = comm.metrics()[mprt::Metric::kPoolRegrows];
    const std::uint64_t autotunes = comm.autotune_invocations();
    const std::int64_t tags = comm.collective_tags_consumed();
    for (int e = 3; e < 20; ++e) run_epoch(e);
    EXPECT_EQ(comm.payload_allocs(), allocs) << "warm epochs heap-allocated";
    // A pooled buffer grown by its reserve is a heap allocation too.
    EXPECT_EQ(comm.metrics()[mprt::Metric::kPoolRegrows], regrows)
        << "warm epochs regrew pooled buffers";
    EXPECT_EQ(comm.autotune_invocations(), autotunes)
        << "warm epochs re-planned";
    EXPECT_EQ(comm.collective_tags_consumed(), tags)
        << "warm epochs walked the tag window";
    EXPECT_EQ(handle.plan().epochs, 20u);
  });
}

TEST(PersistentPlan, RunResultCarriesPlanCounters) {
  const auto result = mprt::run(4, [](Comm& comm) {
    svc::PersistentReduce<ops::Sum<long>> handle(comm, ops::Sum<long>{});
    const std::vector<long> batch = {1, 2, 3};
    for (int e = 0; e < 5; ++e) (void)handle.execute_state(batch);
  });
  // One autotuner argmin per rank at plan time, none across the five warm
  // epochs — RunResult sums the per-rank counters.
  EXPECT_EQ(result.metrics[mprt::Metric::kAutotuneInvocations], 4u);
}

// --- persistent scans -------------------------------------------------------

TEST(PersistentScan, MatchesFreshScan) {
  for (const int p : kRankSweep) {
    mprt::run(p, [&](Comm& comm) {
      std::vector<int> mine;
      for (int i = 0; i < 12; ++i) mine.push_back((comm.rank() * 5 + i) % 8);

      const auto fresh = rs::scan(comm, mine, ops::Counts(8));
      svc::PersistentScan<ops::Counts> handle(comm, ops::Counts(8));
      const auto planned = handle.execute(mine);
      EXPECT_EQ(fresh, planned) << "p=" << p;

      const auto fresh_ex =
          rs::scan(comm, mine, ops::Counts(8), rs::ScanKind::kExclusive);
      const auto planned_ex = handle.execute(mine, rs::ScanKind::kExclusive);
      EXPECT_EQ(fresh_ex, planned_ex) << "p=" << p;
    });
  }
}

TEST(PersistentScan, WarmEpochsHoldTagsFlat) {
  mprt::run(6, [](Comm& comm) {
    svc::PersistentScan<ops::Sum<long>> handle(comm, ops::Sum<long>{});
    std::vector<long> mine = {1, 2, 3, 4};
    (void)handle.execute(mine);
    const std::int64_t tags = comm.collective_tags_consumed();
    for (int e = 0; e < 50; ++e) (void)handle.execute(mine);
    EXPECT_EQ(comm.collective_tags_consumed(), tags);
    EXPECT_EQ(handle.plan().epochs, 51u);
  });
}

}  // namespace
