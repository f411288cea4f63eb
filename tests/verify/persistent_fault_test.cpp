// Satellite 3: svc::PersistentPlan replay under exhaustive single-fault
// placement.  A persistent handle plans once and replays the frozen plan
// every epoch; the contract under faults is the same as for fresh
// collectives — every epoch that completes on a rank is bit-identical to
// the serial oracle (in particular the pre-fault epoch), and a faulted
// epoch surfaces a *typed* error.  The failure mode this hunts is the
// stale-tag hang: a fault in epoch 2 leaving a rank blocked on epoch-1
// tags forever.  The scheduler's exact deadlock detector converts any
// such hang into DeadlockError, which the explorer accepts for lossy
// faults and flags for benign ones.
#include <gtest/gtest.h>

#include <iostream>

#include "verify/checker.hpp"
#include "verify/explorer.hpp"

namespace {

using namespace rsmpi;
using verify::ExploreLimits;
using verify::Report;
using verify::Scenario;

void expect_clean(const Scenario& scenario, const Report& report) {
  EXPECT_TRUE(report.ok()) << scenario.name;
  for (const verify::Violation& v : report.violations) {
    ADD_FAILURE() << scenario.name << ": " << v.detail << "\n  replay with "
                  << "RSMPI_VERIFY_TRACE=" << encode_trace(v.trace);
  }
  EXPECT_FALSE(report.stats.budget_exhausted) << scenario.name;
}

// Every message of the two-epoch canonical run dropped / duplicated /
// reordered once, every send a kill site.  The kill placements include
// sends inside epoch 2, so the pre-fault epoch-1 results are checked on
// the surviving ranks (the runner verifies every *completed* epoch).
TEST(PersistentFault, CountsTwoEpochsUnderAllPlacementsP2) {
  const Scenario scenario =
      verify::persistent_scenario<rs::ops::Counts>("counts", 2);
  const Report report = verify::explore(scenario, ExploreLimits{});
  expect_clean(scenario, report);
  EXPECT_GT(report.stats.fault_placements, 0u);
  EXPECT_GT(report.stats.fault_executions, 0u);
  std::cout << "[counts-persistent-p2] placements="
            << report.stats.fault_placements
            << " fault_executions=" << report.stats.fault_executions << "\n";
}

TEST(PersistentFault, CountsTwoEpochsUnderAllPlacementsP3) {
  const Scenario scenario =
      verify::persistent_scenario<rs::ops::Counts>("counts", 3);
  const Report report = verify::explore(scenario, ExploreLimits{});
  expect_clean(scenario, report);
  EXPECT_GT(report.stats.fault_placements, 0u);
}

// The noncommutative path through the frozen plan: order-preserving
// reduce+bcast, replayed twice, under the full placement space.
TEST(PersistentFault, OrderedWordTwoEpochsUnderAllPlacementsP2) {
  const Scenario scenario =
      verify::persistent_scenario<verify::OrderedWord>("word", 2);
  const Report report = verify::explore(scenario, ExploreLimits{});
  expect_clean(scenario, report);
  EXPECT_GT(report.stats.fault_placements, 0u);
}

// Fault-free persistent replay must be deterministic and decision-free on
// the noncommutative path (satellite 1 extended to the plan executor).
TEST(PersistentFault, OrderedWordPlanReplayHasNoScheduleFreedom) {
  const Scenario scenario =
      verify::persistent_scenario<verify::OrderedWord>("word", 3);
  ExploreLimits limits;
  limits.faults = false;
  const Report report = verify::explore(scenario, limits);
  expect_clean(scenario, report);
  EXPECT_EQ(report.stats.interleavings, 1u);
  EXPECT_EQ(report.stats.max_decisions, 0u);
}

}  // namespace
