// Exhaustive schedule-space exploration (ISSUE 7 tentpole): every
// scenario in the standard checker matrix — five autotuned schedules x
// {commutative, noncommutative}, the nonblocking paths, the persistent
// plan — is driven through every reachable delivery interleaving at
// p in {2, 3, 4} and checked against the serial oracle, with zero
// violations.  A fault pass re-explores every scenario at p in {2, 3}
// under every single-message drop/duplicate/reorder and every single-rank
// kill.
//
// Satellite 1 rides here: the noncommutative OrderedWord scenarios must
// present *zero* schedule freedom (one interleaving, no decisions, no
// pruned orders) — a commutative-only schedule ever being selected for a
// noncommutative operator would surface as choice points or violations.
//
// Satellite 5's pruning-regression guard also rides here: the explored
// interleaving count per scenario is capped at 10x the recorded floor, so
// a regression in the all-orders equivalence probe (which collapses
// commutative fold orders without consulting the oracle) fails the build
// instead of silently exploding the state space.
#include <gtest/gtest.h>

#include <iostream>
#include <map>
#include <string>

#include "verify/checker.hpp"
#include "verify/explorer.hpp"

namespace {

using namespace rsmpi;
using verify::ExploreLimits;
using verify::Report;
using verify::Scenario;

void expect_clean(const Scenario& scenario, const Report& report) {
  EXPECT_TRUE(report.ok()) << scenario.name << ": "
                           << report.violations.size() << " violation(s)";
  for (const verify::Violation& v : report.violations) {
    ADD_FAILURE() << scenario.name << ": " << v.detail << "\n  replay with "
                  << "RSMPI_VERIFY_TRACE=" << encode_trace(v.trace);
  }
  EXPECT_FALSE(report.stats.budget_exhausted) << scenario.name;
  EXPECT_GT(report.stats.executions, 0u) << scenario.name;
  EXPECT_GE(report.stats.interleavings, 1u) << scenario.name;
}

/// Satellite 5: per-scenario interleaving floors measured at the pruning
/// baseline (the all-orders probe collapsing byte-identical fold orders).
/// The guard fails if exploration exceeds 10x the floor — i.e. if pruning
/// regresses by more than an order of magnitude.  Scenarios not listed
/// are capped by the generous default.
std::uint64_t interleaving_cap(const std::string& name) {
  static const std::map<std::string, std::uint64_t> floors = {
      {"canon-two_message-p2", 1}, {"canon-two_message-p3", 2},
      {"canon-two_message-p4", 6}, {"canon-butterfly-p2", 1},
      {"canon-butterfly-p3", 2},   {"canon-butterfly-p4", 1},
      {"canon-nbtree-p2", 1},      {"canon-nbtree-p3", 2},
      {"canon-nbtree-p4", 6},
  };
  const auto it = floors.find(name);
  const std::uint64_t floor = it == floors.end() ? 10 : it->second;
  return floor * 10;
}

void explore_all(int p, bool with_faults) {
  const verify::ScenarioSet set = verify::standard_scenarios(p);
  ASSERT_FALSE(set.all().empty());
  for (const Scenario& scenario : set.all()) {
    ExploreLimits limits;
    limits.faults = with_faults;
    const Report report = verify::explore(scenario, limits);
    expect_clean(scenario, report);
    EXPECT_LE(report.stats.interleavings, interleaving_cap(scenario.name))
        << scenario.name << ": pruning regressed (explored "
        << report.stats.interleavings << " interleavings)";

    const bool ordered = scenario.name.rfind("word-", 0) == 0 ||
                         scenario.name.rfind("tsqr-", 0) == 0;
    if (ordered) {
      // Noncommutative operators must always take an order-preserving
      // schedule — no arrival-order freedom at all.  This holds for the
      // token-concat witness (OrderedWord) and for real linear algebra
      // (TSQR, ISSUE 9): every schedule name, the pipelined column-panel
      // path, reduce_async on the progress engine, and the persistent
      // replay present exactly one interleaving with zero decisions and
      // zero pruned orders.
      EXPECT_EQ(report.stats.interleavings, 1u) << scenario.name;
      EXPECT_EQ(report.stats.max_decisions, 0u) << scenario.name;
      EXPECT_EQ(report.stats.pruned_orders, 0u) << scenario.name;
    }
  }
}

TEST(Exhaustive, AllScenariosP2) { explore_all(2, /*with_faults=*/false); }
TEST(Exhaustive, AllScenariosP3) { explore_all(3, /*with_faults=*/false); }
TEST(Exhaustive, AllScenariosP4) { explore_all(4, /*with_faults=*/false); }

// The largest tier, on every push: the scheduler's exact deadlock
// detector needs no timing window, so even p = 5 takes milliseconds.
TEST(Exhaustive, AllScenariosP5Nightly) {
  explore_all(5, /*with_faults=*/false);
}

// The fault matrix over every standard scenario.  Every message of the
// canonical run is dropped, duplicated, and reordered once; every send is
// a kill site.  Benign faults must leave the result bit-identical; lossy
// faults may surface typed errors (the mailbox holds back the rest of a
// dropped message's stream, and the scheduler's deadlock detector turns
// the would-be hang into DeadlockError) but must never corrupt a
// completed rank's result.
void explore_faults(int p) {
  const verify::ScenarioSet set = verify::standard_scenarios(p);
  for (const Scenario& scenario : set.all()) {
    const Report report = verify::explore(scenario, ExploreLimits{});
    expect_clean(scenario, report);
    EXPECT_GT(report.stats.fault_placements, 0u) << scenario.name;
    EXPECT_GT(report.stats.fault_executions, 0u) << scenario.name;
  }
}

TEST(Exhaustive, FaultPlacementsP2) { explore_faults(2); }
TEST(Exhaustive, FaultPlacementsP3) { explore_faults(3); }

// The equivalence probe must actually be pruning: the commutative Counts
// operator's fold orders are byte-identical, so every k-ary-tree join
// collapses to one canonical order with the skipped permutations counted.
TEST(Exhaustive, PruningCollapsesCommutativeOrders) {
  const Scenario scenario =
      verify::nb_tree_scenario<rs::ops::Counts>("counts", 4);
  ExploreLimits limits;
  limits.faults = false;
  const Report report = verify::explore(scenario, limits);
  expect_clean(scenario, report);
  EXPECT_EQ(report.stats.interleavings, 1u)
      << "byte-identical fold orders must not branch";
  EXPECT_GT(report.stats.pruned_orders, 0u)
      << "the all-orders probe never fired";
}

// And the insertion-ordered CanonSet defeats the probe: its fold orders
// differ byte-wise, so the explorer must genuinely branch — and every
// branch must still agree with the serial oracle because gen() sorts.
TEST(Exhaustive, CanonSetForcesRealBranching) {
  const Scenario scenario =
      verify::nb_tree_scenario<verify::CanonSet>("canon", 4);
  ExploreLimits limits;
  limits.faults = false;
  const Report report = verify::explore(scenario, limits);
  expect_clean(scenario, report);
  EXPECT_GT(report.stats.interleavings, 1u)
      << "payload-distinct fold orders must branch";
  EXPECT_GT(report.stats.max_decisions, 0u);
  std::cout << "[canon-nbtree-p4] interleavings="
            << report.stats.interleavings
            << " pruned=" << report.stats.pruned_orders
            << " max_decisions=" << report.stats.max_decisions << "\n";
}

// Satellite 6: the scenario matrix is enumerated from the shared
// registry, so every registered operator must surface in the standard set
// — an operator added to verify/registry.hpp cannot silently skip the
// exhaustive tier.
TEST(Exhaustive, EveryRegistryOpHasScenarios) {
  const verify::ScenarioSet set = verify::standard_scenarios(3);
  for (const std::string& name : verify::zoo_names()) {
    int found = 0;
    for (const Scenario& s : set.all()) {
      if (s.name.rfind(name + "-", 0) == 0) ++found;
    }
    EXPECT_GE(found, 3) << "registry operator '" << name
                        << "' is missing from the exhaustive matrix";
  }
}

}  // namespace
