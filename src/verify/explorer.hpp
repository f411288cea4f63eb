// Exhaustive schedule-space explorer (ISSUE 7 tentpole).
//
// The explorer drives a *scenario* — a closure that runs the virtual
// machine once under a RecordingOracle and checks its own postconditions —
// through every reachable decision tree branch, and then through every
// single-fault placement the canonical run admits:
//
//   1. Run once with an empty prefix: the canonical execution.  Record the
//      per-rank choice log (each consulted choice point with its
//      alternative count) and the per-rank message/send counts.
//   2. Depth-first advance: find the next branch in lexicographic order
//      (see below), force it as a prefix, re-run.  Repeat until no choice
//      point has an unexplored alternative.
//   3. Fault pass: for each message (rank, index) of the canonical run,
//      re-explore the full interleaving space under a single drop /
//      duplicate / reorder; for each send index, under a kill.  Benign
//      faults (dup, reorder) must complete with the fault-free result;
//      lossy faults (drop, kill) may instead surface a *typed* error —
//      silent hangs are impossible because the fiber scheduler detects
//      a global deadlock exactly and converts it into DeadlockError.
//
// Branch order: decisions are ordered rank-DESCENDING, step-ascending.
// In the instrumented collectives children always have higher ranks than
// their parents, so a rank's choices are causally downstream of higher
// ranks' — advancing a choice at rank r invalidates only the decisions of
// ranks < r (which are cleared to canonical), while ranks > r replay their
// recorded decisions verbatim.  This enumerates the product space
// lexicographically: every combination exactly once, with a seen-set as a
// safety net against tree-shape anomalies.
//
// Every violation is shrunk to a minimal trace (fault dropped if the
// failure reproduces without it; decisions truncated and lowered
// position-by-position in a fixed, platform-independent order) and
// reported with its RSMPI_VERIFY_TRACE encoding.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "verify/oracle.hpp"
#include "verify/trace.hpp"

namespace rsmpi::verify {

/// Raw outcome of one dictated execution, as the scenario saw it.  The
/// runner performs its own result checks (against the serial oracle) and
/// reports mismatches via `failed`; typed rsmpi errors that unwound the
/// run land in `typed_error`/`error_what`.  The benign/lossy fault policy
/// is applied by the explorer, not the runner.
struct ExecutionResult {
  bool failed = false;
  std::string detail;
  bool typed_error = false;
  std::string error_what;
};

/// Runs the virtual machine once under `oracle` and checks postconditions.
using Runner = std::function<ExecutionResult(RecordingOracle&)>;

struct Scenario {
  std::string name;
  int num_ranks = 2;
  Runner runner;
};

struct ExploreLimits {
  /// Hard budget on dictated executions (interleavings and fault runs
  /// combined); exceeded => budget_exhausted is set and the report is
  /// partial.  The p <= 5 scenario spaces are far below this.
  std::uint64_t max_executions = 100000;
  /// Also enumerate the single-fault placements (step 3 above).
  bool faults = true;
};

struct ExploreStats {
  std::uint64_t executions = 0;         ///< dictated runs performed
  std::uint64_t interleavings = 0;      ///< fault-free executions explored
  std::uint64_t fault_executions = 0;   ///< executions under a placement
  std::uint64_t fault_placements = 0;   ///< distinct placements enumerated
  std::uint64_t pruned_orders = 0;      ///< fold orders proven equivalent
  std::uint64_t max_decisions = 0;      ///< longest decision string seen
  bool budget_exhausted = false;
};

struct Violation {
  Trace trace;         ///< minimal reproducer (shrunk, replay-validated)
  std::string detail;  ///< what went wrong on the original execution
};

struct Report {
  ExploreStats stats;
  std::vector<Violation> violations;

  [[nodiscard]] bool ok() const { return violations.empty(); }
};

/// Explores `scenario` exhaustively within `limits`.
[[nodiscard]] Report explore(const Scenario& scenario,
                             const ExploreLimits& limits = {});

/// Replays one dictated execution from a trace (the RSMPI_VERIFY_TRACE
/// path).  The trace's scenario name is not consulted — the caller already
/// resolved it to `scenario`.
[[nodiscard]] ExecutionResult replay(const Scenario& scenario,
                                     const Trace& trace);

}  // namespace rsmpi::verify
