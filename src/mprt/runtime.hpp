// The virtual machine: runs rank bodies against wired mailboxes, every
// rank a fiber multiplexed onto a small pool of OS worker threads
// (mprt/scheduler.hpp).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mprt/comm.hpp"
#include "mprt/cost_model.hpp"
#include "mprt/mailbox.hpp"
#include "mprt/metrics.hpp"
#include "mprt/sim.hpp"

namespace rsmpi::mprt {

class VirtualScheduler;

/// Owns the shared state of one parallel execution: mailboxes, per-rank
/// clocks/counters, the cost model, and (when a fault plan is active) the
/// chaos controller.  Created internally by run(); user code only sees
/// Comm.
class Runtime {
 public:
  Runtime(int num_ranks, CostModel model, SimConfig sim = SimConfig{});

  [[nodiscard]] int size() const { return static_cast<int>(mailboxes_.size()); }
  [[nodiscard]] const CostModel& cost_model() const { return model_; }

  /// The run's fault driver, or nullptr when no fault plan is active (the
  /// common case — send/receive paths skip the chaos layer on one branch).
  [[nodiscard]] ChaosController* chaos() { return chaos_.get(); }

  [[nodiscard]] Mailbox& mailbox(int global_rank);
  [[nodiscard]] RankState& rank_state(int global_rank);

  /// Rank `global_rank`'s metrics with the rows that live elsewhere filled
  /// in now: its mailbox's suppressed duplicates, the scheduler's workers,
  /// peak parked ranks and park events (while a run installs one), and the
  /// fault plan's totals.
  [[nodiscard]] Metrics metrics(int global_rank) const;

  /// Fail-fast teardown: unblocks every rank's pending receive with
  /// AbortError so a single throwing rank cannot deadlock the machine.
  void abort_all();

  /// Records that `global_rank`'s body has exited (fault-plan kill).
  /// Every mailbox is poisoned so receives that would block forever on the
  /// dead rank throw PeerLostError — a typed error, not a hang.
  void notify_peer_lost(int global_rank);

  /// The run's fiber scheduler, installed by run() for the duration of
  /// the worker pool's execution — that is, whenever a rank body runs — so
  /// mid-run metric snapshots can read the park counters; its counters are
  /// safe to read from rank fibers.
  void set_scheduler(VirtualScheduler* sched) { scheduler_ = sched; }
  [[nodiscard]] VirtualScheduler* scheduler() const { return scheduler_; }

 private:
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<RankState> states_;
  CostModel model_;
  std::unique_ptr<ChaosController> chaos_;
  VirtualScheduler* scheduler_ = nullptr;
};

/// Result of one parallel execution.
struct RunResult {
  /// Maximum final virtual clock across ranks: the modelled critical-path
  /// time of the whole execution.
  double makespan_s = 0.0;
  /// Final virtual clock of each rank.
  std::vector<double> rank_times_s;
  /// Fault-injection statistics (all zero when no fault plan was active).
  SimStats sim;
  /// The metrics table over the whole run: every rank's final snapshot,
  /// merged row by row by the row's rule (mprt/metrics.hpp).
  Metrics metrics;
  /// Metrics published by the rank bodies via Comm::publish_stat, summed
  /// by name across ranks — how service-layer collectors (svc::
  /// StatCollector) surface their aggregates through the run result.
  std::map<std::string, double> user_stats;
};

/// How run() executes its ranks.
struct ExecPolicy {
  /// OS worker threads to multiplex the ranks onto; 0 (the default) means
  /// min(ranks, CPUs in the process's affinity mask).
  int workers = 0;
  /// Per-fiber stack size; 0 reads RSMPI_STACK_BYTES (default 256 KiB).
  std::size_t stack_bytes = 0;
};

/// Runs `body` on `num_ranks` ranks, each a fiber with its own world Comm,
/// and returns when all have finished.  If any rank throws, the runtime
/// aborts the others and rethrows the lowest-ranked exception in the
/// caller.
/// Passing a SimConfig activates deterministic fault injection
/// (mprt/sim.hpp) for the duration of the run; every decision derives
/// from the config's seed, so failures replay exactly.
RunResult run(int num_ranks, const std::function<void(Comm&)>& body,
              const CostModel& model = CostModel{},
              const SimConfig& sim = SimConfig{},
              const ExecPolicy& exec = ExecPolicy{});

/// The calling rank's world communicator, set for the duration of its
/// run() body — the analogue of MPI_COMM_WORLD being implicitly
/// available, which the paper's RSMPI routines default to when no
/// communicator is passed (§4).  Throws if called outside a rank.
Comm& this_comm();

}  // namespace rsmpi::mprt
