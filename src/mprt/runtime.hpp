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

  /// Fail-fast teardown: unblocks every rank's pending receive with
  /// AbortError so a single throwing rank cannot deadlock the machine.
  void abort_all();

  /// Records that `global_rank`'s body has exited (fault-plan kill).
  /// Every mailbox is poisoned so receives that would block forever on the
  /// dead rank throw PeerLostError — a typed error, not a hang.
  void notify_peer_lost(int global_rank);

  /// The run's fiber scheduler, installed by run() for the duration of
  /// the worker pool's execution — that is, whenever a rank body runs — so
  /// mid-run stat readers (Comm accessors, RSMPI_GetStats) can snapshot
  /// the park counters; its counters are safe to read from rank fibers.
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
  /// Total messages / payload bytes sent by all ranks.
  std::uint64_t total_messages = 0;
  std::uint64_t total_bytes = 0;
  /// Fault-injection statistics (all zero when no fault plan was active).
  SimStats sim;
  /// Duplicate deliveries suppressed by mailbox sequence numbers, summed
  /// over ranks.
  std::uint64_t duplicates_suppressed = 0;
  /// Buffer-pool acquires served from a size-class bin matching the
  /// requested size, summed over ranks — the segment-buffer recycling the
  /// segmented schedules (ring / pipelined) rely on.
  std::uint64_t segments_reused = 0;
  /// Cost-model schedule selections (autotuner argmins), summed over ranks.
  /// Persistent collectives plan once, so warm epoch loops contribute 0.
  std::uint64_t autotune_invocations = 0;
  /// Heap buffers allocated for message payloads, summed over ranks.
  std::uint64_t payload_allocs = 0;
  /// Parallel local-accumulate counters (the src/par/ work-stealing pool;
  /// all 0 unless RSMPI_LOCAL_THREADS enabled it): pool sections, chunks
  /// and steals summed over ranks, and the widest pool any rank used.
  /// Mirrored into user_stats as "par.sections" / "par.chunks" /
  /// "par.steals" / "par.threads" when any section ran, so stat readers
  /// (RSMPI_GetStats, benches) see them uniformly.
  std::uint64_t local_sections = 0;
  std::uint64_t local_chunks = 0;
  std::uint64_t local_steals = 0;
  std::uint64_t local_threads = 0;
  /// Metrics published by the rank bodies via Comm::publish_stat, summed
  /// by name across ranks — how service-layer collectors (svc::
  /// StatCollector) surface their aggregates through the run result.
  std::map<std::string, double> user_stats;
  /// Scheduler counters: OS worker threads the ranks were multiplexed
  /// onto, peak simultaneously-parked ranks, and total park transitions
  /// through the scheduler gate.  Mirrored into user_stats as
  /// "rt.workers" / "rt.parked_ranks" / "rt.park_events".
  std::uint64_t workers = 0;
  std::uint64_t parked_ranks = 0;
  std::uint64_t park_events = 0;
  /// Per-tier traffic split (two-level topology; both 0 unless the cost
  /// model sets ranks_per_node > 1): payload bytes sent between ranks
  /// sharing a modelled node vs crossing nodes.  Mirrored into user_stats
  /// as "tier.intra_bytes" / "tier.inter_bytes" when the model is tiered.
  std::uint64_t intra_node_bytes = 0;
  std::uint64_t inter_node_bytes = 0;
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
