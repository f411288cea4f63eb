// Deterministic fault-injection for the virtual machine (ISSUE 4).
//
// A SimConfig describes a *fault plan*: probabilities for delaying,
// reordering, duplicating, and dropping messages at the mailbox boundary,
// a per-send compute-skew amplitude, and an optional kill point (rank +
// send count) that terminates a rank mid-collective.  The plan is driven
// by a counter-based PRNG seeded per rank, so every decision depends only
// on (seed, rank, that rank's event count) — never on rank scheduling —
// and any run is replayable bit-for-bit from its seed.
//
// The controller lives on the Runtime and is consulted by each rank on
// its own send path; the per-rank streams need no locking.
// Statistics are atomics because tests read them after the join.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "util/error.hpp"

namespace rsmpi::mprt {

/// splitmix64 finalizer: the mixing function behind every deterministic
/// stream in the simulator (fault decisions, property-test case derivation).
inline std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Minimal deterministic PRNG over splitmix64.  Value-type, copyable, and
/// independent of the standard library's unspecified distributions, so a
/// seed reproduces the same run on every platform.
class SimRng {
 public:
  explicit SimRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() { return splitmix64(state_++); }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, n); n must be positive.
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// What the chaos layer decided to do with one message.
struct DeliveryFault {
  bool drop = false;
  bool duplicate = false;
  bool reorder_front = false;
  double extra_delay_s = 0.0;      ///< added to the message's arrival time
  double duplicate_delay_s = 0.0;  ///< additionally added to the copy
};

/// Decision procedure driving one *dictated* execution of the virtual
/// machine — the model checker's hook into the chaos layer (ISSUE 7).
///
/// With an oracle installed through SimConfig, every probabilistic draw of
/// the chaos layer is replaced by a consulted decision: message faults and
/// kill points come from message_fault/kill_before_send (keyed by the
/// sending rank's own event counters, so decisions are independent of
/// rank scheduling, exactly like the seeded streams they replace), and
/// the instrumented collectives (rs/state_exchange.hpp) branch their
/// arrival-order choices through choose().  A driver (src/verify) records
/// the choices of one run, then systematically re-runs with forced
/// prefixes to enumerate the whole decision tree.
///
/// Implementations are called concurrently by ranks on different worker
/// threads; each rank's calls are sequential, so per-rank slots need no
/// locking.
class ScheduleOracle {
 public:
  virtual ~ScheduleOracle() = default;

  /// Picks one of `alternatives` (>= 2) outcomes at `rank`'s next choice
  /// point.  Must return a value in [0, alternatives).
  virtual int choose(int rank, int alternatives) = 0;

  /// Reports `orders` combine orders proven byte-equivalent (and therefore
  /// not branched on) at a choice site — the DPOR-style pruning counter.
  virtual void note_pruned(int rank, std::uint64_t orders) = 0;

  /// Fault dictated for the `index`-th message `rank` delivers (0-based).
  virtual DeliveryFault message_fault(int rank, std::uint64_t index) = 0;

  /// True when `rank` must die instead of performing its `index`-th send
  /// (index counts completed sends, so 0 kills before any send).
  virtual bool kill_before_send(int rank, std::uint64_t index) = 0;
};

/// One run's fault plan.  All probabilities are per message (or per send
/// for the skew); a default-constructed config injects nothing and the
/// runtime then skips the chaos layer entirely.
struct SimConfig {
  std::uint64_t seed = 0;

  // -- Message faults (applied at the destination mailbox boundary) -------
  double delay_prob = 0.0;        ///< chance of extra wire delay
  double max_extra_delay_s = 0.0; ///< uniform extra delay in [0, max)
  double duplicate_prob = 0.0;    ///< chance the message is enqueued twice
  double drop_prob = 0.0;         ///< chance the message never arrives
  double reorder_prob = 0.0;      ///< chance of queue-front insertion

  // -- Compute faults ------------------------------------------------------
  /// Per-send clock jitter in [0, max): models ranks computing at skewed
  /// speeds, which shifts every schedule's arrival pattern.
  double max_compute_skew_s = 0.0;

  // -- Kill ----------------------------------------------------------------
  /// Rank to kill (-1 for none): its `kill_after_sends`-th send throws
  /// RankKilledError inside the rank body.
  int kill_rank = -1;
  std::uint64_t kill_after_sends = 0;

  // -- Model checking ------------------------------------------------------
  /// When set, chaos decisions are *dictated* by the oracle instead of
  /// drawn from the seeded streams, and the probabilistic fields above are
  /// ignored.  Non-owning: the oracle must outlive the run.
  ScheduleOracle* oracle = nullptr;

  [[nodiscard]] bool enabled() const {
    return delay_prob > 0.0 || duplicate_prob > 0.0 || drop_prob > 0.0 ||
           reorder_prob > 0.0 || max_compute_skew_s > 0.0 || kill_rank >= 0 ||
           oracle != nullptr;
  }

  /// One-line human description, printed in failure messages so a seed's
  /// plan is visible without re-deriving it.
  [[nodiscard]] std::string describe() const;
};

/// Aggregate fault counts for one run; snapshot carried on RunResult.
struct SimStats {
  std::uint64_t delivered = 0;   ///< messages enqueued normally
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t delayed = 0;
  std::uint64_t reordered = 0;
  std::uint64_t skew_events = 0;
  bool rank_killed = false;
};

/// Per-run fault injector.  pre_send/on_message are called by the sending
/// rank only; each rank owns an independent decision stream.
class ChaosController {
 public:
  ChaosController(const SimConfig& config, int num_ranks);
  ChaosController(const ChaosController&) = delete;
  ChaosController& operator=(const ChaosController&) = delete;
  ~ChaosController();

  [[nodiscard]] const SimConfig& config() const { return config_; }

  /// The dictating oracle, or nullptr for seeded-probabilistic chaos.
  [[nodiscard]] ScheduleOracle* oracle() const { return config_.oracle; }

  /// Called at the top of every send on `rank`.  Returns the compute skew
  /// to charge to the rank's clock; throws RankKilledError when the rank's
  /// kill point is reached.
  double pre_send(int rank);

  /// Fault decision for the message `rank` is about to deliver.
  DeliveryFault on_message(int rank);

  /// Aggregated statistics (safe to read after the ranks have joined, or
  /// concurrently for monitoring).
  [[nodiscard]] SimStats stats() const;

 private:
  struct PerRank;

  SimConfig config_;
  PerRank* ranks_;  // one slot per rank, touched only by that rank
  int num_ranks_;

  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> duplicated_{0};
  std::atomic<std::uint64_t> delayed_{0};
  std::atomic<std::uint64_t> reordered_{0};
  std::atomic<std::uint64_t> skew_events_{0};
  std::atomic<bool> rank_killed_{false};
};

}  // namespace rsmpi::mprt
