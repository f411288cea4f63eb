// Shared plumbing of the perfbench workloads: host probes, the span trace,
// and the closed loop every workload runs on its ranks.
//
// A workload process runs one or more mprt::run calls ("runs").  Every run
// launches the ranks, does the workload's set-up, runs warm-up iterations
// and then timed iterations until the process's timed budget is spent (or
// the run's iteration cap is reached).  The first timed iteration of a run
// marks the end of its set-up, so every run yields one set-up sample; runs
// that start after the budget is spent stop there.
//
// One iteration on rank r is:
//
//   [work]  [timing fence: coll::barrier]  [check vs oracle]  [control]
//
// Rank 0 times the iteration from the end of the previous control
// allreduce to the end of the timing fence.  The control allreduce carries
// every rank's oracle mismatches and rank 0's stop decision, so all ranks
// leave the loop together and the check stays outside the timed interval.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mprt/comm.hpp"
#include "mprt/runtime.hpp"

namespace perfbench {

// -- Host probes -------------------------------------------------------------

/// Seconds on the steady clock since the first call in this process.
double now_s();
/// User + system CPU of the whole process (every thread), in seconds.
double process_cpu_s();
/// Integer value of one `Name:` field of /proc/self/status (kB fields are
/// returned in KiB), or -1 when the field is missing.
long proc_status(const char* field);
/// A fixed single-thread integer loop; returns its wall time in ms.  Timed
/// at the start and end of every benchmark process so that a slow host
/// shows apart from a slow program.
double probe_ms();

double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// -- Trace -------------------------------------------------------------------

/// One timed call made by the benchmark into a layer of the library.
struct Span {
  const char* name = "";
  double start_s = 0.0;
  double end_s = 0.0;
  std::int32_t parent = -1;  ///< index of the enclosing span of this rank
  std::int32_t rank = 0;
  std::int64_t iter = 0;     ///< >= 0: timed iteration; < 0: set-up of run -iter-1
};

/// Per-rank span buffers, kept in memory and written out after the run.
/// Each rank appends only to its own buffer (a rank is one thread or one
/// fiber at a time), so recording takes no lock.
class Trace {
 public:
  explicit Trace(int ranks)
      : spans_(static_cast<std::size_t>(ranks)),
        open_(static_cast<std::size_t>(ranks)) {}

  int begin(int rank, const char* name, std::int64_t iter);
  void end(int rank, int index);

  /// Per span name: the median over iterations (iter >= 0) of the call
  /// interval from the first rank's entry to the last rank's exit.
  [[nodiscard]] double call_median_s(const char* name) const;
  /// Same, over set-up spans (one interval per run).
  [[nodiscard]] double setup_median_s(const char* name) const;
  /// Mean over ranks and timed iterations of one span's duration.
  [[nodiscard]] double mean_rank_s(const char* name) const;

  /// Writes every span as CSV (name, rank, iter, parent, start_us, end_us,
  /// self_us) to `path` unless it is empty, and returns a per-name summary
  /// table (count, median duration, median self time) for the report.
  /// Self time is a span's duration minus the part its child spans cover.
  std::string write(const std::string& path) const;

 private:
  std::vector<std::vector<Span>> spans_;
  std::vector<std::vector<int>> open_;
};

/// Records one span when a trace is active; one pointer test otherwise.
class SpanScope {
 public:
  SpanScope(Trace* trace, int rank, const char* name, std::int64_t iter)
      : trace_(trace), rank_(rank) {
    if (trace_ != nullptr) index_ = trace_->begin(rank, name, iter);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() {
    if (trace_ != nullptr) trace_->end(rank_, index_);
  }

 private:
  Trace* trace_;
  int rank_;
  int index_ = -1;
};

// -- Counters the library exposes on Comm ------------------------------------

enum Counter : std::size_t {
  kMsgsSent,
  kBytesSent,
  kMsgsRecv,
  kPayloadAllocs,
  kPoolHits,
  kPoolAcquires,
  kAutotune,
  kParSections,
  kParChunks,
  kParSteals,
  kRecvRetries,
  kCounterCount
};
using Counters = std::array<double, kCounterCount>;

Counters read_counters(const rsmpi::mprt::Comm& comm);

// -- The closed loop ---------------------------------------------------------

struct IterSample {
  double wall_s = 0.0;   ///< rank 0, previous control end -> timing fence end
  double cpu_s = 0.0;    ///< process CPU over the same interval
  double model_s = 0.0;  ///< rank 0 virtual clock over the same interval
};

/// Process-wide measurement state shared by the rank bodies.  Rank 0
/// writes the scalar fields and the sample vectors; rank r writes only its
/// own slot of the per-rank vectors; the main thread reads after the join.
struct Loop {
  // Configuration.
  int warmup_iters = 2;
  std::int64_t iters_per_run = -1;  ///< cap on timed iterations per run
  double budget_s = 0.0;            ///< timed seconds wanted over all runs
  Trace* trace = nullptr;

  // Per-run state, reset at the start of each run.
  int run_index = -1;
  double run_call_s = 0.0;
  std::int64_t iter_base = 0;
  std::vector<double> entry_s, exit_s;
  std::vector<Counters> counters_at_start;
  std::vector<double> run_recv;        ///< per rank, messages received
  double run_rss_growth_kib = -1.0;    ///< rank 0 VmRSS over the timed loop

  // Results.
  double timed_s = 0.0;
  std::vector<IterSample> iters;
  std::vector<double> setup_s, launch_s, join_s;
  std::vector<Counters> deltas;     ///< per rank, summed over timed loops
  double park_events = 0.0;         ///< engine-wide, over timed loops
  /// VmRSS growth and messages received over the first run's timed loop.
  double first_rss_growth_kib = -1.0;
  double first_run_msgs_recv = 0.0;
  long peak_rss_kib = 0;            ///< VmHWM after the last timed run
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  long peak_threads = 0;            ///< `Threads:`, sampled every iteration
  std::string error;                ///< first exception a run threw

  void resize(int ranks);
  [[nodiscard]] std::int64_t timed_iters() const {
    return static_cast<std::int64_t>(iters.size());
  }
  [[nodiscard]] bool budget_spent() const { return timed_s >= budget_s; }
};

/// Runs `body` on `ranks` ranks in fresh runs until the timed budget is
/// spent and at least `min_runs` runs (set-up samples) are done.  Times
/// launch and join around each mprt::run, and turns a rank failure into one
/// failed iteration (recorded in loop.error) that ends the workload.  Peak
/// RSS is read after the last run with timed iterations, before set-up-only
/// runs can fragment the heap further.
void run_workload(Loop& loop, int ranks, int min_runs,
                  const std::function<void(rsmpi::mprt::Comm&)>& body,
                  const rsmpi::mprt::CostModel& model,
                  const rsmpi::mprt::ExecPolicy& exec);

/// Call first thing in a rank body: records the rank's entry time.
void enter_rank(Loop& loop, const rsmpi::mprt::Comm& comm);
/// Call last thing in a rank body: records the rank's exit time.
void leave_rank(Loop& loop, const rsmpi::mprt::Comm& comm);

/// The closed loop (see the file comment).  `work(iter)` runs one
/// iteration's library calls, `check()` returns this rank's number of
/// outputs that disagree with the oracle.  `iter` is the timed-iteration
/// id, or -1 during warm-up (spans are recorded only for timed ones).
void closed_loop(Loop& loop, rsmpi::mprt::Comm& comm,
                 const std::function<void(std::int64_t)>& work,
                 const std::function<long()>& check);

// -- Inputs ------------------------------------------------------------------

/// splitmix64 stream keyed by (seed, a, b): one independent generator per
/// rank and input, so inputs do not depend on execution order.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t a, std::uint64_t b);
  std::uint64_t next();
  /// Uniform integer in [0, bound).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  /// Uniform double in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

}  // namespace perfbench
