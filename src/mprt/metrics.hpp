// One table of the runtime's metrics.
//
// Every counter the runtime keeps is one row of RSMPI_METRIC_ROWS: its
// enumerator, its dotted name and the rule that merges per-rank values
// into a run total.  The prefix says where a value comes from: mprt.* a
// rank's traffic, payload buffers, planning and fault recovery; tier.*
// the two-level topology split (0 under a flat model); par.* the parallel
// local fold (0 unless RSMPI_LOCAL_THREADS > 1); rt.* the scheduler and
// chaos.* the fault plan.  A new counter is one row plus its increment.
//
// A rank keeps its values in one Metrics array (RankState::metrics),
// written at a constant index, so an increment costs what a struct field
// did.  Comm::metrics() snapshots it, RunResult::metrics merges the ranks'
// final snapshots, RSMPI_GetStats copies one out and svc::StatCollector
// prints one.  Merging per-rank counters is itself a reduction, so each
// row declares its combine, as Galois's GAccumulator / GReduceMax do (as
// plain enums: mprt sits below the rs operators).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace rsmpi::mprt {

#define RSMPI_METRIC_ROWS(ROW)                                   \
  ROW(kMessagesSent, "mprt.messages_sent", kSum)                 \
  ROW(kBytesSent, "mprt.bytes_sent", kSum)                       \
  ROW(kMessagesReceived, "mprt.messages_received", kSum)         \
  ROW(kBytesReceived, "mprt.bytes_received", kSum)               \
  ROW(kPayloadAllocs, "mprt.payload_allocs", kSum)               \
  ROW(kPayloadCopies, "mprt.payload_copies", kSum)               \
  ROW(kSendsMoved, "mprt.sends_moved", kSum)                     \
  ROW(kSendsInline, "mprt.sends_inline", kSum)                   \
  ROW(kPoolHits, "mprt.pool_hits", kSum)                         \
  ROW(kPoolMisses, "mprt.pool_misses", kSum)                     \
  ROW(kPoolDropped, "mprt.pool_dropped", kSum)                   \
  ROW(kSegmentsReused, "mprt.segments_reused", kSum)             \
  ROW(kPoolRegrows, "mprt.pool_regrows", kSum)                   \
  ROW(kAutotuneInvocations, "mprt.autotune_invocations", kSum)   \
  ROW(kRecvRetries, "mprt.recv_retries", kSum)                   \
  ROW(kDuplicatesSuppressed, "mprt.duplicates_suppressed", kSum) \
  ROW(kIntraNodeBytes, "tier.intra_bytes", kSum)                 \
  ROW(kInterNodeBytes, "tier.inter_bytes", kSum)                 \
  ROW(kParSections, "par.sections", kSum)                        \
  ROW(kParChunks, "par.chunks", kSum)                            \
  ROW(kParSteals, "par.steals", kSum)                            \
  ROW(kParThreads, "par.threads", kMax)                          \
  ROW(kWorkers, "rt.workers", kRunWide)                          \
  ROW(kParkedRanks, "rt.parked_ranks", kRunWide)                 \
  ROW(kParkEvents, "rt.park_events", kRunWide)                   \
  ROW(kChaosDropped, "chaos.dropped", kRunWide)                  \
  ROW(kChaosDuplicated, "chaos.duplicated", kRunWide)            \
  ROW(kChaosDelayed, "chaos.delayed", kRunWide)                  \
  ROW(kChaosReordered, "chaos.reordered", kRunWide)              \
  ROW(kChaosRankKilled, "chaos.rank_killed", kRunWide)

/// The runtime's metrics, one enumerator per row.
enum class Metric : std::uint8_t {
#define RSMPI_METRIC_ENUMERATOR(id, name, merge) id,
  RSMPI_METRIC_ROWS(RSMPI_METRIC_ENUMERATOR)
#undef RSMPI_METRIC_ENUMERATOR
};

/// How a row's per-rank values merge into the run total.
enum class Merge : std::uint8_t {
  kSum,      ///< summed over ranks
  kMax,      ///< the largest rank's value
  kRunWide,  ///< one value for the whole run, read where it lives
};

struct MetricRow {
  Metric metric;
  std::string_view name;
  Merge merge;
};

inline constexpr std::array kMetricTable = {
#define RSMPI_METRIC_ROW(id, name, merge) \
  MetricRow{Metric::id, name, Merge::merge},
    RSMPI_METRIC_ROWS(RSMPI_METRIC_ROW)
#undef RSMPI_METRIC_ROW
};

inline constexpr std::size_t kNumMetrics = kMetricTable.size();

[[nodiscard]] constexpr const MetricRow& metric_row(Metric m) {
  return kMetricTable[static_cast<std::size_t>(m)];
}

/// One value per row of kMetricTable: a rank's counters, a snapshot of
/// them, or a run's merged totals.
class Metrics {
 public:
  [[nodiscard]] std::uint64_t operator[](Metric m) const {
    return values_[static_cast<std::size_t>(m)];
  }
  [[nodiscard]] std::uint64_t& operator[](Metric m) {
    return values_[static_cast<std::size_t>(m)];
  }

  /// Folds `value` into row `m` by its rule: a max row keeps the larger
  /// value, any other row adds.  The rule of a constant row folds away.
  void add(Metric m, std::uint64_t value = 1) {
    std::uint64_t& v = (*this)[m];
    v = metric_row(m).merge == Merge::kMax ? std::max(v, value) : v + value;
  }

  /// Merges another rank's values in, row by row.  A run-wide row reads
  /// the same source on every rank and only grows, so the merge keeps the
  /// latest, largest reading.
  void merge(const Metrics& other) {
    for (std::size_t i = 0; i < kNumMetrics; ++i) {
      values_[i] = kMetricTable[i].merge == Merge::kSum
                       ? values_[i] + other.values_[i]
                       : std::max(values_[i], other.values_[i]);
    }
  }

 private:
  std::array<std::uint64_t, kNumMetrics> values_{};
};

}  // namespace rsmpi::mprt
