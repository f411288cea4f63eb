// Observability for the streaming service: per-epoch latency histograms,
// sustained throughput, pool reuse, and chaos-induced incidents, gathered
// rank-locally and dumped as JSON (shape modeled on katana's
// StatCollector: named stats, per-category aggregates, one JSON document
// per run).
//
// The collector is deliberately runtime-agnostic: it reads the runtime's
// metrics table through Comm::metrics().  Aggregates flow out two ways —
// `to_json()` for the bench/demo reports, and `publish()` into
// Comm::publish_stat so run() folds every rank's totals into
// RunResult::user_stats.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "mprt/comm.hpp"

namespace rsmpi::svc {

/// Log-spaced latency histogram over microseconds: bucket b counts epochs
/// whose latency lies in [2^b, 2^(b+1)) microseconds, bucket 0 catching
/// everything below 1 us and the last bucket everything at or above 2^22
/// us (~4.2 s).
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 24;

  void record(double seconds) {
    const double us = seconds * 1e6;
    std::size_t b = 0;
    while (b + 1 < kBuckets && us >= static_cast<double>(1ULL << (b + 1))) {
      ++b;
    }
    counts_[b] += 1;
  }

  [[nodiscard]] const std::array<std::uint64_t, kBuckets>& counts() const {
    return counts_;
  }

  [[nodiscard]] std::string to_json() const {
    std::ostringstream os;
    os << "[";
    for (std::size_t b = 0; b < kBuckets; ++b) {
      if (b > 0) os << ",";
      os << counts_[b];
    }
    os << "]";
    return os.str();
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
};

/// Per-stream running aggregates plus the raw per-epoch latency samples
/// (kept for exact quantiles; epochs are bounded by run length, not event
/// count, so the memory is tame).
struct StreamStats {
  std::uint64_t epochs = 0;
  std::uint64_t events = 0;
  std::uint64_t windows_emitted = 0;
  std::uint64_t degraded_epochs = 0;
  double total_latency_s = 0.0;
  LatencyHistogram latency_hist;
  std::vector<double> latency_samples_s;

  void record_epoch(std::uint64_t epoch_events, double latency_s) {
    epochs += 1;
    events += epoch_events;
    total_latency_s += latency_s;
    latency_hist.record(latency_s);
    latency_samples_s.push_back(latency_s);
  }

  /// Exact q-quantile of the per-epoch latencies (0 when no samples).
  [[nodiscard]] double latency_quantile_s(double q) const {
    if (latency_samples_s.empty()) return 0.0;
    std::vector<double> sorted = latency_samples_s;
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
  }
};

/// Rank-local stat collector for one service instance.  Records epoch
/// latencies per stream (on whatever clock the caller samples — the
/// service uses the rank's virtual clock so the numbers are deterministic
/// and machine-independent), plus incident counters the chaos layer
/// induces (receive-deadline retries, degraded streams).
class StatCollector {
 public:
  /// Begins an epoch measurement; returns the clock value to pass to
  /// end_epoch (virtual seconds of the rank's own timeline).
  [[nodiscard]] static double epoch_start(const mprt::Comm& comm) {
    return comm.clock().now();
  }

  void record_epoch(const std::string& stream, std::uint64_t events,
                    double latency_s) {
    streams_[stream].record_epoch(events, latency_s);
  }

  void record_window(const std::string& stream) {
    streams_[stream].windows_emitted += 1;
  }

  void record_degraded_epoch(const std::string& stream) {
    streams_[stream].degraded_epochs += 1;
  }

  /// Marks a stream permanently degraded (a shard died and the stream
  /// stopped flowing); counted once per stream.
  void record_stream_degraded(const std::string& stream) {
    auto& s = streams_[stream];
    if (s.degraded_epochs == 0) s.degraded_epochs = 1;
    degraded_streams_ += 1;
  }

  [[nodiscard]] const std::map<std::string, StreamStats>& streams() const {
    return streams_;
  }
  [[nodiscard]] std::uint64_t degraded_streams() const {
    return degraded_streams_;
  }

  [[nodiscard]] std::uint64_t total_events() const {
    std::uint64_t n = 0;
    for (const auto& [name, s] : streams_) n += s.events;
    return n;
  }
  [[nodiscard]] std::uint64_t total_epochs() const {
    std::uint64_t n = 0;
    for (const auto& [name, s] : streams_) n += s.epochs;
    return n;
  }

  /// One JSON document: per-stream aggregates plus a snapshot of this
  /// rank's metrics, one key per row of the table.  The stat schema is
  /// documented in docs/service.md.
  [[nodiscard]] std::string to_json(const mprt::Comm& comm) const {
    std::ostringstream os;
    os << "{\n  \"rank\": " << comm.global_rank() << ",\n  \"streams\": {";
    bool first = true;
    for (const auto& [name, s] : streams_) {
      os << (first ? "\n" : ",\n");
      first = false;
      const double mean =
          s.epochs > 0 ? s.total_latency_s / static_cast<double>(s.epochs)
                       : 0.0;
      os << "    \"" << name << "\": {"
         << "\"epochs\": " << s.epochs << ", \"events\": " << s.events
         << ", \"windows\": " << s.windows_emitted
         << ", \"degraded_epochs\": " << s.degraded_epochs
         << ", \"mean_epoch_s\": " << mean
         << ", \"p50_epoch_s\": " << s.latency_quantile_s(0.5)
         << ", \"p99_epoch_s\": " << s.latency_quantile_s(0.99)
         << ", \"latency_hist_us_log2\": " << s.latency_hist.to_json() << "}";
    }
    os << "\n  },\n  \"runtime\": {";
    const mprt::Metrics metrics = comm.metrics();
    for (const mprt::MetricRow& row : mprt::kMetricTable) {
      os << "\"" << row.name << "\": " << metrics[row.metric] << ", ";
    }
    os << "\"degraded_streams\": " << degraded_streams_ << "}\n}";
    return os.str();
  }

  /// Publishes the rank's service totals through Comm::publish_stat, so
  /// they arrive summed across ranks in RunResult::user_stats under the
  /// "svc." prefix.
  void publish(mprt::Comm& comm) const {
    comm.publish_stat("svc.epochs", static_cast<double>(total_epochs()));
    comm.publish_stat("svc.events", static_cast<double>(total_events()));
    comm.publish_stat("svc.degraded_streams",
                      static_cast<double>(degraded_streams_));
    std::uint64_t windows = 0;
    for (const auto& [name, s] : streams_) windows += s.windows_emitted;
    comm.publish_stat("svc.windows", static_cast<double>(windows));
  }

 private:
  std::map<std::string, StreamStats> streams_;
  std::uint64_t degraded_streams_ = 0;
};

}  // namespace rsmpi::svc
