// The metrics table (mprt/metrics.hpp) is the one source of the runtime's
// counters: RunResult merges the ranks' snapshots row by row by each
// row's rule, RSMPI_GetStats copies a rank's snapshot, and
// svc::StatCollector names every row in its JSON.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "mprt/metrics.hpp"
#include "mprt/runtime.hpp"
#include "rs/async.hpp"
#include "rs/ops/counts.hpp"
#include "rs/reduce.hpp"
#include "rs/scan.hpp"
#include "rsmpi_c/rsmpi_c.hpp"
#include "svc/service.hpp"

namespace {

using namespace rsmpi;
using mprt::Merge;
using mprt::Metric;
using mprt::Metrics;

/// Scoped environment override, restoring the previous value on exit.
class EnvGuard {
 public:
  EnvGuard(const char* name, const std::string& value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value.c_str(), 1);
  }
  ~EnvGuard() {
    if (old_.has_value()) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

TEST(Metrics, EveryRowHasItsOwnDottedName) {
  std::set<std::string_view> names;
  for (const mprt::MetricRow& row : mprt::kMetricTable) {
    EXPECT_NE(row.name.find('.'), std::string_view::npos) << row.name;
    EXPECT_TRUE(names.insert(row.name).second) << row.name;
  }
}

TEST(Metrics, AddFollowsTheRowsRule) {
  Metrics m;
  m.add(Metric::kParChunks, 5);
  m.add(Metric::kParChunks, 3);
  m.add(Metric::kParThreads, 4);
  m.add(Metric::kParThreads, 2);
  EXPECT_EQ(m[Metric::kParChunks], 8u);
  EXPECT_EQ(m[Metric::kParThreads], 4u);
}

// One run touches the traffic, tier, par, autotune and park rows: p = 4
// on two modelled nodes, two-wide local pools, a blocking reduce, a
// nonblocking reduce, a scan and one service epoch.  For every row,
// RunResult holds the row's rule applied to the ranks' end-of-body
// snapshots, RSMPI_GetStats holds the rank's snapshot, and the service's
// stat JSON names the row.
TEST(Metrics, EverySurfaceReadsTheTable) {
  const EnvGuard threads("RSMPI_LOCAL_THREADS", "2");
  const EnvGuard grain("RSMPI_LOCAL_GRAIN", "256");
  constexpr int kRanks = 4;
  std::vector<Metrics> snapshots(kRanks);
  std::vector<std::string> json(kRanks);

  const mprt::RunResult result = mprt::run(
      kRanks,
      [&](mprt::Comm& comm) {
        const auto r = static_cast<std::size_t>(comm.rank());
        std::vector<int> slice(4096);
        for (std::size_t i = 0; i < slice.size(); ++i) {
          slice[i] = static_cast<int>((r * 7 + i * 3) % 64);
        }
        const auto blocking = rs::reduce(comm, slice, rs::ops::Counts(64));
        EXPECT_EQ(rs::reduce_async(comm, slice, rs::ops::Counts(64)).get(),
                  blocking);
        (void)rs::scan(comm, slice, rs::ops::Counts(64));

        svc::Service service(comm);
        auto& stream = service.add_stream(
            "counts", std::vector<int>{0, 1, 2, 3}, rs::ops::Counts(64),
            [](const svc::Event& e) { return static_cast<int>(e.key % 64); });
        std::vector<svc::Event> events(512);
        for (std::size_t i = 0; i < events.size(); ++i) {
          events[i] = svc::Event{r * 1000 + i, 1.0};
        }
        stream.stage(events);
        service.step_epoch();
        service.publish();
        json[r] = service.stats_json();

        // Other ranks may park between two reads, which moves the
        // run-wide rows; the rank's own rows stand still.
        const Metrics before = comm.metrics();
        c_api::RSMPI_Stats stats;
        c_api::RSMPI_GetStats(&stats, comm);
        const Metrics after = comm.metrics();
        for (const mprt::MetricRow& row : mprt::kMetricTable) {
          if (row.merge == Merge::kRunWide) {
            EXPECT_LE(before[row.metric], stats[row.metric]) << row.name;
            EXPECT_LE(stats[row.metric], after[row.metric]) << row.name;
          } else {
            EXPECT_EQ(stats[row.metric], before[row.metric]) << row.name;
            EXPECT_EQ(stats[row.metric], after[row.metric]) << row.name;
          }
        }
        snapshots[r] = after;
      },
      mprt::CostModel::cluster_of_smp(2), mprt::SimConfig{},
      mprt::ExecPolicy{/*workers=*/2, /*stack_bytes=*/0});

  for (const mprt::MetricRow& row : mprt::kMetricTable) {
    // A run-wide value only grows while the run lasts, and nothing parks
    // after the last snapshot (every other body has ended by then), so
    // the run's value is the largest reading.
    std::uint64_t want = 0;
    for (const Metrics& s : snapshots) {
      want = row.merge == Merge::kSum ? want + s[row.metric]
                                      : std::max(want, s[row.metric]);
    }
    EXPECT_EQ(result.metrics[row.metric], want) << row.name;
    const std::string key = "\"" + std::string(row.name) + "\":";
    for (const std::string& doc : json) {
      EXPECT_NE(doc.find(key), std::string::npos) << row.name;
    }
  }

  for (const Metric m :
       {Metric::kMessagesSent, Metric::kBytesSent, Metric::kMessagesReceived,
        Metric::kBytesReceived, Metric::kIntraNodeBytes,
        Metric::kInterNodeBytes, Metric::kParSections, Metric::kParChunks,
        Metric::kParThreads, Metric::kAutotuneInvocations, Metric::kWorkers,
        Metric::kParkedRanks, Metric::kParkEvents}) {
    EXPECT_GT(result.metrics[m], 0u) << mprt::metric_row(m).name;
  }
  EXPECT_EQ(result.metrics[Metric::kParThreads], 2u);
  EXPECT_EQ(result.metrics[Metric::kWorkers], 2u);
  EXPECT_EQ(result.metrics[Metric::kIntraNodeBytes] +
                result.metrics[Metric::kInterNodeBytes],
            result.metrics[Metric::kBytesSent]);

  // The service publishes its own totals only; the runtime's rows reach
  // the run result through RunResult::metrics.
  for (const auto& [name, value] : result.user_stats) {
    EXPECT_EQ(name.rfind("svc.", 0), 0u) << name;
  }
  EXPECT_EQ(result.user_stats.at("svc.events"), 4.0 * 512);
}

}  // namespace
