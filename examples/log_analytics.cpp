// Streaming log analytics as a multi-tenant service — the MapReduce-shaped
// workload the paper's related-work section contrasts with (§5), run not as
// four one-shot reductions but as four *tenant streams* of the streaming
// aggregation service (src/svc, docs/service.md).
//
// Every rank ingests a shard of synthetic web-log events (user id as the
// key, latency as the value); each epoch the service routes events to
// their owning shards, folds, merges through persistent collectives, and
// advances the tenants' windows:
//
//   * "requests" — Sum over all ranks, tumbling(1): requests per epoch;
//   * "users"    — HyperLogLog sliding(8,1): distinct users over the last
//                  8 epochs, refreshed every epoch (two-stack window —
//                  sketch merges have no inverse);
//   * "latency"  — Histogram sliding(6,2): latency distribution over the
//                  last 6 epochs, every 2 (invertible O(1) eviction);
//   * "worst"    — Max sliding(4,1): worst latency of the last 4 epochs,
//                  sharded on a subset of the ranks (two-stack).
//
// All planning happens at add_stream; the epoch loop neither plans nor
// allocates once warm.  The same operators and call shapes as the batch
// examples — the global-view protocol, extended in time.
//
// The per-shard folds run through the work-stealing local pool
// (docs/parallel_local.md): RSMPI_LOCAL_THREADS workers per rank chew
// each routed batch in grain-sized chunks, and the run's "par.*" metric
// rows land in RunResult::metrics next to the svc totals.
//
//   $ ./log_analytics [num_ranks] [epochs] [events_per_rank_epoch]
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "rs/rsmpi.hpp"

int main(int argc, char** argv) {
  const int ranks = argc > 1 ? std::atoi(argv[1]) : 8;
  const int epochs = argc > 2 ? std::atoi(argv[2]) : 12;
  const int per_epoch = argc > 3 ? std::atoi(argv[3]) : 20'000;

  // Parallel local accumulate, unless the caller chose a width.  Routed
  // batches are ~per_epoch / ranks events, so pick a grain four chunks
  // below that; the pool falls back to serial for smaller batches.
  ::setenv("RSMPI_LOCAL_THREADS", "4", /*overwrite=*/0);
  const int batch = per_epoch / (ranks > 0 ? ranks : 1);
  ::setenv("RSMPI_LOCAL_GRAIN",
           std::to_string(batch > 4 ? batch / 4 : 1).c_str(),
           /*overwrite=*/0);

  const auto res = rsmpi::mprt::run(ranks, [&](rsmpi::mprt::Comm& comm) {
    namespace ops = rsmpi::rs::ops;
    namespace svc = rsmpi::svc;

    svc::Service service(comm);

    // Four tenants, one ingest feed.  Members must be registered
    // identically on every rank (add_stream is collective, like a split).
    std::vector<int> all(static_cast<std::size_t>(comm.size()));
    for (int r = 0; r < comm.size(); ++r) all[static_cast<std::size_t>(r)] = r;
    std::vector<int> evens;
    for (int r = 0; r < comm.size(); r += 2) evens.push_back(r);

    auto& requests = service.add_stream(
        "requests", all, ops::Sum<long>{},
        [](const svc::Event&) { return 1L; }, svc::WindowConfig{1});
    auto& users = service.add_stream(
        "users", all, ops::HyperLogLog<std::uint64_t>(12),
        [](const svc::Event& e) { return e.key; },
        svc::WindowConfig{.window_epochs = 8, .slide_epochs = 1});
    std::vector<double> edges = {0, 10, 20, 40, 80, 160, 320, 640};
    auto& latency = service.add_stream(
        "latency", all, ops::Histogram<double>(edges),
        [](const svc::Event& e) { return e.value; },
        svc::WindowConfig{.window_epochs = 6, .slide_epochs = 2});
    auto& worst = service.add_stream(
        "worst", evens, ops::Max<double>{},
        [](const svc::Event& e) { return e.value; },
        svc::WindowConfig{.window_epochs = 4, .slide_epochs = 1});

    // The epoch loop: ingest, step, observe.
    std::mt19937_64 rng(99u + static_cast<unsigned>(comm.rank()));
    std::exponential_distribution<double> lat(1.0 / 40.0);
    for (int e = 0; e < epochs; ++e) {
      for (int i = 0; i < per_epoch; ++i) {
        // ~20k distinct users; a slow diurnal drift in latency scale.
        const svc::Event ev{rng() % 20'000,
                            lat(rng) * (1.0 + 0.5 * (e % 4))};
        requests.stage(ev);
        users.stage(ev);
        latency.stage(ev);
        worst.stage(ev);
      }
      service.step_epoch();

      if (comm.rank() == 0) {
        std::printf("epoch %2d : %ld requests", e + 1,
                    requests.last_window().value_or(0L));
        if (users.last_window().has_value()) {
          std::printf(", ~%.0f users/8ep", *users.last_window());
        }
        if (worst.last_window().has_value()) {
          std::printf(", worst %.0f ms/4ep", *worst.last_window());
        }
        if (latency.last_window().has_value()) {
          const auto& h = *latency.last_window();
          std::printf(", lat[");
          for (std::size_t b = 0; b + 2 < h.size(); ++b) {
            std::printf("%s%ld", b ? " " : "", h[b]);
          }
          std::printf("]");
        }
        std::printf("\n");
      }
    }

    service.publish();
    if (comm.rank() == 0) {
      std::printf("\nrank 0 stat dump (docs/service.md schema):\n%s\n",
                  service.stats_json().c_str());
    }
  });

  // publish() folded every rank's totals into RunResult::user_stats.
  const auto stat = [&](const char* k) {
    const auto it = res.user_stats.find(k);
    return it == res.user_stats.end() ? 0.0 : it->second;
  };
  std::printf("\ntotals  : %.0f events, %.0f stream-epochs, %.0f windows\n",
              stat("svc.events"), stat("svc.epochs"), stat("svc.windows"));
  std::printf("modelled: %.2fms makespan, %.1fM events/s aggregate\n",
              res.makespan_s * 1e3,
              stat("svc.events") / res.makespan_s / 1e6);
  const auto row = [&](rsmpi::mprt::Metric m) {
    return static_cast<unsigned long long>(res.metrics[m]);
  };
  using rsmpi::mprt::Metric;
  if (row(Metric::kParSections) > 0) {
    std::printf("local   : %llu workers/rank, %llu parallel sections, "
                "%llu chunks, %llu steals\n",
                row(Metric::kParThreads), row(Metric::kParSections),
                row(Metric::kParChunks), row(Metric::kParSteals));
  }
  return 0;
}
