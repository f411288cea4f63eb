// Streaming-service throughput bench: multi-tenant keyed aggregation at
// scale.  Each point hosts several tenant streams on one svc::Service,
// pumps millions of keyed events through hash-sharded routing, persistent
// merges, and windowed emission, and reports:
//
//   * modelled_events_per_s — folded events over the virtual-clock
//     makespan with compute_scale = 0, so the number is a deterministic,
//     machine-independent image of the communication critical path.  The
//     committed BENCH_svc.json doubles as a regression baseline:
//     `--check <baseline.json>` fails if any non-chaos point loses more
//     than 5% of it.
//   * wall_events_per_s — real host throughput of the same run (threads,
//     mailboxes, folds included).  Reported, never gated: it moves with
//     the machine.
//   * p99_epoch_us — worst per-stream p99 epoch latency across ranks, on
//     the virtual clock.
//   * warm_payload_allocs / warm_autotune — counter deltas across the
//     warm epochs.  Both must be ZERO (the persistent plans and pooled
//     route buffers make the warm path allocation- and planning-free);
//     --check enforces it.
//
// One point runs under a chaos plan that kills a shard of the first
// stream mid-flight: exactly that stream must retire, every other tenant
// must keep flowing, and the survivors' final window must equal a serial
// re-aggregation of the surviving ranks' events (checked in-process).
//
// Emits machine-readable JSON on stdout (committed as BENCH_svc.json from
// a full run) and a human summary on stderr.  --smoke sweeps a subset of
// the grid for CI; every smoke point exists in the full baseline.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "mprt/cost_model.hpp"
#include "mprt/runtime.hpp"
#include "rs/ops/ops.hpp"
#include "svc/svc.hpp"

namespace {

using namespace rsmpi;
namespace ops = rs::ops;
using mprt::Comm;
using svc::Event;

mprt::CostModel bench_model() {
  mprt::CostModel model;      // default LogGP: o = 1 us, L = 10 us, 1 GB/s
  model.compute_scale = 0.0;  // deterministic: communication charges only
  return model;
}

/// The keyed events rank r stages for stream s in epoch e.  Key sets
/// cycle with period 4 so per-shard batch sizes stabilize inside the
/// warm-up and the pooled route buffers reach steady state.
void stage_load(std::vector<Event>* out, int rank, int epoch, int stream,
                int count) {
  out->clear();
  for (int i = 0; i < count; ++i) {
    const auto key = static_cast<std::uint64_t>(
        stream * 1'000'000 + rank * 10'000 + (epoch % 4) * 1'000 + i);
    out->push_back(
        Event{key, static_cast<double>((rank * 31 + epoch * 7 + i) % 1000)});
  }
}

long serial_epoch_sum(const std::vector<int>& ranks, int epoch, int stream,
                      int count) {
  long sum = 0;
  std::vector<Event> events;
  for (const int r : ranks) {
    stage_load(&events, r, epoch, stream, count);
    for (const Event& e : events) sum += static_cast<long>(e.value);
  }
  return sum;
}

const auto kSumValues = [](const Event& e) {
  return static_cast<long>(e.value);
};

struct PointConfig {
  const char* name;
  int p;
  int streams;
  int events_per_rank_epoch;
  int epochs;
  bool chaos;
};

struct PointResult {
  PointConfig cfg;
  double modelled_events_per_s = 0.0;
  double wall_events_per_s = 0.0;
  double p99_epoch_us = 0.0;
  std::uint64_t total_events = 0;
  std::uint64_t warm_payload_allocs = 0;
  std::uint64_t warm_autotune = 0;
  std::uint64_t degraded_streams = 0;
  std::uint64_t local_threads = 0;
  std::uint64_t local_steals = 0;
  bool oracle_ok = true;
};

constexpr int kWarmupEpochs = 4;

svc::WindowConfig tumbling1() {
  svc::WindowConfig cfg;
  cfg.window_epochs = 1;
  return cfg;
}

/// Fault-free point: `streams` tenants, every rank a member of every
/// stream (so routed buffers circulate through balanced pools and the
/// warm path stays allocation-free).  Runs with the work-stealing local
/// pool active (4 workers, grain 128 — folds arrive per sender shard,
/// events_per_rank_epoch / p at a time, so the grain must sit below
/// that for the batches to genuinely fan out)
/// to demonstrate that the warm zero-allocation gate holds with parallel
/// local accumulation enabled; with compute_scale = 0 the pool cannot
/// move the modelled numbers, so the baseline is unaffected.
PointResult measure_base(const PointConfig& cfg) {
  PointResult res;
  res.cfg = cfg;
  ::setenv("RSMPI_LOCAL_THREADS", "4", 1);
  ::setenv("RSMPI_LOCAL_GRAIN", "128", 1);
  std::vector<double> p99(static_cast<std::size_t>(cfg.p), 0.0);
  std::vector<std::uint64_t> warm_allocs(static_cast<std::size_t>(cfg.p), 0);
  std::vector<std::uint64_t> warm_tunes(static_cast<std::size_t>(cfg.p), 0);

  std::vector<int> all_ranks;
  for (int r = 0; r < cfg.p; ++r) all_ranks.push_back(r);

  const auto wall0 = std::chrono::steady_clock::now();
  const auto run = mprt::run(
      cfg.p,
      [&](Comm& comm) {
        svc::Service service(comm);
        std::vector<svc::StreamBase*> tenants;
        for (int s = 0; s < cfg.streams; ++s) {
          const std::string name = "tenant" + std::to_string(s);
          switch (s % 4) {
            case 0:
              tenants.push_back(&service.add_stream(
                  name, all_ranks, ops::Sum<long>{}, kSumValues, tumbling1()));
              break;
            case 1:
              tenants.push_back(&service.add_stream(
                  name, all_ranks, ops::Counts(64),
                  [](const Event& e) { return static_cast<int>(e.key % 64); },
                  tumbling1()));
              break;
            case 2:
              tenants.push_back(&service.add_stream(
                  name, all_ranks, ops::HyperLogLog<std::uint64_t>(10),
                  [](const Event& e) { return e.key; }, tumbling1()));
              break;
            default: {
              svc::WindowConfig sliding;  // two-stack evict path
              sliding.window_epochs = 4;
              sliding.slide_epochs = 1;
              tenants.push_back(&service.add_stream(
                  name, all_ranks, ops::Min<int>{},
                  [](const Event& e) { return static_cast<int>(e.value); },
                  sliding));
              break;
            }
          }
        }

        std::vector<Event> batch;
        std::uint64_t allocs0 = 0;
        std::uint64_t tunes0 = 0;
        for (int e = 1; e <= cfg.epochs; ++e) {
          for (int s = 0; s < cfg.streams; ++s) {
            stage_load(&batch, comm.rank(), e, s, cfg.events_per_rank_epoch);
            tenants[static_cast<std::size_t>(s)]->stage(batch);
          }
          service.step_epoch();
          if (e == kWarmupEpochs) {
            allocs0 = comm.payload_allocs();
            tunes0 = comm.autotune_invocations();
          }
        }

        const auto r = static_cast<std::size_t>(comm.rank());
        warm_allocs[r] = comm.payload_allocs() - allocs0;
        warm_tunes[r] = comm.autotune_invocations() - tunes0;
        for (const auto& [name, s] : service.stats().streams()) {
          const double q = s.latency_quantile_s(0.99) * 1e6;
          if (q > p99[r]) p99[r] = q;
        }
        service.publish();
      },
      bench_model());
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall0;
  ::unsetenv("RSMPI_LOCAL_THREADS");
  ::unsetenv("RSMPI_LOCAL_GRAIN");

  res.local_threads = run.metrics[mprt::Metric::kParThreads];
  res.local_steals = run.metrics[mprt::Metric::kParSteals];
  res.total_events = static_cast<std::uint64_t>(run.user_stats.at("svc.events"));
  res.modelled_events_per_s =
      static_cast<double>(res.total_events) / run.makespan_s;
  res.wall_events_per_s = static_cast<double>(res.total_events) / wall.count();
  for (int r = 0; r < cfg.p; ++r) {
    const auto i = static_cast<std::size_t>(r);
    if (p99[i] > res.p99_epoch_us) res.p99_epoch_us = p99[i];
    res.warm_payload_allocs += warm_allocs[i];
    res.warm_autotune += warm_tunes[i];
  }
  return res;
}

/// Chaos point: benign faults plus a kill of the last rank, which shards
/// only the first stream.  That stream must retire; the other tenants
/// must keep flowing at full epoch count, and their final window must
/// equal a serial re-aggregation of the surviving ranks' events.
PointResult measure_chaos(const PointConfig& cfg) {
  PointResult res;
  res.cfg = cfg;
  const int victim = cfg.p - 1;
  std::vector<int> all_ranks;
  std::vector<int> survivors;
  for (int r = 0; r < cfg.p; ++r) {
    all_ranks.push_back(r);
    if (r != victim) survivors.push_back(r);
  }

  mprt::SimConfig sim;
  sim.seed = 20260808;
  sim.duplicate_prob = 0.02;
  sim.delay_prob = 0.05;
  sim.max_extra_delay_s = 5e-5;
  sim.reorder_prob = 0.02;
  sim.kill_rank = victim;
  // Setup is deterministic: each add_stream's split sends p-1 messages
  // per rank and nothing else in setup sends, so the victim dies at its
  // first epoch-1 routing send.
  sim.kill_after_sends =
      static_cast<std::uint64_t>(cfg.streams) *
      static_cast<std::uint64_t>(cfg.p - 1);

  std::vector<std::uint64_t> events(static_cast<std::size_t>(cfg.p), 0);
  std::vector<std::uint64_t> degraded(static_cast<std::size_t>(cfg.p), 0);
  std::vector<double> p99(static_cast<std::size_t>(cfg.p), 0.0);
  std::vector<double> makespans(static_cast<std::size_t>(cfg.p), 0.0);
  std::vector<int> ok(static_cast<std::size_t>(cfg.p), 1);

  const auto wall0 = std::chrono::steady_clock::now();
  try {
    mprt::run(
        cfg.p,
        [&](Comm& comm) {
          svc::Service service(comm);
          using SumStream =
              decltype(service.add_stream("", all_ranks, ops::Sum<long>{},
                                          kSumValues, tumbling1()));
          std::vector<std::remove_reference_t<SumStream>*> tenants;
          for (int s = 0; s < cfg.streams; ++s) {
            // tenant0 shards on every rank (including the victim); the
            // rest shard only on survivors.
            const auto& members = (s == 0) ? all_ranks : survivors;
            tenants.push_back(&service.add_stream("tenant" + std::to_string(s),
                                                  members, ops::Sum<long>{},
                                                  kSumValues, tumbling1()));
          }

          std::vector<Event> batch;
          for (int e = 1; e <= cfg.epochs; ++e) {
            for (int s = 0; s < cfg.streams; ++s) {
              stage_load(&batch, comm.rank(), e, s, cfg.events_per_rank_epoch);
              tenants[static_cast<std::size_t>(s)]->stage(batch);
            }
            service.step_epoch();
          }

          const auto r = static_cast<std::size_t>(comm.rank());
          if (!tenants[0]->degraded()) ok[r] = 0;
          for (int s = 1; s < cfg.streams; ++s) {
            auto* t = tenants[static_cast<std::size_t>(s)];
            if (t->degraded()) ok[r] = 0;
            // Survivor tenants see the full epoch count; the victim's
            // events simply vanish with it.  The final window must match
            // the serial survivor-side oracle exactly.
            if (t->windows_emitted() !=
                static_cast<std::uint64_t>(cfg.epochs)) {
              ok[r] = 0;
            }
            const auto& last = t->last_window();
            if (!last.has_value() ||
                *last != serial_epoch_sum(survivors, cfg.epochs, s,
                                          cfg.events_per_rank_epoch)) {
              ok[r] = 0;
            }
          }
          events[r] = service.stats().total_events();
          degraded[r] = service.stats().degraded_streams();
          for (const auto& [name, s] : service.stats().streams()) {
            const double q = s.latency_quantile_s(0.99) * 1e6;
            if (q > p99[r]) p99[r] = q;
          }
          makespans[r] = comm.clock().now();
        },
        bench_model(), sim);
    res.oracle_ok = false;  // the kill must surface as RankKilledError
  } catch (const RankKilledError&) {
  }
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall0;

  double makespan = 0.0;
  for (const int r : survivors) {
    const auto i = static_cast<std::size_t>(r);
    res.total_events += events[i];
    if (p99[i] > res.p99_epoch_us) res.p99_epoch_us = p99[i];
    if (makespans[i] > makespan) makespan = makespans[i];
    if (ok[i] == 0) res.oracle_ok = false;
    if (degraded[i] != 1) res.oracle_ok = false;
  }
  res.degraded_streams = 1;
  res.modelled_events_per_s = static_cast<double>(res.total_events) / makespan;
  res.wall_events_per_s = static_cast<double>(res.total_events) / wall.count();
  return res;
}

// --- baseline check ---------------------------------------------------------

/// Extracts the number following `"key": ` in `line`, or -1 if absent.
double json_field(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\": ";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return -1.0;
  return std::atof(line.c_str() + pos + needle.size());
}

/// Gates: non-chaos points keep >= 95% of the baseline's modelled
/// events/sec; every point's warm deltas are zero; the chaos point's
/// structural and oracle checks hold.  Returns the number of failures.
int check_against_baseline(const std::vector<PointResult>& points,
                           const char* baseline_path) {
  std::ifstream in(baseline_path);
  if (!in) {
    std::fprintf(stderr, "check: cannot open baseline %s\n", baseline_path);
    return 1;
  }
  struct Base {
    int p;
    int streams;
    int events;
    int epochs;
    int chaos;
    double modelled;
  };
  std::vector<Base> baseline;
  std::string line;
  while (std::getline(in, line)) {
    const double p = json_field(line, "p");
    const double modelled = json_field(line, "modelled_events_per_s");
    if (p > 0 && modelled > 0) {
      baseline.push_back({static_cast<int>(p),
                          static_cast<int>(json_field(line, "streams")),
                          static_cast<int>(
                              json_field(line, "events_per_rank_epoch")),
                          static_cast<int>(json_field(line, "epochs")),
                          static_cast<int>(json_field(line, "chaos")),
                          modelled});
    }
  }
  int failures = 0;
  for (const PointResult& pt : points) {
    if (pt.warm_payload_allocs != 0 && !pt.cfg.chaos) {
      std::fprintf(stderr, "check: %s warm epochs allocated %llu buffers\n",
                   pt.cfg.name,
                   static_cast<unsigned long long>(pt.warm_payload_allocs));
      ++failures;
    }
    if (pt.warm_autotune != 0) {
      std::fprintf(stderr, "check: %s warm epochs re-autotuned %llu times\n",
                   pt.cfg.name,
                   static_cast<unsigned long long>(pt.warm_autotune));
      ++failures;
    }
    if (pt.cfg.chaos) {
      if (!pt.oracle_ok) {
        std::fprintf(stderr,
                     "check: %s chaos run broke degradation invariants\n",
                     pt.cfg.name);
        ++failures;
      }
      continue;  // chaos throughput is reported, not gated
    }
    const Base* match = nullptr;
    for (const Base& b : baseline) {
      if (b.p == pt.cfg.p && b.streams == pt.cfg.streams &&
          b.events == pt.cfg.events_per_rank_epoch &&
          b.epochs == pt.cfg.epochs && b.chaos == (pt.cfg.chaos ? 1 : 0)) {
        match = &b;
      }
    }
    if (match == nullptr) {
      std::fprintf(stderr, "check: no baseline point for %s\n", pt.cfg.name);
      ++failures;
      continue;
    }
    if (pt.modelled_events_per_s < match->modelled * 0.95) {
      std::fprintf(stderr,
                   "check: REGRESSION %s modelled %.3g ev/s < baseline %.3g "
                   "* 0.95\n",
                   pt.cfg.name, pt.modelled_events_per_s, match->modelled);
      ++failures;
    }
  }
  if (failures == 0) {
    std::fprintf(stderr, "check: %zu points pass all gates\n", points.size());
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* baseline_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    }
  }

  // Every smoke point exists in the full grid, so --smoke --check works
  // against the committed full-run baseline.
  const std::vector<PointConfig> full = {
      {"p4_4streams", 4, 4, 2048, 24, false},
      {"p8_4streams", 8, 4, 4096, 24, false},
      {"p16_4streams", 16, 4, 4096, 24, false},
      {"p8_5streams_chaos", 8, 5, 2048, 16, true},
  };
  std::vector<PointConfig> grid;
  for (const PointConfig& cfg : full) {
    if (smoke && cfg.p == 8 && !cfg.chaos) continue;  // CI skips the mid row
    grid.push_back(cfg);
  }

  std::vector<PointResult> points;
  std::fprintf(stderr, "== streaming service throughput ==\n");
  std::fprintf(stderr, "%-20s %4s %8s %12s %16s %16s %12s %10s %8s %8s %6s\n",
               "point", "p", "streams", "events", "modelled_ev_s", "wall_ev_s",
               "p99_us", "warm_alloc", "lthreads", "steals", "ok");
  for (const PointConfig& cfg : grid) {
    const PointResult pt = cfg.chaos ? measure_chaos(cfg) : measure_base(cfg);
    std::fprintf(stderr,
                 "%-20s %4d %8d %12llu %16.3e %16.3e %12.1f %10llu %8llu "
                 "%8llu %6s\n",
                 pt.cfg.name, pt.cfg.p, pt.cfg.streams,
                 static_cast<unsigned long long>(pt.total_events),
                 pt.modelled_events_per_s, pt.wall_events_per_s,
                 pt.p99_epoch_us,
                 static_cast<unsigned long long>(pt.warm_payload_allocs),
                 static_cast<unsigned long long>(pt.local_threads),
                 static_cast<unsigned long long>(pt.local_steals),
                 pt.oracle_ok ? "yes" : "NO");
    points.push_back(pt);
  }

  const auto model = bench_model();
  std::printf("{\n");
  std::printf("  \"bench\": \"svc_throughput\",\n");
  std::printf("  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::printf("  \"cost_model\": {\"latency_s\": %g, \"overhead_s\": %g, "
              "\"per_byte_s\": %g, \"compute_scale\": %g},\n",
              model.latency_s, model.send_overhead_s, model.per_byte_s,
              model.compute_scale);
  std::printf("  \"points\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointResult& pt = points[i];
    std::printf(
        "    {\"name\": \"%s\", \"p\": %d, \"streams\": %d, "
        "\"events_per_rank_epoch\": %d, \"epochs\": %d, \"chaos\": %d, "
        "\"total_events\": %llu, \"modelled_events_per_s\": %.6e, "
        "\"wall_events_per_s\": %.6e, \"p99_epoch_us\": %.3f, "
        "\"warm_payload_allocs\": %llu, \"warm_autotune\": %llu, "
        "\"degraded_streams\": %llu, \"local_threads\": %llu, "
        "\"local_steals\": %llu, \"oracle_ok\": %d}%s\n",
        pt.cfg.name, pt.cfg.p, pt.cfg.streams, pt.cfg.events_per_rank_epoch,
        pt.cfg.epochs, pt.cfg.chaos ? 1 : 0,
        static_cast<unsigned long long>(pt.total_events),
        pt.modelled_events_per_s, pt.wall_events_per_s, pt.p99_epoch_us,
        static_cast<unsigned long long>(pt.warm_payload_allocs),
        static_cast<unsigned long long>(pt.warm_autotune),
        static_cast<unsigned long long>(pt.degraded_streams),
        static_cast<unsigned long long>(pt.local_threads),
        static_cast<unsigned long long>(pt.local_steals),
        pt.oracle_ok ? 1 : 0, i + 1 < points.size() ? "," : "");
  }
  std::printf("  ]\n");
  std::printf("}\n");

  if (baseline_path != nullptr) {
    return check_against_baseline(points, baseline_path) == 0 ? 0 : 1;
  }
  return 0;
}
