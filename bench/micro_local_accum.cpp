// Parallel local-accumulate micro bench: raw elements/sec through
// detail::accumulate_local as the worker pool widens.
//
// Sweeps {Sum, Histogram, HLL, OrderedWord} x RSMPI_LOCAL_THREADS in
// {1, 2, 4, 8} on two workloads: NAS-IS-style uniform integer keys (Sum,
// Histogram) and log-analytics user ids / token streams (HLL,
// OrderedWord).  Each point reports:
//
//   * modelled_elems_per_s — elements over the virtual-clock charge of
//     the accumulate, with cores_per_rank = threads: summed worker CPU
//     divided by the pool width, plus the serial in-order merge.  On a
//     host with fewer physical cores than the pool this is the modelled
//     throughput of the configured machine (the same virtual-clock
//     methodology every other bench here uses); the work-stealing
//     structure is what licenses the division.
//   * speedup — modelled elements/sec over the same operator's
//     threads=1 point.  A pure overhead ratio (clones, merge, deque
//     traffic), so it is machine-portable and is what --check gates:
//     points at >= 4 threads must keep >= 75% of the committed
//     baseline's speedup (speedup ratios of a wide pool timesharing few
//     physical cores carry ~10-15% scheduling noise, so the
//     communication benches' 5% margin would flake here, and the
//     2-thread points on sub-millisecond ops are overhead-dominated
//     noise — reported, never gated; 25% headroom at >= 4 threads still
//     catches any real serialization regression), and Sum/Histogram at
//     8 threads must clear 3x outright (the ISSUE 8 acceptance floor)
//     at >= 1M elements.
//   * identical — every rep's result is compared against the serial
//     oracle; any parallel/serial divergence fails --check immediately.
//
// Emits JSON on stdout (committed as BENCH_accum.json from a full run)
// and a human summary on stderr.  --smoke cuts reps for CI; every smoke
// point exists in the full baseline.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "mprt/cost_model.hpp"
#include "mprt/runtime.hpp"
#include "par/do_all.hpp"
#include "rs/ops/basic.hpp"
#include "rs/ops/histogram.hpp"
#include "rs/ops/sketches.hpp"
#include "rs/reduce.hpp"
#include "rs/serial.hpp"
#include "verify/checker.hpp"

namespace {

using namespace rsmpi;
namespace ops = rs::ops;

constexpr int kThreadSweep[] = {1, 2, 4, 8};

std::uint64_t splitmix(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

struct PointResult {
  std::string op;
  std::string workload;
  int threads = 1;
  std::size_t elements = 0;
  double modelled_s = 0.0;
  double modelled_elems_per_s = 0.0;
  double speedup = 1.0;
  double wall_ms = 0.0;
  std::uint64_t chunks = 0;  // per rep
  std::uint64_t steals = 0;  // summed over reps
  bool identical = true;
};

/// One (operator, pool width) point: best-of-reps modelled accumulate
/// time at p = 1 with cores_per_rank = threads, every rep's generated
/// result checked against the serial oracle.
template <typename Op, typename In>
PointResult measure(const char* op_name, const char* workload,
                    const Op& prototype, const std::vector<In>& data,
                    int threads, int reps) {
  PointResult pt;
  pt.op = op_name;
  pt.workload = workload;
  pt.threads = threads;
  pt.elements = data.size();
  const auto expected = rs::red_result(
      rs::serial::reduce_state(std::span<const In>(data), Op(prototype)));
  ::setenv("RSMPI_LOCAL_THREADS", std::to_string(threads).c_str(), 1);
  mprt::CostModel model;
  model.compute_scale = 1.0;
  model.cores_per_rank = threads;
  double best = 0.0;
  bool identical = true;
  const auto wall0 = std::chrono::steady_clock::now();
  const auto result = mprt::run(
      1,
      [&](mprt::Comm& comm) {
        for (int rep = 0; rep < reps; ++rep) {
          comm.clock().reset();
          const Op folded = rs::reduce_state(
              comm, std::span<const In>(data), Op(prototype));
          const double t = comm.clock().now();
          if (rep == 0 || t < best) best = t;
          if (rs::red_result(folded) != expected) identical = false;
        }
      },
      model);
  const auto wall1 = std::chrono::steady_clock::now();
  pt.modelled_s = best;
  pt.modelled_elems_per_s =
      best > 0.0 ? static_cast<double>(data.size()) / best : 0.0;
  pt.wall_ms = std::chrono::duration<double, std::milli>(wall1 - wall0)
                   .count() /
               reps;
  pt.chunks = result.metrics[mprt::Metric::kParChunks] /
              static_cast<std::uint64_t>(reps);
  pt.steals = result.metrics[mprt::Metric::kParSteals];
  pt.identical = identical;
  return pt;
}

double json_field(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\": ";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return -1.0;
  return std::atof(line.c_str() + pos + needle.size());
}

bool json_has(const std::string& line, const char* key, const std::string& v) {
  return line.find(std::string("\"") + key + "\": \"" + v + "\"") !=
         std::string::npos;
}

/// Gates: every point bit-identical to the serial oracle; every point
/// at >= 4 threads keeps >= 75% of the baseline's speedup; Sum and
/// Histogram clear the 3x floor at 8 threads outright.  Absolute
/// elements/sec is machine-dependent and never gated.  Returns the
/// number of failures.
int check_against_baseline(const std::vector<PointResult>& points,
                           const char* baseline_path) {
  std::ifstream in(baseline_path);
  if (!in) {
    std::fprintf(stderr, "check: cannot open baseline %s\n", baseline_path);
    return 1;
  }
  struct Base {
    std::string op;
    int threads;
    double speedup;
  };
  std::vector<Base> baseline;
  std::string line;
  while (std::getline(in, line)) {
    const double threads = json_field(line, "threads");
    const double speedup = json_field(line, "speedup");
    if (threads <= 0 || speedup <= 0) continue;
    for (const char* op : {"sum", "histogram", "hll", "orderedword"}) {
      if (json_has(line, "op", op)) {
        baseline.push_back({op, static_cast<int>(threads), speedup});
      }
    }
  }
  int failures = 0;
  for (const PointResult& pt : points) {
    if (!pt.identical) {
      std::fprintf(stderr,
                   "check: DIVERGENCE op=%s threads=%d — parallel result "
                   "differs from the serial oracle\n",
                   pt.op.c_str(), pt.threads);
      ++failures;
    }
    if ((pt.op == "sum" || pt.op == "histogram") && pt.threads == 8) {
      if (pt.elements < 1000000) {
        std::fprintf(stderr, "check: op=%s measured at %zu < 1M elements\n",
                     pt.op.c_str(), pt.elements);
        ++failures;
      }
      if (pt.speedup < 3.0) {
        std::fprintf(stderr,
                     "check: FLOOR op=%s threads=8 speedup %.2fx < 3.0x\n",
                     pt.op.c_str(), pt.speedup);
        ++failures;
      }
    }
    const Base* match = nullptr;
    for (const Base& b : baseline) {
      if (b.op == pt.op && b.threads == pt.threads) match = &b;
    }
    if (match == nullptr) {
      std::fprintf(stderr, "check: no baseline point for op=%s threads=%d\n",
                   pt.op.c_str(), pt.threads);
      ++failures;
      continue;
    }
    const double limit = match->speedup * 0.75;
    if (pt.threads >= 4 && pt.speedup < limit) {
      std::fprintf(stderr,
                   "check: REGRESSION op=%s threads=%d speedup %.2fx < "
                   "baseline %.2fx * 0.75\n",
                   pt.op.c_str(), pt.threads, pt.speedup, match->speedup);
      ++failures;
    }
  }
  if (failures == 0) {
    std::fprintf(stderr,
                 "check: %zu points within 25%% of baseline speedups\n",
                 points.size());
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
  // The sweep is seconds even at full reps; --smoke only tags the JSON
  // so a CI artifact is never mistaken for the committed baseline.
  const int reps = 5;

  // NAS-IS-style workload: 1M uniform keys in [0, 2^19).
  constexpr std::size_t kIsElements = 1'000'000;
  std::vector<long> is_keys_long;
  std::vector<int> is_keys_int;
  is_keys_long.reserve(kIsElements);
  is_keys_int.reserve(kIsElements);
  {
    std::uint64_t s = 42;
    for (std::size_t i = 0; i < kIsElements; ++i) {
      const auto k = static_cast<int>(splitmix(s) % (1u << 19));
      is_keys_long.push_back(k);
      is_keys_int.push_back(k);
    }
  }
  std::vector<int> edges;
  for (int e = 0; e <= (1 << 19); e += (1 << 15)) edges.push_back(e);

  // Log-analytics workload: 1M events over ~200k distinct user ids, and
  // a 256k-token ordered stream for the noncommutative point.
  std::vector<std::uint64_t> user_ids;
  user_ids.reserve(kIsElements);
  {
    std::uint64_t s = 7;
    for (std::size_t i = 0; i < kIsElements; ++i) {
      user_ids.push_back(splitmix(s) % 200'000);
    }
  }
  std::vector<int> tokens;
  tokens.reserve(1u << 18);
  {
    std::uint64_t s = 11;
    for (std::size_t i = 0; i < (1u << 18); ++i) {
      tokens.push_back(static_cast<int>(splitmix(s) % 997));
    }
  }

  std::vector<PointResult> points;
  for (const int threads : kThreadSweep) {
    points.push_back(measure("sum", "nas_is", ops::Sum<long>{}, is_keys_long,
                             threads, reps));
    points.push_back(measure("histogram", "nas_is", ops::Histogram<int>(edges),
                             is_keys_int, threads, reps));
    points.push_back(measure("hll", "log_analytics",
                             ops::HyperLogLog<std::uint64_t>(12), user_ids,
                             threads, reps));
    points.push_back(measure("orderedword", "log_analytics",
                             verify::OrderedWord{}, tokens, threads, reps));
  }
  ::unsetenv("RSMPI_LOCAL_THREADS");

  // Speedups against each operator's threads=1 point.
  for (PointResult& pt : points) {
    for (const PointResult& base : points) {
      if (base.op == pt.op && base.threads == 1 && base.modelled_s > 0.0) {
        pt.speedup = base.modelled_s / pt.modelled_s;
      }
    }
  }

  std::printf("{\n  \"bench\": \"micro_local_accum\",\n");
  std::printf("  \"config\": {\"grain\": %zu, \"reps\": %d, \"smoke\": %s, "
              "\"cores_per_rank\": \"= threads\"},\n",
              par::kDefaultGrain, reps, smoke ? "true" : "false");
  std::printf("  \"points\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointResult& pt = points[i];
    std::printf(
        "    {\"op\": \"%s\", \"workload\": \"%s\", \"threads\": %d, "
        "\"elements\": %zu, \"modelled_elems_per_s\": %.6e, "
        "\"speedup\": %.4f, \"chunks\": %llu, \"steals\": %llu, "
        "\"wall_ms\": %.3f, \"identical\": %d}%s\n",
        pt.op.c_str(), pt.workload.c_str(), pt.threads, pt.elements,
        pt.modelled_elems_per_s, pt.speedup,
        static_cast<unsigned long long>(pt.chunks),
        static_cast<unsigned long long>(pt.steals), pt.wall_ms,
        pt.identical ? 1 : 0, i + 1 < points.size() ? "," : "");
  }
  std::printf("  ]\n}\n");

  std::fprintf(stderr, "%-12s %8s %10s %16s %9s %8s %8s\n", "op", "threads",
               "elements", "modelled el/s", "speedup", "chunks", "steals");
  for (const PointResult& pt : points) {
    std::fprintf(stderr, "%-12s %8d %10zu %16.3e %8.2fx %8llu %8llu%s\n",
                 pt.op.c_str(), pt.threads, pt.elements,
                 pt.modelled_elems_per_s, pt.speedup,
                 static_cast<unsigned long long>(pt.chunks),
                 static_cast<unsigned long long>(pt.steals),
                 pt.identical ? "" : "  DIVERGED");
  }

  if (baseline_path != nullptr) {
    return check_against_baseline(points, baseline_path) == 0 ? 0 : 1;
  }
  return 0;
}
