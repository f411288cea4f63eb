// Scale sweep for ISSUE 10: modelled critical path of the allreduce
// schedules at p ∈ {64, 256, 1024, 4096} on a two-tier cluster-of-SMPs
// cost model (8 ranks per node, infiniband-class fabric between nodes,
// shared memory inside, port contention when a whole node injects at
// once).  Every run is rank-virtualized: thousands of virtual ranks
// multiplex onto 8 OS-thread workers, which is what makes the p = 4096
// points tractable on a laptop at all.
//
// The story this bench pins down: flat schedules stop scaling once the
// fabric tier dominates — the ring drowns in latency, butterfly and
// Rabenseifner in port contention — while the two-level hierarchical
// schedule keeps only ~p/8 states on the expensive tier.  At p >= 256 the
// hierarchical critical path beats the best flat schedule on the
// contention-aware closed-form model and the autotuner picks it; at
// p = 64 the flat ring still wins and the autotuner stays there.  The
// ring is skipped above p = 256 in full mode (2·(p−1) physical hops per
// rank — tens of millions of messages at p = 4096 — for a schedule the
// model already prices out).
//
// Two kinds of numbers per point, and they deliberately differ: the
// *_model_us columns are the ScheduleCost closed forms (port contention
// included — what the autotuner minimizes), while the *_us columns are
// the simulator's virtual-clock makespans.  Per-rank virtual clocks share
// no state, so the simulator cannot charge one rank for a sibling's
// concurrent use of the node port — simulated flat butterfly/Rabenseifner
// makespans are therefore contention-free and optimistic at scale, and
// the autotuner knowingly trusts the richer closed form instead (see
// docs/schedules.md).  The headline acceptance metric,
// hierarchical_speedup_vs_best_flat, is computed on the model columns.
//
// Emits machine-readable JSON on stdout (committed as BENCH_scale.json
// from a full run) and a human table on stderr.  --smoke sweeps
// p ∈ {64, 256} for CI; every smoke point exists in the full baseline, so
// `--smoke --check BENCH_scale.json` gates the autotuned critical path at
// 5% in CI.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "mprt/cost_model.hpp"
#include "mprt/runtime.hpp"
#include "rs/ops/counts.hpp"
#include "rs/state_exchange.hpp"

namespace {

using namespace rsmpi;
namespace ops = rs::ops;
using mprt::Comm;
using rs::detail::Schedule;

constexpr int kRanksPerNode = 8;
constexpr int kWorkers = 8;
constexpr std::size_t kStateBytes = 64u << 10;  // bandwidth-relevant state
constexpr std::size_t kBuckets = kStateBytes / sizeof(long);

mprt::CostModel bench_model() {
  mprt::CostModel model = mprt::CostModel::cluster_of_smp(kRanksPerNode);
  model.compute_scale = 0.0;  // deterministic: communication charges only
  return model;
}

ops::Counts filled_counts(int rank) {
  ops::Counts op(kBuckets);
  for (int i = 0; i < 64; ++i) {
    op.accum(static_cast<int>((static_cast<std::size_t>(rank) * 7919 + i * 31) %
                              kBuckets));
  }
  return op;
}

struct ScheduleRow {
  const char* env_name;  // RSMPI_SCHEDULE value, nullptr = autotuned
  const char* json_key;
  int max_p;  // skip above this rank count (physical message explosion)
};

const ScheduleRow kRows[] = {
    {"two_message", "two_message_us", 1 << 30},
    {"butterfly", "butterfly_us", 1 << 30},
    {"rabenseifner", "rabenseifner_us", 1 << 30},
    {"ring", "ring_us", 256},
    {"hierarchical", "hierarchical_us", 1 << 30},
    {nullptr, "autotuned_us", 1 << 30},
};
constexpr std::size_t kNumFlat = 4;          // flat rows before hierarchical
constexpr std::size_t kHierarchicalIdx = 4;  // index of the hierarchical row
constexpr std::size_t kAutoIdx = 5;          // index of the autotuned row

/// Modelled critical path (seconds) of one allreduce at `p` virtual ranks
/// on kWorkers OS threads, with RSMPI_SCHEDULE pinned to `env_name` (or
/// cleared for the autotuned dispatch).  The env var changes only between
/// runs, never while rank fibers are live.
double measure(const char* env_name, int p) {
  if (env_name != nullptr) {
    ::setenv("RSMPI_SCHEDULE", env_name, /*overwrite=*/1);
  } else {
    ::unsetenv("RSMPI_SCHEDULE");
  }
  // Virtual time is fully deterministic at compute_scale = 0, so one rep
  // suffices even at p = 4096.
  const double t = bench::time_phase(
      p, bench_model(), [&](Comm&) {},
      [&](Comm& comm) {
        auto op = filled_counts(comm.rank());
        rs::detail::state_allreduce(comm, op);
      },
      /*reps=*/1, mprt::ExecPolicy{/*workers=*/kWorkers, /*stack_bytes=*/0});
  ::unsetenv("RSMPI_SCHEDULE");
  return t;
}

const char* schedule_name(Schedule s) {
  switch (s) {
    case Schedule::kTwoMessage: return "two_message";
    case Schedule::kButterfly: return "butterfly";
    case Schedule::kRabenseifner: return "rabenseifner";
    case Schedule::kRing: return "ring";
    case Schedule::kPipelined: return "pipelined";
    case Schedule::kHierarchical: return "hierarchical";
    case Schedule::kAuto: break;
  }
  return "auto";
}

const char* kModelKeys[] = {
    "two_message_model_us", "butterfly_model_us", "rabenseifner_model_us",
    "ring_model_us",        "pipelined_model_us", "hierarchical_model_us",
};
constexpr std::size_t kNumFlatModels = 5;  // entries before hierarchical
constexpr std::size_t kHierModelIdx = 5;

struct Point {
  int p = 0;
  double us[6] = {};        // simulated makespans per kRows order; -1 skipped
  double model_us[6] = {};  // closed-form predictions per kModelKeys order
  const char* choice = "auto";
  double best_flat_model_us = 0.0;
  double hierarchical_speedup_vs_best_flat = 0.0;  // on the model columns
};

Point measure_point(int p) {
  Point pt;
  pt.p = p;
  for (std::size_t i = 0; i < std::size(kRows); ++i) {
    pt.us[i] = p <= kRows[i].max_p ? measure(kRows[i].env_name, p) * 1e6 : -1.0;
  }
  using SC = mprt::ScheduleCost;
  const auto model = bench_model();
  pt.model_us[0] = SC::two_message(model, p, kStateBytes) * 1e6;
  pt.model_us[1] = SC::butterfly(model, p, kStateBytes) * 1e6;
  pt.model_us[2] = SC::rabenseifner(model, p, kStateBytes) * 1e6;
  pt.model_us[3] = SC::ring(model, p, kStateBytes) * 1e6;
  pt.model_us[4] = SC::pipelined_tree_allreduce(
                       model, p, kStateBytes,
                       rs::detail::kDefaultSegmentBytes) * 1e6;
  pt.model_us[5] = SC::hierarchical(model, p, kStateBytes) * 1e6;
  pt.best_flat_model_us = pt.model_us[0];
  for (std::size_t i = 1; i < kNumFlatModels; ++i) {
    if (pt.model_us[i] < pt.best_flat_model_us) {
      pt.best_flat_model_us = pt.model_us[i];
    }
  }
  pt.hierarchical_speedup_vs_best_flat =
      pt.best_flat_model_us / pt.model_us[kHierModelIdx];
  pt.choice = schedule_name(rs::detail::choose_allreduce_schedule(
      bench_model(), p, kStateBytes, rs::detail::kDefaultSegmentBytes));
  return pt;
}

// --- baseline check ---------------------------------------------------------

/// Extracts the number following `"key": ` in `line`, or -1 if absent.
double json_field(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\": ";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return -1.0;
  return std::atof(line.c_str() + pos + needle.size());
}

/// Compares each measured point's autotuned critical path against the
/// committed baseline; returns the number of points regressing > 5%.
int check_against_baseline(const std::vector<Point>& points,
                           const char* baseline_path) {
  std::ifstream in(baseline_path);
  if (!in) {
    std::fprintf(stderr, "check: cannot open baseline %s\n", baseline_path);
    return 1;
  }
  struct Base {
    int p;
    double autotuned_us;
  };
  std::vector<Base> baseline;
  std::string line;
  while (std::getline(in, line)) {
    const double p = json_field(line, "p");
    const double us = json_field(line, "autotuned_us");
    if (p > 0 && us > 0) {
      baseline.push_back({static_cast<int>(p), us});
    }
  }
  int failures = 0;
  for (const Point& pt : points) {
    const Base* match = nullptr;
    for (const Base& b : baseline) {
      if (b.p == pt.p) match = &b;
    }
    if (match == nullptr) {
      std::fprintf(stderr, "check: no baseline point for p=%d\n", pt.p);
      ++failures;
      continue;
    }
    const double limit = match->autotuned_us * 1.05;
    if (pt.us[kAutoIdx] > limit) {
      std::fprintf(stderr,
                   "check: REGRESSION p=%d autotuned %.1f us > baseline "
                   "%.1f us * 1.05\n",
                   pt.p, pt.us[kAutoIdx], match->autotuned_us);
      ++failures;
    }
  }
  if (failures == 0) {
    std::fprintf(stderr, "check: %zu points within 5%% of baseline\n",
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

  const std::vector<int> procs = smoke ? std::vector<int>{64, 256}
                                       : std::vector<int>{64, 256, 1024, 4096};
  const auto model = bench_model();

  std::vector<Point> points;
  std::fprintf(stderr, "== allreduce schedules at scale (%zu-byte state, "
               "%d ranks/node, %d workers) ==\n",
               kStateBytes, kRanksPerNode, kWorkers);
  std::fprintf(stderr, "-- simulated makespans (us; no port contention) --\n");
  std::fprintf(stderr, "%6s %12s %12s %12s %12s %12s %12s  %s\n", "p",
               "two_msg", "butterfly", "rabenseif", "ring", "hierarch",
               "autotuned", "choice");
  for (const int p : procs) {
    const Point pt = measure_point(p);
    std::fprintf(stderr,
                 "%6d %12.1f %12.1f %12.1f %12.1f %12.1f %12.1f  %s\n", pt.p,
                 pt.us[0], pt.us[1], pt.us[2], pt.us[3], pt.us[4], pt.us[5],
                 pt.choice);
    points.push_back(pt);
  }
  std::fprintf(stderr,
               "-- closed-form model (us; contention-aware, what the "
               "autotuner minimizes) --\n");
  std::fprintf(stderr, "%6s %12s %12s %12s %12s %12s %12s  %s\n", "p",
               "two_msg", "butterfly", "rabenseif", "ring", "pipelined",
               "hierarch", "hier_speedup");
  for (const Point& pt : points) {
    std::fprintf(stderr,
                 "%6d %12.1f %12.1f %12.1f %12.1f %12.1f %12.1f  %.2fx\n",
                 pt.p, pt.model_us[0], pt.model_us[1], pt.model_us[2],
                 pt.model_us[3], pt.model_us[4], pt.model_us[5],
                 pt.hierarchical_speedup_vs_best_flat);
  }

  std::printf("{\n");
  std::printf("  \"bench\": \"micro_scale\",\n");
  std::printf("  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::printf("  \"operator\": \"Counts(%zu)\",\n", kBuckets);
  std::printf("  \"state_bytes\": %zu,\n", kStateBytes);
  std::printf("  \"workers\": %d,\n", kWorkers);
  std::printf("  \"cost_model\": {\"ranks_per_node\": %d, \"latency_s\": %g, "
              "\"per_byte_s\": %g, \"intra_latency_s\": %g, "
              "\"intra_per_byte_s\": %g, \"inter_gap_s\": %g},\n",
              model.ranks_per_node, model.latency_s, model.per_byte_s,
              model.intra_latency_s, model.intra_per_byte_s, model.inter_gap_s);
  std::printf("  \"points\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& pt = points[i];
    std::printf("    {\"p\": %d", pt.p);
    for (std::size_t k = 0; k < std::size(kRows); ++k) {
      std::printf(", \"%s\": %.3f", kRows[k].json_key, pt.us[k]);
    }
    for (std::size_t k = 0; k < std::size(kModelKeys); ++k) {
      std::printf(", \"%s\": %.3f", kModelKeys[k], pt.model_us[k]);
    }
    std::printf(", \"autotuned_choice\": \"%s\", \"best_flat_model_us\": %.3f, "
                "\"hierarchical_speedup_vs_best_flat\": %.4f}%s\n",
                pt.choice, pt.best_flat_model_us,
                pt.hierarchical_speedup_vs_best_flat,
                i + 1 < points.size() ? "," : "");
  }
  std::printf("  ]\n");
  std::printf("}\n");

  if (baseline_path != nullptr) {
    return check_against_baseline(points, baseline_path) == 0 ? 0 : 1;
  }
  return 0;
}
