// TSQR micro bench: tall-skinny QR reduction through the state-exchange
// layer, swept over machine size p x panel width (cols).
//
// Each point runs the production path (pool accumulate + auto state
// exchange) for timing, then replays the same inputs through every
// blocking schedule name, the pipelined tree at several segment sizes,
// and the auto dispatch, comparing all of them bitwise against the
// binomial-fold oracle.  Reported per point:
//
//   * modelled_rows_per_s — global rows absorbed over the slowest rank's
//     virtual-clock charge.  Machine-dependent, informational, never
//     gated.
//   * schedules_identical — every (schedule, segment size, rank) final
//     state byte-identical to verify::binomial_fold of the per-rank
//     states.  Gated by --check: any divergence fails immediately.
//   * orth_err / rel_residual — ||Q^T Q - I||_max and ||A - QR|| / ||A||
//     for Q manufactured from the reduced R over the full stacked input.
//     Gated by --check against tol = 100 * eps * cols (the same gate
//     tests/rs/tsqr_test.cpp applies).  The inputs are exact small
//     rationals and the sim is deterministic, so these are
//     machine-portable.
//
// Emits JSON on stdout (committed as BENCH_tsqr.json from a full run)
// and a human summary on stderr.  --smoke cuts reps for CI; every smoke
// point exists in the full baseline, so --check also verifies baseline
// coverage.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "mprt/runtime.hpp"
#include "rs/ops/tsqr.hpp"
#include "rs/reduce.hpp"
#include "rs/serial.hpp"
#include "rs/state_exchange.hpp"
#include "util/dense_qr.hpp"
#include "verify/registry.hpp"

namespace {

using namespace rsmpi;
namespace ops = rs::ops;
namespace qr = util::qr;
using rs::save_op;
using rs::detail::Schedule;

/// Exact small rationals (|value| < 14, denominator 8): every absorb and
/// rotation rounds identically on any IEEE 754 platform, which is what
/// makes the residual columns of the committed baseline portable.
std::vector<double> make_row(int rank, std::size_t i, std::size_t cols) {
  std::vector<double> row(cols);
  for (std::size_t c = 0; c < cols; ++c) {
    const int t = rank * 131 + static_cast<int>(i) * 31 + static_cast<int>(c) * 7;
    row[c] = static_cast<double>(t % 211) / 8.0 - 13.0;
  }
  return row;
}

struct PointResult {
  int p = 0;
  std::size_t cols = 0;
  std::size_t rows_per_rank = 0;
  double modelled_s = 0.0;
  double modelled_rows_per_s = 0.0;
  double wall_ms = 0.0;
  double orth_err = 0.0;
  double rel_residual = 0.0;
  double tol = 0.0;
  bool schedules_identical = true;
};

/// One (p, cols) point: timed production reduce, bitwise schedule sweep,
/// and the numerical gate over the stacked input.
PointResult measure(int p, std::size_t rows_per_rank, std::size_t cols,
                    int reps) {
  PointResult pt;
  pt.p = p;
  pt.cols = cols;
  pt.rows_per_rank = rows_per_rank;
  pt.tol = 100.0 * std::numeric_limits<double>::epsilon() *
           static_cast<double>(cols);

  std::vector<std::vector<std::vector<double>>> local(
      static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    for (std::size_t i = 0; i < rows_per_rank; ++i) {
      local[static_cast<std::size_t>(r)].push_back(make_row(r, i, cols));
    }
  }

  // The ordered-schedule oracle: per-rank serial states folded along the
  // binomial reduce tree's bracketing.
  std::vector<ops::TSQR> states;
  for (int r = 0; r < p; ++r) {
    ops::TSQR s(cols);
    for (const auto& row : local[static_cast<std::size_t>(r)]) s.accum(row);
    states.push_back(std::move(s));
  }
  const ops::TSQR oracle = verify::binomial_fold(std::move(states));
  const auto expected = save_op(oracle);

  // Timed production path: pool accumulate + auto exchange; best-of-reps
  // on the slowest rank's virtual clock.
  double best = 0.0;
  const auto wall0 = std::chrono::steady_clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<double> clock(static_cast<std::size_t>(p), 0.0);
    mprt::run(p, [&](mprt::Comm& comm) {
      const auto r = static_cast<std::size_t>(comm.rank());
      const ops::TSQR state =
          rs::reduce_state(comm, local[r], ops::TSQR(cols));
      clock[r] = comm.clock().now();
      if (save_op(state) != expected) pt.schedules_identical = false;
    });
    const double slowest = *std::max_element(clock.begin(), clock.end());
    if (rep == 0 || slowest < best) best = slowest;
  }
  const auto wall1 = std::chrono::steady_clock::now();
  pt.modelled_s = best;
  pt.modelled_rows_per_s =
      best > 0.0
          ? static_cast<double>(rows_per_rank) * static_cast<double>(p) / best
          : 0.0;
  pt.wall_ms =
      std::chrono::duration<double, std::milli>(wall1 - wall0).count() / reps;

  // Bitwise sweep: every schedule name (the dispatch must route each to
  // the order-preserving path), plus the pipelined panel stream at
  // single-column, odd, and whole-state segment sizes.
  const Schedule schedules[] = {Schedule::kTwoMessage, Schedule::kButterfly,
                                Schedule::kRabenseifner, Schedule::kRing,
                                Schedule::kPipelined};
  for (const Schedule sched : schedules) {
    mprt::run(p, [&](mprt::Comm& comm) {
      ops::TSQR op(cols);
      for (const auto& row : local[static_cast<std::size_t>(comm.rank())]) {
        op.accum(row);
      }
      rs::detail::state_allreduce_with_schedule(comm, op, sched,
                                                /*segment_bytes=*/24,
                                                /*commutative=*/false);
      if (save_op(op) != expected) pt.schedules_identical = false;
    });
  }
  for (const std::size_t segment_bytes :
       {std::size_t{8}, std::size_t{56}, std::size_t{4096}}) {
    mprt::run(p, [&](mprt::Comm& comm) {
      ops::TSQR op(cols);
      for (const auto& row : local[static_cast<std::size_t>(comm.rank())]) {
        op.accum(row);
      }
      rs::detail::state_allreduce_pipelined(comm, op, segment_bytes);
      if (save_op(op) != expected) pt.schedules_identical = false;
    });
  }

  // Numerical gate over the full stacked matrix, rank-major.
  const std::size_t rows = rows_per_rank * static_cast<std::size_t>(p);
  std::vector<double> a;
  a.reserve(rows * cols);
  for (int r = 0; r < p; ++r) {
    for (const auto& row : local[static_cast<std::size_t>(r)]) {
      a.insert(a.end(), row.begin(), row.end());
    }
  }
  const std::vector<double> r_dense = oracle.gen().dense();
  const std::vector<double> q = qr::solve_q(rows, cols, a, r_dense);
  pt.orth_err = qr::orthogonality_error(qr::QrFactors{rows, cols, q, r_dense});
  pt.rel_residual = qr::relative_residual(rows, cols, a, q, r_dense);
  return pt;
}

double json_field(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\": ";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return -1.0;
  return std::atof(line.c_str() + pos + needle.size());
}

/// Gates — all machine-portable, no raw throughput:
///   * every point's schedule sweep bitwise identical to the oracle;
///   * orth_err and rel_residual within 100 * eps * cols;
///   * a baseline point exists for every measured (p, cols) — a smoke
///     sweep that drifts out of the committed baseline is a config bug.
/// Returns the number of failures.
int check_against_baseline(const std::vector<PointResult>& points,
                           const char* baseline_path) {
  std::ifstream in(baseline_path);
  if (!in) {
    std::fprintf(stderr, "check: cannot open baseline %s\n", baseline_path);
    return 1;
  }
  struct Base {
    int p;
    std::size_t cols;
  };
  std::vector<Base> baseline;
  std::string line;
  while (std::getline(in, line)) {
    const double p = json_field(line, "p");
    const double cols = json_field(line, "cols");
    if (p > 0 && cols > 0) {
      baseline.push_back({static_cast<int>(p), static_cast<std::size_t>(cols)});
    }
  }
  int failures = 0;
  for (const PointResult& pt : points) {
    if (!pt.schedules_identical) {
      std::fprintf(stderr,
                   "check: DIVERGENCE p=%d cols=%zu — a schedule's bytes "
                   "differ from the binomial-fold oracle\n",
                   pt.p, pt.cols);
      ++failures;
    }
    if (pt.orth_err > pt.tol) {
      std::fprintf(stderr,
                   "check: ORTHOGONALITY p=%d cols=%zu %.3e > tol %.3e\n",
                   pt.p, pt.cols, pt.orth_err, pt.tol);
      ++failures;
    }
    if (pt.rel_residual > pt.tol) {
      std::fprintf(stderr, "check: RESIDUAL p=%d cols=%zu %.3e > tol %.3e\n",
                   pt.p, pt.cols, pt.rel_residual, pt.tol);
      ++failures;
    }
    bool covered = false;
    for (const Base& b : baseline) {
      if (b.p == pt.p && b.cols == pt.cols) covered = true;
    }
    if (!covered) {
      std::fprintf(stderr, "check: no baseline point for p=%d cols=%zu\n",
                   pt.p, pt.cols);
      ++failures;
    }
  }
  if (failures == 0) {
    std::fprintf(stderr,
                 "check: %zu points bitwise-pinned and within 100*eps*cols\n",
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
  // --smoke trims timing reps only; the (p, cols, rows) grid is identical
  // to the full run so the residual columns match the committed baseline
  // exactly and coverage checking stays meaningful.
  const int reps = smoke ? 1 : 5;
  constexpr std::size_t kRowsPerRank = 64;

  std::vector<PointResult> points;
  for (const int p : {2, 4, 8, 16}) {
    for (const std::size_t cols : {std::size_t{4}, std::size_t{8},
                                   std::size_t{16}}) {
      points.push_back(measure(p, kRowsPerRank, cols, reps));
    }
  }

  std::printf("{\n  \"bench\": \"micro_tsqr\",\n");
  std::printf("  \"config\": {\"rows_per_rank\": %zu, \"reps\": %d, "
              "\"smoke\": %s},\n",
              kRowsPerRank, reps, smoke ? "true" : "false");
  std::printf("  \"points\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointResult& pt = points[i];
    std::printf(
        "    {\"p\": %d, \"cols\": %zu, \"rows_per_rank\": %zu, "
        "\"modelled_rows_per_s\": %.6e, \"wall_ms\": %.3f, "
        "\"orth_err\": %.6e, \"rel_residual\": %.6e, \"tol\": %.6e, "
        "\"schedules_identical\": %d}%s\n",
        pt.p, pt.cols, pt.rows_per_rank, pt.modelled_rows_per_s, pt.wall_ms,
        pt.orth_err, pt.rel_residual, pt.tol, pt.schedules_identical ? 1 : 0,
        i + 1 < points.size() ? "," : "");
  }
  std::printf("  ]\n}\n");

  std::fprintf(stderr, "%4s %6s %10s %16s %12s %12s %10s\n", "p", "cols",
               "rows", "modelled rows/s", "orth_err", "residual", "bitwise");
  for (const PointResult& pt : points) {
    std::fprintf(stderr, "%4d %6zu %10zu %16.3e %12.3e %12.3e %10s\n", pt.p,
                 pt.cols, pt.rows_per_rank * static_cast<std::size_t>(pt.p),
                 pt.modelled_rows_per_s, pt.orth_err, pt.rel_residual,
                 pt.schedules_identical ? "pinned" : "DIVERGED");
  }

  if (baseline_path != nullptr) {
    return check_against_baseline(points, baseline_path) == 0 ? 0 : 1;
  }
  return 0;
}
