// Bitwise reproducibility of floating-point operator states (ISSUE 9
// satellite): with RSMPI_LOCAL_CHUNKED=1 pinning the canonical chunked
// local fold, the same (extent, RSMPI_LOCAL_GRAIN, schedule) must yield
// byte-identical reduction states
//
//   * across repeated runs (10x — no hidden dependence on wall time,
//     allocation addresses, or scheduler noise), and
//   * across pool widths RSMPI_LOCAL_THREADS in {1, 2, 8} — chunk
//     boundaries and the ascending-chunk merge are functions of
//     (extent, grain) only, never of which worker ran which chunk.
//
// Every floating-point-state operator in the library is covered: MeanVar
// (Chan combine), KahanSum (compensated carry), and TSQR (Givens R-factor
// merge, noncommutative).  States are compared as serialized bytes, not
// through operator==, so -0.0/NaN coincidences cannot mask a drift.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <string>
#include <vector>

#include "mprt/runtime.hpp"
#include "rs/ops/ops.hpp"
#include "rs/reduce.hpp"
#include "util/bytes.hpp"

namespace {

using namespace rsmpi;
namespace ops = rs::ops;
using mprt::Comm;
using rs::save_op;

constexpr int kRanks = 4;
constexpr std::size_t kExtent = 300;  // per rank; grain 97 -> 4 uneven chunks

/// Scoped environment variable (see segmented_schedule_test.cpp): set on
/// construction, unset on destruction.  No runs may be in flight while
/// the value changes — ranks read the environment during dispatch.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~EnvGuard() { ::unsetenv(name_); }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
};

/// Deterministic, platform-exact double: a small rational whose division
/// rounds the same way under IEEE 754 everywhere.
double sample(int rank, std::size_t i) {
  return static_cast<double>((static_cast<int>(i) * 31 + rank * 17) % 1001) /
             7.0 -
         50.0;
}

/// One production reduction (pool accumulate + state exchange) under the
/// ambient env knobs; returns every rank's serialized reduced state.
/// Ranks may legitimately disagree with each other under pairing-order
/// schedules (the butterfly rounds differently per rank) — the
/// reproducibility claim is that the *whole per-rank vector* is identical
/// across runs and pool widths, not that ranks agree.
template <typename Op, typename In>
std::vector<std::vector<std::byte>> run_once(
    const std::vector<std::vector<In>>& local, const Op& prototype) {
  std::vector<std::vector<std::byte>> bytes(kRanks);
  mprt::run(kRanks, [&](Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    Op state = rs::reduce_state(comm, local[r], prototype);
    bytes[r] = save_op(state);
  });
  return bytes;
}

/// The reproducibility matrix: byte-identity across 10 repeats at one
/// width and across the width sweep, at fixed grain and schedule.
template <typename Op, typename In>
void expect_reproducible(const std::vector<std::vector<In>>& local,
                         const Op& prototype) {
  EnvGuard chunked("RSMPI_LOCAL_CHUNKED", "1");
  EnvGuard grain("RSMPI_LOCAL_GRAIN", "97");
  std::vector<std::vector<std::byte>> reference;
  {
    EnvGuard threads("RSMPI_LOCAL_THREADS", "1");
    reference = run_once(local, prototype);
  }
  for (const char* width : {"1", "2", "8"}) {
    EnvGuard threads("RSMPI_LOCAL_THREADS", width);
    const int repeats = std::string(width) == "2" ? 10 : 3;
    for (int rep = 0; rep < repeats; ++rep) {
      EXPECT_EQ(run_once(local, prototype), reference)
          << "width " << width << " repeat " << rep
          << " diverged from the width-1 reference";
    }
  }
}

std::vector<std::vector<double>> scalar_inputs() {
  std::vector<std::vector<double>> local(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    for (std::size_t i = 0; i < kExtent; ++i) {
      local[static_cast<std::size_t>(r)].push_back(sample(r, i));
    }
  }
  return local;
}

TEST(Reproducibility, MeanVarAcrossRunsAndWidths) {
  expect_reproducible(scalar_inputs(), ops::MeanVar{});
}

TEST(Reproducibility, KahanSumAcrossRunsAndWidths) {
  expect_reproducible(scalar_inputs(), ops::KahanSum{});
}

// Same claim under a pinned segmented schedule: the env override must not
// reintroduce width dependence (the exchange never sees the pool, but the
// knob plumbing is worth pinning once).
TEST(Reproducibility, MeanVarUnderForcedRingSchedule) {
  EnvGuard sched("RSMPI_SCHEDULE", "ring");
  expect_reproducible(scalar_inputs(), ops::MeanVar{});
}

TEST(Reproducibility, TsqrAcrossRunsAndWidths) {
  constexpr std::size_t kCols = 5;
  std::vector<std::vector<std::vector<double>>> local(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    for (std::size_t i = 0; i < kExtent; ++i) {
      std::vector<double> row(kCols);
      for (std::size_t c = 0; c < kCols; ++c) {
        row[c] = sample(r, i * kCols + c);
      }
      local[static_cast<std::size_t>(r)].push_back(std::move(row));
    }
  }
  expect_reproducible(local, ops::TSQR(kCols));
}

// The knob's contract at width 1: RSMPI_LOCAL_CHUNKED unset keeps the
// pre-pool serial loop bitwise (compensation never split), while =1
// switches to the canonical chunked fold — the same bits any wider pool
// produces (asserted against width 8 by the matrix tests above).
TEST(Reproducibility, ChunkedKnobMatchesPlainSerialWhenOff) {
  EnvGuard grain("RSMPI_LOCAL_GRAIN", "97");
  EnvGuard threads("RSMPI_LOCAL_THREADS", "1");
  const auto local = scalar_inputs();
  ops::KahanSum serial;
  for (const double v : local[0]) serial.accum(v);

  std::vector<std::byte> reduced;
  mprt::run(1, [&](Comm& comm) {
    ops::KahanSum state = rs::reduce_state(comm, local[0], ops::KahanSum{});
    reduced = save_op(state);
  });
  EXPECT_EQ(reduced, save_op(serial));
}

}  // namespace
