// Determinism and correctness suite for the work-stealing parallel local
// accumulate (src/par/).
//
// The load-bearing claim: with the pool enabled, every reduction is
// *bit-identical* to the serial loop — for every operator in the zoo
// (commutative and noncommutative), at every pool width and grain,
// independent of the stealing schedule.  The suite checks that claim
// across worker counts {1, 2, 3, 8} x grains {1, 64, extent+1} (the last
// forces the serial fallback), plus the boundary-hook exactly-once
// contract, empty/single-element edges, raw do_all coverage, forced
// stealing, exception propagation, and the RunResult counter plumbing.
//
// The TSAN CI job re-runs this binary with RSMPI_LOCAL_THREADS=4 so the
// pool's deques and completion protocol are race-checked on every push;
// the suite also sweeps the env vars itself, so it exercises parallel
// paths under any outer environment.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "mprt/runtime.hpp"
#include "par/accumulate.hpp"
#include "par/do_all.hpp"
#include "par/pool.hpp"
#include "rs/ops/basic.hpp"
#include "rs/ops/concat.hpp"
#include "rs/ops/counts.hpp"
#include "rs/ops/histogram.hpp"
#include "rs/ops/maxsubarray.hpp"
#include "rs/ops/mink.hpp"
#include "rs/ops/sketches.hpp"
#include "rs/reduce.hpp"
#include "rs/scan.hpp"
#include "rs/serial.hpp"
#include "svc/persistent.hpp"
#include "verify/checker.hpp"

namespace {

using namespace rsmpi;
using namespace rsmpi::rs;

/// Scoped environment override, restoring the previous value on exit so
/// sweeps cannot leak into later tests.
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

constexpr int kThreadSweep[] = {1, 2, 3, 8};

std::uint64_t splitmix(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Accumulates `input` through rs::reduce on one rank for every (pool
/// width, grain) in the sweep and expects the generated result to equal
/// the serial oracle's, exactly.
template <typename Op, typename In>
void check_zoo_op(const std::string& label, const Op& prototype,
                  const std::vector<In>& input) {
  const auto expected =
      red_result(serial::reduce_state(std::span<const In>(input), Op(prototype)));
  for (const int threads : kThreadSweep) {
    for (const std::size_t grain :
         {std::size_t{1}, std::size_t{64}, input.size() + 1}) {
      EnvGuard tg("RSMPI_LOCAL_THREADS", std::to_string(threads));
      EnvGuard gg("RSMPI_LOCAL_GRAIN", std::to_string(grain));
      mprt::run(1, [&](mprt::Comm& comm) {
        const auto got =
            rs::reduce(comm, std::span<const In>(input), Op(prototype));
        EXPECT_EQ(got, expected)
            << label << " threads=" << threads << " grain=" << grain;
      });
    }
  }
}

TEST(ParDeterminism, SumBitIdenticalAcrossThreadsAndGrains) {
  std::vector<long> input;
  std::uint64_t s = 1;
  for (int i = 0; i < 4000; ++i) {
    input.push_back(static_cast<long>(splitmix(s) % 1000) - 500);
  }
  check_zoo_op("Sum<long>", ops::Sum<long>{}, input);
}

TEST(ParDeterminism, MinMaxBitIdenticalAcrossThreadsAndGrains) {
  std::vector<int> input;
  std::uint64_t s = 2;
  for (int i = 0; i < 4000; ++i) {
    input.push_back(static_cast<int>(splitmix(s) % 100000) - 50000);
  }
  check_zoo_op("Min<int>", ops::Min<int>{}, input);
  check_zoo_op("Max<int>", ops::Max<int>{}, input);
}

TEST(ParDeterminism, CountsBitIdenticalAcrossThreadsAndGrains) {
  std::vector<int> input;
  std::uint64_t s = 3;
  for (int i = 0; i < 4000; ++i) {
    input.push_back(static_cast<int>(splitmix(s) % 8));
  }
  check_zoo_op("Counts(8)", ops::Counts(8), input);
}

TEST(ParDeterminism, ConcatNoncommutativeBitIdentical) {
  std::vector<char> input;
  std::uint64_t s = 4;
  for (int i = 0; i < 4000; ++i) {
    input.push_back(static_cast<char>('a' + splitmix(s) % 26));
  }
  check_zoo_op("Concat", ops::Concat{}, input);
}

TEST(ParDeterminism, MinKBitIdenticalAcrossThreadsAndGrains) {
  std::vector<int> input;
  std::uint64_t s = 5;
  for (int i = 0; i < 4000; ++i) {
    input.push_back(static_cast<int>(splitmix(s) % 1000000));
  }
  check_zoo_op("MinK<int>(4)", ops::MinK<int>(4), input);
}

TEST(ParDeterminism, HistogramBitIdenticalAcrossThreadsAndGrains) {
  std::vector<int> input;
  std::uint64_t s = 6;
  for (int i = 0; i < 4000; ++i) {
    input.push_back(static_cast<int>(splitmix(s) % 128));
  }
  check_zoo_op("Histogram<int>", ops::Histogram<int>({0, 32, 64, 96, 128}),
               input);
}

TEST(ParDeterminism, MaxSubarrayNoncommutativeBitIdentical) {
  std::vector<long> input;
  std::uint64_t s = 7;
  for (int i = 0; i < 4000; ++i) {
    input.push_back(static_cast<long>(splitmix(s) % 101) - 50);
  }
  check_zoo_op("MaxSubarray<long>", ops::MaxSubarray<long>{}, input);
}

TEST(ParDeterminism, HyperLogLogBitIdenticalAcrossThreadsAndGrains) {
  std::vector<std::uint64_t> input;
  std::uint64_t s = 8;
  for (int i = 0; i < 4000; ++i) input.push_back(splitmix(s) % 1500);
  check_zoo_op("HyperLogLog(10)", ops::HyperLogLog<std::uint64_t>(10), input);
}

TEST(ParDeterminism, OrderedWordNoncommutativeBitIdentical) {
  // OrderedWord concatenates "<token>" per element — any chunk
  // misordering, duplication, or loss changes the word.  The strongest
  // single witness that the chunk-state merge preserves the serial
  // association exactly.
  std::vector<int> input;
  std::uint64_t s = 9;
  for (int i = 0; i < 2000; ++i) {
    input.push_back(static_cast<int>(splitmix(s) % 997));
  }
  check_zoo_op("OrderedWord", verify::OrderedWord{}, input);
}

TEST(ParDeterminism, CanonSetBitIdenticalAcrossThreadsAndGrains) {
  std::vector<int> input;
  std::uint64_t s = 13;
  for (int i = 0; i < 2000; ++i) {
    input.push_back(static_cast<int>(splitmix(s) % 200));  // heavy dedup
  }
  check_zoo_op("CanonSet", verify::CanonSet{}, input);
}

TEST(ParDeterminism, TsqrCanonicalChunkedAcrossWidths) {
  // TSQR's combine is bitwise nonassociative, so the pooled result equals
  // the *canonical chunked fold* — identity clones per chunk, merged in
  // ascending chunk order — not the plain serial accum loop.  That fold
  // is a function of (extent, grain) only: every pool width >= 2 must
  // reproduce its bits exactly, and width 1 joins them under
  // RSMPI_LOCAL_CHUNKED=1 (ISSUE 9).
  constexpr std::size_t kCols = 4;
  constexpr std::size_t kGrain = 64;
  std::vector<std::vector<double>> rows;
  std::uint64_t s = 14;
  for (int i = 0; i < 1000; ++i) {
    std::vector<double> row(kCols);
    for (auto& v : row) {
      v = static_cast<double>(splitmix(s) % 4001) / 16.0 - 125.0;
    }
    rows.push_back(std::move(row));
  }

  ops::TSQR oracle(kCols);
  for (std::size_t lo = 0; lo < rows.size(); lo += kGrain) {
    ops::TSQR chunk(kCols);
    for (std::size_t i = lo; i < std::min(rows.size(), lo + kGrain); ++i) {
      chunk.accum(rows[i]);
    }
    oracle.combine(chunk);
  }
  const auto expected = save_op(oracle);

  EnvGuard cg("RSMPI_LOCAL_CHUNKED", "1");
  EnvGuard gg("RSMPI_LOCAL_GRAIN", std::to_string(kGrain));
  for (const int threads : kThreadSweep) {
    EnvGuard tg("RSMPI_LOCAL_THREADS", std::to_string(threads));
    mprt::run(1, [&](mprt::Comm& comm) {
      const ops::TSQR got = rs::reduce_state(
          comm, std::span<const std::vector<double>>(rows), ops::TSQR(kCols));
      EXPECT_EQ(save_op(got), expected) << "threads=" << threads;
    });
  }
}

// Satellite 6: the shared verify registry drives this tier too — a new
// zoo operator without a ParDeterminism witness fails here.
TEST(ParDeterminism, EveryRegistryOpIsCovered) {
  const std::vector<std::string> covered = {"counts", "word", "canon", "tsqr"};
  for (const std::string& name : verify::zoo_names()) {
    EXPECT_TRUE(std::find(covered.begin(), covered.end(), name) !=
                covered.end())
        << "registry operator '" << name
        << "' has no witness in the par determinism suite";
  }
}

TEST(ParDeterminism, CrossRankReductionMatchesSerialWithPool) {
  // p = 3 with the pool active on every rank: parallel local accumulate
  // composed with the cross-rank combine phase, noncommutative included.
  std::vector<int> input;
  std::uint64_t s = 10;
  for (int i = 0; i < 3000; ++i) {
    input.push_back(static_cast<int>(splitmix(s) % 128));
  }
  const auto expected_hist = red_result(serial::reduce_state(
      std::span<const int>(input), ops::Histogram<int>({0, 32, 64, 96, 128})));
  const auto expected_word = red_result(
      serial::reduce_state(std::span<const int>(input), verify::OrderedWord{}));
  EnvGuard tg("RSMPI_LOCAL_THREADS", "8");
  EnvGuard gg("RSMPI_LOCAL_GRAIN", "16");
  mprt::run(3, [&](mprt::Comm& comm) {
    const std::size_t lo = input.size() * static_cast<std::size_t>(comm.rank()) / 3;
    const std::size_t hi =
        input.size() * (static_cast<std::size_t>(comm.rank()) + 1) / 3;
    const auto slice = std::span<const int>(input).subspan(lo, hi - lo);
    EXPECT_EQ(rs::reduce(comm, slice, ops::Histogram<int>({0, 32, 64, 96, 128})),
              expected_hist);
    EXPECT_EQ(rs::reduce(comm, slice, verify::OrderedWord{}), expected_word);
  });
}

TEST(ParDeterminism, ScanMatchesSerialOracleWithPool) {
  std::vector<int> input;
  std::uint64_t s = 11;
  for (int i = 0; i < 1200; ++i) {
    input.push_back(static_cast<int>(splitmix(s) % 8));
  }
  const auto expected = serial::scan(std::span<const int>(input), ops::Counts(8));
  for (const int threads : {1, 8}) {
    EnvGuard tg("RSMPI_LOCAL_THREADS", std::to_string(threads));
    EnvGuard gg("RSMPI_LOCAL_GRAIN", "32");
    std::vector<std::vector<long>> slices(2);
    mprt::run(2, [&](mprt::Comm& comm) {
      const std::size_t half = input.size() / 2;
      const auto mine = std::span<const int>(input).subspan(
          comm.rank() == 0 ? 0 : half, half);
      slices[static_cast<std::size_t>(comm.rank())] =
          rs::scan(comm, mine, ops::Counts(8));
    });
    std::vector<long> got = slices[0];
    got.insert(got.end(), slices[1].begin(), slices[1].end());
    EXPECT_EQ(got, expected) << "threads=" << threads;
  }
}

TEST(ParDeterminism, PersistentEpochsMatchSerialWithPool) {
  // The svc persistent path reuses detail::accumulate_local, so warm
  // epochs go through the pool too; every epoch must stay oracle-exact.
  std::vector<long> input;
  std::uint64_t s = 12;
  for (int i = 0; i < 2000; ++i) {
    input.push_back(static_cast<long>(splitmix(s) % 500));
  }
  const auto expected =
      serial::reduce_state(std::span<const long>(input), ops::Sum<long>{}).gen();
  EnvGuard tg("RSMPI_LOCAL_THREADS", "4");
  EnvGuard gg("RSMPI_LOCAL_GRAIN", "64");
  mprt::run(2, [&](mprt::Comm& comm) {
    const std::size_t half = input.size() / 2;
    const auto mine = std::span<const long>(input).subspan(
        comm.rank() == 0 ? 0 : half, half);
    svc::PersistentReduce<ops::Sum<long>> handle(comm, ops::Sum<long>{});
    for (int epoch = 0; epoch < 3; ++epoch) {
      EXPECT_EQ(handle.execute_state(mine).gen(), expected);
    }
  });
}

// --- boundary hooks ---------------------------------------------------------

/// Counting operator: combine sums the hook counters of chunk states, so
/// any spurious per-chunk pre/post firing shows up in the final count.
struct HookCounter {
  long sum = 0;
  int pre_calls = 0;
  int post_calls = 0;
  long first_seen = -1;
  long last_seen = -1;
  void pre_accum(const long& x) {
    ++pre_calls;
    first_seen = x;
  }
  void accum(const long& x) { sum += x; }
  void post_accum(const long& x) {
    ++post_calls;
    last_seen = x;
  }
  void combine(const HookCounter& o) {
    sum += o.sum;
    pre_calls += o.pre_calls;
    post_calls += o.post_calls;
  }
  [[nodiscard]] long gen() const { return sum; }
};

TEST(ParDeterminism, PrePostFireExactlyOnceOnTrueBoundaries) {
  std::vector<long> input;
  for (long i = 0; i < 100; ++i) input.push_back(i + 7);
  for (const int threads : {1, 3, 8}) {
    EnvGuard tg("RSMPI_LOCAL_THREADS", std::to_string(threads));
    EnvGuard gg("RSMPI_LOCAL_GRAIN", "1");
    mprt::run(1, [&](mprt::Comm& comm) {
      const HookCounter out = rs::reduce_state(
          comm, std::span<const long>(input), HookCounter{});
      EXPECT_EQ(out.pre_calls, 1) << "threads=" << threads;
      EXPECT_EQ(out.post_calls, 1) << "threads=" << threads;
      EXPECT_EQ(out.first_seen, 7) << "threads=" << threads;
      EXPECT_EQ(out.last_seen, 106) << "threads=" << threads;
      EXPECT_EQ(out.sum, (7 + 106) * 100 / 2);
    });
  }
}

TEST(ParDeterminism, EmptyAndSingleElementEdges) {
  EnvGuard tg("RSMPI_LOCAL_THREADS", "8");
  EnvGuard gg("RSMPI_LOCAL_GRAIN", "1");
  mprt::run(1, [&](mprt::Comm& comm) {
    const std::vector<long> empty;
    const HookCounter none =
        rs::reduce_state(comm, std::span<const long>(empty), HookCounter{});
    EXPECT_EQ(none.pre_calls, 0);
    EXPECT_EQ(none.post_calls, 0);
    EXPECT_EQ(none.sum, 0);

    const std::vector<long> one = {42};
    const HookCounter single =
        rs::reduce_state(comm, std::span<const long>(one), HookCounter{});
    EXPECT_EQ(single.pre_calls, 1);
    EXPECT_EQ(single.post_calls, 1);
    EXPECT_EQ(single.first_seen, 42);
    EXPECT_EQ(single.last_seen, 42);
    EXPECT_EQ(single.sum, 42);
  });
}

// --- the pool itself --------------------------------------------------------

TEST(ParPool, DoAllVisitsEveryIndexExactlyOnce) {
  EnvGuard tg("RSMPI_LOCAL_THREADS", "8");
  const std::size_t n = 10000;
  std::vector<int> visits(n, 0);
  const par::RunStats stats =
      par::do_all(n, [&](std::size_t i) { visits[i] += 1; }, /*grain=*/1);
  EXPECT_EQ(stats.chunks, n);
  EXPECT_EQ(stats.threads, 8u);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(visits[i], 1) << "index " << i;
  }
}

TEST(ParPool, StealsMoveBlockedOwnersWorkAndAreCounted) {
  // Chunk 0's executor (worker 0, which owns the leading block) parks
  // until every other chunk has run — so its remaining block can only
  // finish via stealing, making steals >= 1 deterministic.
  par::WorkerPool pool(4);
  constexpr std::size_t kChunks = 64;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t done_elsewhere = 0;
  const par::RunStats stats = pool.run_chunks(
      kChunks, [&](unsigned, std::size_t c) {
        std::unique_lock<std::mutex> lk(mu);
        if (c == 0) {
          cv.wait_for(lk, std::chrono::seconds(30),
                      [&] { return done_elsewhere >= kChunks - 1; });
        } else if (++done_elsewhere >= kChunks - 1) {
          cv.notify_all();
        }
      });
  EXPECT_EQ(stats.chunks, kChunks);
  EXPECT_GE(stats.steals, 1u);
  EXPECT_EQ(stats.threads, 4u);
}

TEST(ParPool, BodyExceptionPropagatesAndPoolSurvives) {
  EnvGuard tg("RSMPI_LOCAL_THREADS", "4");
  EnvGuard gg("RSMPI_LOCAL_GRAIN", "1");
  EXPECT_THROW(par::do_all(200,
                           [](std::size_t i) {
                             if (i == 37) {
                               throw std::runtime_error("chunk 37 boom");
                             }
                           }),
               std::runtime_error);
  // Same pool, next section: fully usable.
  std::vector<int> visits(200, 0);
  par::do_all(200, [&](std::size_t i) { visits[i] += 1; });
  for (std::size_t i = 0; i < visits.size(); ++i) {
    ASSERT_EQ(visits[i], 1) << "index " << i;
  }
}

// --- counters + serial fallback --------------------------------------------

TEST(ParAccumulate, CountersSurfaceThroughRunResult) {
  EnvGuard tg("RSMPI_LOCAL_THREADS", "4");
  EnvGuard gg("RSMPI_LOCAL_GRAIN", "16");
  std::vector<long> input(1000);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<long>(i);
  }
  const auto result = mprt::run(2, [&](mprt::Comm& comm) {
    const auto mine = std::span<const long>(input).subspan(
        comm.rank() == 0 ? 0 : 500, 500);
    (void)rs::reduce(comm, mine, ops::Sum<long>{});
    EXPECT_EQ(comm.metrics()[mprt::Metric::kParThreads], 4u);
    EXPECT_EQ(comm.local_parallel_sections(), 1u);
    EXPECT_EQ(comm.local_chunks(), 32u);  // ceil(500 / 16)
  });
  EXPECT_EQ(result.metrics[mprt::Metric::kParSections], 2u);
  EXPECT_EQ(result.metrics[mprt::Metric::kParChunks], 64u);
  EXPECT_EQ(result.metrics[mprt::Metric::kParThreads], 4u);
  EXPECT_EQ(mprt::metric_row(mprt::Metric::kParSections).name, "par.sections");
  EXPECT_EQ(mprt::metric_row(mprt::Metric::kParChunks).name, "par.chunks");
  EXPECT_EQ(mprt::metric_row(mprt::Metric::kParThreads).name, "par.threads");
  EXPECT_EQ(mprt::metric_row(mprt::Metric::kParSteals).name, "par.steals");
}

TEST(ParAccumulate, SerialFallbackBelowGrainRunsNoSection) {
  EnvGuard tg("RSMPI_LOCAL_THREADS", "8");
  EnvGuard gg("RSMPI_LOCAL_GRAIN", "100000");
  std::vector<long> input(500, 1);
  const auto result = mprt::run(1, [&](mprt::Comm& comm) {
    EXPECT_EQ(rs::reduce(comm, std::span<const long>(input), ops::Sum<long>{}),
              500);
  });
  EXPECT_EQ(result.metrics[mprt::Metric::kParSections], 0u);
  EXPECT_EQ(result.metrics[mprt::Metric::kParThreads], 0u);
  EXPECT_EQ(result.metrics[mprt::Metric::kParChunks], 0u);
}

TEST(ParAccumulate, DefaultEnvironmentStaysSerial) {
  EnvGuard tg("RSMPI_LOCAL_THREADS", "");
  std::vector<long> input(20000, 2);
  const auto result = mprt::run(1, [&](mprt::Comm& comm) {
    EXPECT_EQ(rs::reduce(comm, std::span<const long>(input), ops::Sum<long>{}),
              40000);
  });
  EXPECT_EQ(result.metrics[mprt::Metric::kParSections], 0u);
}

}  // namespace
