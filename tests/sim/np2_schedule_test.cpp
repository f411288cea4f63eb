// Non-power-of-two rank coverage (ISSUE 4, satellite 3): every schedule
// with a fold-in/fold-out phase — butterfly allreduce, Rabenseifner
// reduce-scatter+allgather, deferred-prefix xscan — exercised at p = 3, 5,
// 6, 7, 12 both fault-free and under a benign fault plan, against the
// serial oracle.  The trailing p - 2^k ranks take a different code path in
// these schedules; power-of-two-only sweeps never execute it.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "coll/local_reduce.hpp"
#include "mprt/runtime.hpp"
#include "mprt/sim.hpp"
#include "rs/ops/basic.hpp"
#include "rs/ops/concat.hpp"
#include "rs/ops/counts.hpp"
#include "rs/ops/mink.hpp"
#include "rs/reduce.hpp"
#include "rs/scan.hpp"
#include "rs/serial.hpp"
#include "rs/state_exchange.hpp"

namespace {

using namespace rsmpi;
using mprt::Comm;
using mprt::SimConfig;
namespace ops = rs::ops;

constexpr int kNp2Ranks[] = {3, 5, 6, 7, 12};

/// A benign fault plan (no drops, no kills) seeded per (p, variant) so the
/// faulted runs differ from each other but replay identically.
SimConfig benign_plan(int p, int variant) {
  SimConfig sim;
  sim.seed = 40000 + 100ull * static_cast<std::uint64_t>(p) +
             static_cast<std::uint64_t>(variant);
  sim.delay_prob = 0.4;
  sim.max_extra_delay_s = 1.5e-5;
  sim.duplicate_prob = 0.4;
  sim.reorder_prob = 0.4;
  sim.max_compute_skew_s = 6e-6;
  return sim;
}

std::vector<int> rank_values(int rank, int n = 9) {
  std::vector<int> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = (rank * 41 + i * 13) % 97;
  }
  return v;
}

class Np2Sweep : public ::testing::TestWithParam<int> {};

TEST_P(Np2Sweep, ButterflyAllreduceMatchesOracle) {
  const int p = GetParam();
  std::vector<int> global;
  for (int r = 0; r < p; ++r) {
    const auto v = rank_values(r);
    global.insert(global.end(), v.begin(), v.end());
  }
  const auto expected_counts = rs::serial::reduce(global, ops::Counts(97));
  const auto expected_mink = rs::serial::reduce(global, ops::MinK<int>(3));

  for (const bool faulted : {false, true}) {
    mprt::run(
        p,
        [&](Comm& comm) {
          const auto mine = rank_values(comm.rank());
          // Forced butterfly: the trailing-rank fold is the path under test.
          EXPECT_EQ(rs::red_result(rs::reduce_state(comm, mine, ops::Counts(97),
                                                    /*commutative=*/true)),
                    expected_counts)
              << "p=" << p << " faulted=" << faulted;
          EXPECT_EQ(rs::red_result(rs::reduce_state(comm, mine,
                                                    ops::MinK<int>(3),
                                                    /*commutative=*/true)),
                    expected_mink)
              << "p=" << p << " faulted=" << faulted;
        },
        mprt::CostModel{}, faulted ? benign_plan(p, 0) : SimConfig{});
  }
}

TEST_P(Np2Sweep, ReduceBcastMatchesOracle) {
  const int p = GetParam();
  std::string global;
  for (int r = 0; r < p; ++r) {
    for (const int v : rank_values(r)) {
      global.push_back(static_cast<char>('a' + v % 26));
    }
  }

  for (const bool faulted : {false, true}) {
    mprt::run(
        p,
        [&](Comm& comm) {
          std::string mine;
          for (const int v : rank_values(comm.rank())) {
            mine.push_back(static_cast<char>('a' + v % 26));
          }
          // Order-preserving allreduce of the canonical non-commutative
          // operator: rank order must survive the fold.
          EXPECT_EQ(rs::reduce(comm, mine, ops::Concat{}), global)
              << "p=" << p << " faulted=" << faulted;
        },
        mprt::CostModel{}, faulted ? benign_plan(p, 1) : SimConfig{});
  }
}

TEST_P(Np2Sweep, RabenseifnerMatchesOracle) {
  const int p = GetParam();
  constexpr int kWidth = 13;  // not a multiple of any p in the sweep

  for (const bool faulted : {false, true}) {
    mprt::run(
        p,
        [&](Comm& comm) {
          std::vector<long> v(kWidth);
          for (int i = 0; i < kWidth; ++i) {
            v[static_cast<std::size_t>(i)] =
                (comm.rank() + 1L) * (i + 1L) % 53;
          }
          coll::ElementwiseOp<long, coll::Sum<long>> op;
          coll::local_allreduce_rabenseifner(comm, std::span<long>(v), op);
          for (int i = 0; i < kWidth; ++i) {
            long want = 0;
            for (int r = 0; r < comm.size(); ++r) {
              want += (r + 1L) * (i + 1L) % 53;
            }
            ASSERT_EQ(v[static_cast<std::size_t>(i)], want)
                << "p=" << p << " elt=" << i << " faulted=" << faulted;
          }
        },
        mprt::CostModel{}, faulted ? benign_plan(p, 2) : SimConfig{});
  }
}

TEST_P(Np2Sweep, DeferredPrefixXscanMatchesOracle) {
  const int p = GetParam();
  std::vector<int> global;
  for (int r = 0; r < p; ++r) {
    const auto v = rank_values(r, 7);
    global.insert(global.end(), v.begin(), v.end());
  }
  const auto incl = rs::serial::scan(global, ops::Sum<long>{});
  const auto excl = rs::serial::xscan(global, ops::Sum<long>{});

  for (const bool faulted : {false, true}) {
    std::vector<std::size_t> offsets(static_cast<std::size_t>(p) + 1, 0);
    for (int r = 0; r < p; ++r) {
      offsets[static_cast<std::size_t>(r) + 1] =
          offsets[static_cast<std::size_t>(r)] + rank_values(r, 7).size();
    }
    mprt::run(
        p,
        [&](Comm& comm) {
          const auto mine = rank_values(comm.rank(), 7);
          std::vector<long> longs(mine.begin(), mine.end());
          const auto got_incl =
              rs::scan(comm, longs, ops::Sum<long>{}, rs::ScanKind::kInclusive);
          const auto got_excl =
              rs::scan(comm, longs, ops::Sum<long>{}, rs::ScanKind::kExclusive);
          const std::size_t base =
              offsets[static_cast<std::size_t>(comm.rank())];
          for (std::size_t i = 0; i < longs.size(); ++i) {
            EXPECT_EQ(got_incl[i], incl[base + i])
                << "p=" << p << " pos=" << base + i << " faulted=" << faulted;
            EXPECT_EQ(got_excl[i], excl[base + i])
                << "p=" << p << " pos=" << base + i << " faulted=" << faulted;
          }
        },
        mprt::CostModel{}, faulted ? benign_plan(p, 3) : SimConfig{});
  }
}

INSTANTIATE_TEST_SUITE_P(NonPowerOfTwo, Np2Sweep,
                         ::testing::ValuesIn(kNp2Ranks));

}  // namespace
