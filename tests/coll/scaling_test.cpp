// Deterministic complexity tests: with compute charging off and a pure
// latency model, the modelled makespan of each collective is an exact
// function of its round structure — so O(log p) vs O(p) is a *testable
// property*, not a benchmark observation.
#include <gtest/gtest.h>

#include <cmath>
#include <span>

#include "coll/local_reduce.hpp"
#include "coll/local_scan.hpp"
#include "mprt/runtime.hpp"
#include "mprt/topology.hpp"
#include "rs/ops/ops.hpp"
#include "rs/reduce.hpp"

namespace {

using namespace rsmpi;

/// Pure-latency model: a message hop costs exactly 1 virtual second; all
/// other costs vanish.  Makespans then count critical-path hops.
mprt::CostModel hop_model() {
  mprt::CostModel m = mprt::CostModel::free();
  m.latency_s = 1.0;
  m.compute_scale = 0.0;
  return m;
}

double reduce_makespan(int p, coll::ReduceAlgo algo) {
  const auto result = mprt::run(
      p,
      [algo](mprt::Comm& comm) {
        long v = comm.rank();
        coll::ElementwiseOp<long, coll::Sum<long>> op;
        coll::local_reduce(comm, 0, std::span<long>(&v, 1), op, algo);
      },
      hop_model());
  return result.makespan_s;
}

double xscan_makespan(int p, coll::ScanAlgo algo) {
  const auto result = mprt::run(
      p,
      [algo](mprt::Comm& comm) {
        long v = comm.rank();
        coll::ElementwiseOp<long, coll::Sum<long>> op;
        coll::local_xscan(comm, std::span<long>(&v, 1), op, algo);
      },
      hop_model());
  return result.makespan_s;
}

TEST(Scaling, BinomialReduceCriticalPathIsFloorLog2) {
  // The longest receive-then-send chain in a binomial tree has
  // floor(log2 p) edges: ranks whose partners fall outside [0, p) send
  // without waiting, so non-power-of-two stragglers do not lengthen the
  // chain (rounds are not barriers).
  for (const int p : {2, 3, 4, 5, 8, 9, 16, 31, 32, 64}) {
    const double hops = reduce_makespan(p, coll::ReduceAlgo::kBinomial);
    EXPECT_DOUBLE_EQ(hops, mprt::topology::floor_log2(p)) << "p=" << p;
  }
}

TEST(Scaling, LinearReduceCriticalPathIsOneHopFanIn) {
  // All sends are concurrent; the chain is the root's sequential receives,
  // but arrival times all equal 1 hop — the makespan is 1, while the
  // *work* at the root is p-1 receives.  The distinguishing cost of the
  // linear algorithm is therefore its message count at one node.
  for (const int p : {2, 4, 8, 16}) {
    EXPECT_DOUBLE_EQ(reduce_makespan(p, coll::ReduceAlgo::kLinear), 1.0)
        << "p=" << p;
  }
}

TEST(Scaling, LinearReduceSerializesUnderReceiveOverhead) {
  // Once receiving costs CPU time (o_r > 0), the root's fan-in serializes
  // and the linear algorithm's makespan grows linearly in p, while the
  // binomial tree's stays logarithmic — the reason for log trees.
  mprt::CostModel m = mprt::CostModel::free();
  m.latency_s = 1.0;
  m.recv_overhead_s = 1.0;
  m.compute_scale = 0.0;

  auto makespan = [&](int p, coll::ReduceAlgo algo) {
    return mprt::run(
               p,
               [algo](mprt::Comm& comm) {
                 long v = comm.rank();
                 coll::ElementwiseOp<long, coll::Sum<long>> op;
                 coll::local_reduce(comm, 0, std::span<long>(&v, 1), op,
                                    algo);
               },
               m)
        .makespan_s;
  };

  // Linear: root receives p-1 messages back to back.
  EXPECT_DOUBLE_EQ(makespan(16, coll::ReduceAlgo::kLinear), 1.0 + 15.0);
  EXPECT_DOUBLE_EQ(makespan(32, coll::ReduceAlgo::kLinear), 1.0 + 31.0);
  // Binomial: log2(p) rounds of (hop + one receive).
  EXPECT_DOUBLE_EQ(makespan(16, coll::ReduceAlgo::kBinomial), 4.0 * 2.0);
  EXPECT_DOUBLE_EQ(makespan(32, coll::ReduceAlgo::kBinomial), 5.0 * 2.0);
}

TEST(Scaling, HillisSteeleScanCriticalPathIsFloorLog2) {
  // Same argument as the binomial tree: each round's send happens before
  // that round's receive, so the dependency chain is floor(log2 p) hops.
  for (const int p : {2, 3, 4, 7, 8, 16, 33, 64}) {
    EXPECT_DOUBLE_EQ(xscan_makespan(p, coll::ScanAlgo::kHillisSteele),
                     mprt::topology::floor_log2(p))
        << "p=" << p;
  }
}

TEST(Scaling, BlellochScanIsTwoLog2Rounds) {
  // The span/work tradeoff, span side: up-sweep log2(p) chained hops,
  // down-sweep log2(p) more.
  for (const int p : {2, 4, 8, 16, 32, 64}) {
    EXPECT_DOUBLE_EQ(xscan_makespan(p, coll::ScanAlgo::kBlelloch),
                     2.0 * mprt::topology::floor_log2(p))
        << "p=" << p;
  }
}

TEST(Scaling, BlellochScanUsesThreePMinusOneMessages) {
  // The span/work tradeoff, work side: 3(p-1) messages, versus recursive
  // doubling's sum over rounds of (p - d).
  for (const int p : {2, 4, 8, 16, 32}) {
    const auto result = mprt::run(
        p,
        [](mprt::Comm& comm) {
          long v = comm.rank();
          coll::ElementwiseOp<long, coll::Sum<long>> op;
          coll::local_xscan(comm, std::span<long>(&v, 1), op,
                            coll::ScanAlgo::kBlelloch);
        },
        hop_model());
    EXPECT_EQ(result.metrics[mprt::Metric::kMessagesSent],
              static_cast<std::uint64_t>(3 * (p - 1)))
        << "p=" << p;
  }
}

TEST(Scaling, LinearScanIsPMinusOneHops) {
  for (const int p : {2, 4, 8, 16, 32}) {
    EXPECT_DOUBLE_EQ(xscan_makespan(p, coll::ScanAlgo::kLinear), p - 1.0)
        << "p=" << p;
  }
}

TEST(Scaling, GlobalReduceIsTwoLogPhases) {
  // reduce-to-0 (ceil log2 p hops) + broadcast (ceil log2 p hops).
  for (const int p : {2, 4, 8, 16, 32}) {
    const auto result = mprt::run(
        p,
        [](mprt::Comm& comm) {
          const std::vector<long> mine = {comm.rank()};
          // Concat-free op with a deterministic ordered schedule:
          (void)rs::reduce(comm, mine, rs::ops::Sorted<long>{});
        },
        hop_model());
    EXPECT_DOUBLE_EQ(result.makespan_s,
                     2.0 * mprt::topology::num_rounds(p))
        << "p=" << p;
  }
}

TEST(Scaling, MessageCountsAreExact) {
  // Binomial reduce: p-1 messages total.  Hillis-Steele xscan: p - 1 - ...
  // precisely sum over rounds of (p - d) sends.
  for (const int p : {2, 3, 4, 8, 13, 16}) {
    const auto red = mprt::run(
        p,
        [](mprt::Comm& comm) {
          long v = 1;
          coll::ElementwiseOp<long, coll::Sum<long>> op;
          coll::local_reduce(comm, 0, std::span<long>(&v, 1), op,
                             coll::ReduceAlgo::kBinomial);
        },
        hop_model());
    EXPECT_EQ(red.metrics[mprt::Metric::kMessagesSent],
              static_cast<std::uint64_t>(p - 1))
        << "p=" << p;

    std::uint64_t want_scan_msgs = 0;
    for (int d = 1; d < p; d <<= 1) {
      want_scan_msgs += static_cast<std::uint64_t>(p - d);
    }
    const auto scn = mprt::run(
        p,
        [](mprt::Comm& comm) {
          long v = 1;
          coll::ElementwiseOp<long, coll::Sum<long>> op;
          coll::local_xscan(comm, std::span<long>(&v, 1), op,
                            coll::ScanAlgo::kHillisSteele);
        },
        hop_model());
    EXPECT_EQ(scn.metrics[mprt::Metric::kMessagesSent], want_scan_msgs)
        << "p=" << p;
  }
}

TEST(Scaling, FortyReductionsCostFortyTrees) {
  // The MG §4.2 story in its purest form: k successive scalar allreduces
  // cost exactly k times one allreduce.
  auto k_allreduces = [&](int p, int k) {
    return mprt::run(
               p,
               [k](mprt::Comm& comm) {
                 for (int i = 0; i < k; ++i) {
                   long v = comm.rank();
                   coll::ElementwiseOp<long, coll::Max<long>> op;
                   coll::local_allreduce(comm, std::span<long>(&v, 1), op,
                                         coll::ReduceAlgo::kBinomial);
                 }
               },
               hop_model())
        .makespan_s;
  };
  const int p = 16;
  const double one = k_allreduces(p, 1);
  EXPECT_DOUBLE_EQ(k_allreduces(p, 40), 40.0 * one);
}

}  // namespace
