// Ablation (paper §1, §2.1): aggregated reductions make payloads large,
// and commutative operators may "take better advantage of the network".
// This benchmark shows where the bandwidth-optimal Rabenseifner allreduce
// (reduce-scatter + allgather; commutative only) overtakes the
// order-preserving tree (reduce + broadcast) as the aggregated payload
// grows — the quantitative content of the paper's commutativity remark.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "coll/local_reduce.hpp"

namespace {

using namespace rsmpi;

double run_one(int p, std::size_t width, bool rabenseifner) {
  double best = std::numeric_limits<double>::infinity();
  mprt::CostModel model;  // default LogGP: 10 us latency, 1 GB/s
  model.compute_scale = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto result = mprt::run(
        p,
        [width, rabenseifner](mprt::Comm& comm) {
          std::vector<long> v(width, comm.rank());
          coll::ElementwiseOp<long, coll::Sum<long>> op;
          if (rabenseifner) {
            coll::local_allreduce_rabenseifner(comm, std::span<long>(v), op);
          } else {
            coll::local_allreduce(comm, std::span<long>(v), op,
                                  coll::ReduceAlgo::kBinomial);
          }
        },
        model);
    best = std::min(best, result.makespan_s);
  }
  return best;
}

}  // namespace

int main() {
  std::printf("Ablation: allreduce algorithm vs aggregated payload size\n");
  std::printf("(binomial tree = order-preserving, works for any operator;\n");
  std::printf(" rabenseifner = bandwidth-optimal, commutative only)\n\n");
  for (const int p : {8, 32}) {
    std::printf("p = %d ranks\n", p);
    std::printf("%12s %14s %16s %8s\n", "elements", "tree(us)",
                "rabenseifner(us)", "ratio");
    for (const std::size_t width :
         {std::size_t{1}, std::size_t{64}, std::size_t{1} << 10,
          std::size_t{1} << 14, std::size_t{1} << 18}) {
      const double tree = run_one(p, width, false);
      const double rab = run_one(p, width, true);
      std::printf("%12zu %14.2f %16.2f %8.2f\n", width, tree * 1e6,
                  rab * 1e6, tree / rab);
    }
    std::printf("\n");
  }
  std::printf("ratio < 1: latency regime (tree wins, fewer rounds);\n");
  std::printf("ratio > 1: bandwidth regime (rabenseifner wins, moves\n");
  std::printf("~2n bytes instead of 2n*log2 p).\n");
  return 0;
}
