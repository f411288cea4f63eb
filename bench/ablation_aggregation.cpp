// Ablation (paper §2.1): aggregation "allows the programmer to compute
// multiple reductions simultaneously, thus saving the overhead of many
// smaller messages."
//
// Sweeps the number of simultaneous element-wise min reductions k and
// compares k separate scalar allreduces against one aggregated allreduce
// of a k-vector, reporting modelled time and message counts.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "coll/local_reduce.hpp"

namespace {

using namespace rsmpi;

struct Cost {
  double time_s;
  std::uint64_t messages;
};

Cost run_separate(int p, int k) {
  double best = std::numeric_limits<double>::infinity();
  std::uint64_t messages = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto result = mprt::run(p, [&](mprt::Comm& comm) {
      for (int i = 0; i < k; ++i) {
        int v = (comm.rank() * 31 + i * 17) % 1009;
        coll::ElementwiseOp<int, coll::Min<int>> op;
        coll::local_allreduce(comm, std::span<int>(&v, 1), op);
      }
    });
    best = std::min(best, result.makespan_s);
    messages = result.metrics[mprt::Metric::kMessagesSent];
  }
  return {best, messages};
}

Cost run_aggregated(int p, int k) {
  double best = std::numeric_limits<double>::infinity();
  std::uint64_t messages = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto result = mprt::run(p, [&](mprt::Comm& comm) {
      std::vector<int> v(static_cast<std::size_t>(k));
      for (int i = 0; i < k; ++i) {
        v[static_cast<std::size_t>(i)] = (comm.rank() * 31 + i * 17) % 1009;
      }
      coll::ElementwiseOp<int, coll::Min<int>> op;
      coll::local_allreduce(comm, std::span<int>(v), op);
    });
    best = std::min(best, result.makespan_s);
    messages = result.metrics[mprt::Metric::kMessagesSent];
  }
  return {best, messages};
}

}  // namespace

int main() {
  std::printf("Ablation: k separate scalar reductions vs one aggregated "
              "k-vector reduction (paper S2.1)\n");
  constexpr int kRanks = 16;
  std::printf("p = %d ranks\n", kRanks);
  std::printf("%6s %16s %10s %16s %10s %8s\n", "k", "separate(ms)", "msgs",
              "aggregated(ms)", "msgs", "speedup");
  for (const int k : {1, 2, 4, 8, 16, 32, 64, 128}) {
    const Cost sep = run_separate(kRanks, k);
    const Cost agg = run_aggregated(kRanks, k);
    std::printf("%6d %16.3f %10llu %16.3f %10llu %8.2f\n", k,
                sep.time_s * 1e3,
                static_cast<unsigned long long>(sep.messages),
                agg.time_s * 1e3,
                static_cast<unsigned long long>(agg.messages),
                sep.time_s / agg.time_s);
  }
  std::printf("\nAggregation folds k latencies into one; the speedup should "
              "approach k\nwhile payloads stay far below the bandwidth "
              "regime.\n");
  return 0;
}
