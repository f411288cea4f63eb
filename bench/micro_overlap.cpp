// Compute/communication overlap with nonblocking reductions.
//
// The measurement the nonblocking subsystem exists for: a rank that starts
// rs::reduce_async, computes, and polls the progress engine between
// compute chunks should finish in roughly max(compute, combine) modelled
// time, while the blocking rs::reduce + the same compute pays
// combine + compute.  The win on the modelled critical path is the
// overlap.
//
// The compute is charged as explicit virtual-clock advances (and
// compute_scale is zeroed), and the progress engine runs each operation on
// its own timeline, joining its finish time to the rank clock only when
// the rank observes the completion (coll/nb/progress.hpp).  The figure is
// therefore a deterministic function of the cost model and the message
// schedule — not of which messages a poll happened to find queued — and
// reruns print byte-identical output.
//
//   $ ./micro_overlap
#include <cmath>
#include <cstdio>
#include <ranges>
#include <vector>

#include "bench_util.hpp"
#include "rs/ops/topbottomk.hpp"
#include "rs/rsmpi.hpp"

namespace {

using namespace rsmpi;
using Candidate = rs::ops::Located<double, std::int64_t>;

constexpr std::size_t kLocalN = 2048;   // values per rank
constexpr std::size_t kTopK = 10;       // TopBottomK(k)
constexpr int kChunks = 40;             // compute chunks between polls
constexpr double kChunkSeconds = 4e-6;  // modelled compute per chunk

/// This rank's slice of the conceptual global array: a deterministic
/// pseudo-random field keyed by global position.
auto make_slice(int rank) {
  const std::int64_t base = static_cast<std::int64_t>(rank) * kLocalN;
  return std::views::iota(std::int64_t{0},
                          static_cast<std::int64_t>(kLocalN)) |
         std::views::transform([base](std::int64_t i) {
           const std::int64_t g = base + i;
           return Candidate{std::sin(static_cast<double>(g) * 12.9898), g};
         });
}

/// The "application work" both variants perform: kChunks chunks of
/// modelled compute; the async variant polls the progress engine between
/// chunks, which is where the overlap comes from.
void compute_chunks(mprt::Comm& comm, bool poll_between) {
  for (int c = 0; c < kChunks; ++c) {
    comm.clock().advance(kChunkSeconds);
    if (poll_between) coll::nb::poll();
  }
}

}  // namespace

int main() {
  mprt::CostModel model;     // the default LogGP parameters
  model.compute_scale = 0.0;  // charge only the explicit advances

  bench::Series blocking{"blocking", {}};
  bench::Series overlap{"overlap", {}};

  for (const int p : bench::kProcessorCounts) {
    const double t_blocking = bench::time_phase(
        p, model, [](mprt::Comm&) {},
        [](mprt::Comm& comm) {
          const auto result = rs::reduce(
              comm, make_slice(comm.rank()),
              rs::ops::TopBottomK<double, std::int64_t>(kTopK));
          (void)result;
          compute_chunks(comm, /*poll_between=*/false);
        });
    const double t_overlap = bench::time_phase(
        p, model, [](mprt::Comm&) {},
        [](mprt::Comm& comm) {
          auto future = rs::reduce_async(
              comm, make_slice(comm.rank()),
              rs::ops::TopBottomK<double, std::int64_t>(kTopK));
          compute_chunks(comm, /*poll_between=*/true);
          (void)future.get();
        });
    blocking.times_s.push_back(t_blocking);
    overlap.times_s.push_back(t_overlap);
  }

  bench::print_figure("compute/communication overlap (reduce_async + poll)",
                      bench::kProcessorCounts, {blocking, overlap});

  std::printf("\n%6s %12s\n", "p", "saving");
  for (std::size_t i = 0; i < bench::kProcessorCounts.size(); ++i) {
    const double saving = 1.0 - overlap.times_s[i] / blocking.times_s[i];
    std::printf("%6d %11.1f%%\n", bench::kProcessorCounts[i], saving * 100);
  }
  return 0;
}
