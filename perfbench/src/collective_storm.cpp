// collective_storm: many small one-shot collectives at p = 256 virtual ranks
// on 4 fiber workers, under a two-tier cluster-of-SMP model with free
// compute.  Message-bound: a butterfly moves ~2,000 messages through
// mailbox matching, fiber park/resume and state (de)serialization, with
// almost no local fold.
//
// One iteration: rs::reduce over Sum<long>, MinK<long>(8), MeanVar,
// Sorted<long> (noncommutative) and Counts(8192) (a 64 KiB state, where
// the autotuner picks the hierarchical schedule at p = 256), plus one
// rs::xscan over Sum<long>.  Every rank holds 64-element seeded slices.
//
// Every one-shot collective draws a fresh tag and the mailbox keeps a
// watermark per (context, source, tag) for the life of the runtime, so
// memory grows with every message received.  The timed loop is therefore
// cut into runs of kItersPerRun iterations, each on a fresh runtime: peak
// RSS then reflects one run's growth instead of the host's speed.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <span>

#include "mprt/runtime.hpp"
#include "rs/ops/ops.hpp"
#include "rs/reduce.hpp"
#include "rs/scan.hpp"
#include "rs/serial.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace rsmpi;

constexpr int kRanks = 256;
constexpr int kWorkers = 4;
constexpr int kRanksPerNode = 8;
constexpr std::size_t kSlice = 64;
constexpr std::size_t kMinK = 8;
constexpr std::size_t kBuckets = 8192;
constexpr std::int64_t kItersPerRun = 50;
constexpr int kMinRuns = 3;

struct Inputs {
  std::vector<long> values;   // Sum, MinK and the xscan
  std::vector<long> ordered;  // globally nondecreasing: Sorted is true
  std::vector<double> samples;
  std::vector<int> buckets;
};

Inputs make_inputs(std::uint64_t seed) {
  const std::size_t n = kSlice * kRanks;
  Inputs in;
  in.values.resize(n);
  in.ordered.resize(n);
  in.samples.resize(n);
  in.buckets.resize(n);
  long running = -static_cast<long>(n);
  for (std::size_t r = 0; r < kRanks; ++r) {
    Rng rng(seed, r, 0);
    for (std::size_t i = r * kSlice; i < (r + 1) * kSlice; ++i) {
      in.values[i] = static_cast<long>(rng.below(1ULL << 40)) - (1L << 39);
      running += static_cast<long>(rng.below(4));
      in.ordered[i] = running;
      in.samples[i] = rng.unit() * 1000.0;
      in.buckets[i] = static_cast<int>(rng.below(kBuckets));
    }
  }
  return in;
}

struct Oracle {
  long sum = 0;
  std::vector<long> mink;
  rs::ops::MeanVarResult meanvar;
  bool sorted = false;
  std::vector<long> counts;
  std::vector<long> xscan;
};

Oracle make_oracle(const Inputs& in) {
  Oracle o;
  o.sum = rs::serial::reduce(in.values, rs::ops::Sum<long>{});
  o.mink = rs::serial::reduce(in.values, rs::ops::MinK<long>(kMinK));
  o.meanvar = rs::serial::reduce(in.samples, rs::ops::MeanVar{});
  o.sorted = rs::serial::reduce(in.ordered, rs::ops::Sorted<long>{});
  o.counts = rs::serial::reduce(in.buckets, rs::ops::Counts(kBuckets));
  o.xscan = rs::serial::xscan(in.values, rs::ops::Sum<long>{});
  return o;
}

/// MeanVar combines in tree order, so it agrees with the serial fold up to
/// rounding; the count must match exactly.
bool close(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
}

template <typename T>
std::span<const T> slice_of(const std::vector<T>& v, int rank) {
  return std::span<const T>(v).subspan(static_cast<std::size_t>(rank) * kSlice,
                                       kSlice);
}

}  // namespace

void collective_storm(const Options& opt, Outcome& out) {
  ::unsetenv("RSMPI_LOCAL_THREADS");
  const Inputs in = make_inputs(opt.seed);
  const Oracle oracle = make_oracle(in);

  Loop& loop = out.loop;
  if (opt.trace) {
    out.trace = std::make_unique<Trace>(kRanks);
    loop.trace = out.trace.get();
  }
  loop.iters_per_run = kItersPerRun;
  out.items_per_iter = 6.0;  // collectives completed per iteration
  mprt::CostModel model = mprt::CostModel::cluster_of_smp(kRanksPerNode);
  model.compute_scale = 0.0;

  const auto body = [&](mprt::Comm& comm) {
    enter_rank(loop, comm);
    const int rank = comm.rank();
    const auto values = slice_of(in.values, rank);
    const auto ordered = slice_of(in.ordered, rank);
    const auto samples = slice_of(in.samples, rank);
    const auto buckets = slice_of(in.buckets, rank);

    long sum = 0;
    std::vector<long> mink;
    rs::ops::MeanVarResult meanvar;
    bool sorted = false;
    std::vector<long> counts;
    std::vector<long> xscan;
    const auto work = [&](std::int64_t id) {
      Trace* t = id >= 0 ? loop.trace : nullptr;
      {
        SpanScope s(t, rank, "rs.reduce_sum", id);
        sum = rs::reduce(comm, values, rs::ops::Sum<long>{});
      }
      {
        SpanScope s(t, rank, "rs.reduce_mink", id);
        mink = rs::reduce(comm, values, rs::ops::MinK<long>(kMinK));
      }
      {
        SpanScope s(t, rank, "rs.reduce_meanvar", id);
        meanvar = rs::reduce(comm, samples, rs::ops::MeanVar{});
      }
      {
        SpanScope s(t, rank, "rs.reduce_sorted", id);
        sorted = rs::reduce(comm, ordered, rs::ops::Sorted<long>{});
      }
      {
        SpanScope s(t, rank, "rs.reduce_counts64k", id);
        counts = rs::reduce(comm, buckets, rs::ops::Counts(kBuckets));
      }
      {
        SpanScope s(t, rank, "rs.xscan_sum", id);
        xscan = rs::xscan(comm, values, rs::ops::Sum<long>{});
      }
    };
    const auto check = [&]() -> long {
      long bad = 0;
      bad += sum != oracle.sum;
      bad += mink != oracle.mink;
      bad += !(meanvar.count == oracle.meanvar.count &&
               close(meanvar.mean, oracle.meanvar.mean) &&
               close(meanvar.variance, oracle.meanvar.variance));
      bad += sorted != oracle.sorted;
      bad += counts != oracle.counts;
      const auto expect = slice_of(oracle.xscan, rank);
      bad += !std::equal(xscan.begin(), xscan.end(), expect.begin(),
                         expect.end());
      return bad;
    };
    closed_loop(loop, comm, work, check);
    leave_rank(loop, comm);
  };

  // Each run is one set-up sample: launch of 256 fibers plus warm-up.
  run_workload(loop, kRanks, kMinRuns, body, model, mprt::ExecPolicy{kWorkers});

  if (loop.trace != nullptr) {
    const Trace& t = *loop.trace;
    for (const char* name :
         {"rs.reduce_sum", "rs.reduce_mink", "rs.reduce_meanvar",
          "rs.reduce_sorted", "rs.reduce_counts64k", "rs.xscan_sum"}) {
      out.layer[std::string(name) + "_us"] = t.call_median_s(name) * 1e6;
    }
  }
}

}  // namespace perfbench
