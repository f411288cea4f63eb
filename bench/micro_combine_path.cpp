// Micro-benchmark for ISSUE 3's combine-phase overhaul, in two cuts:
//
//  1. Schedule: recursive-doubling butterfly allreduce (log p rounds) vs
//     the legacy reduce+bcast (~2 log p rounds with a root hotspot), both
//     on the pooled zero-copy path — modelled critical path + wall time.
//  2. Buffer path: the pooled move-based path vs a reproduction of the
//     pre-ISSUE-3 path (fresh serialization buffer per send, copying span
//     send, temporary operator per receive), both on the butterfly
//     schedule — heap-allocation and copy counters, cold and warm.
//
// Emits a machine-readable JSON document on stdout (committed as
// BENCH_combine.json) and a human-readable summary on stderr.  --smoke
// runs a small configuration for CI.
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "mprt/runtime.hpp"
#include "rs/ops/counts.hpp"
#include "rs/state_exchange.hpp"

namespace {

using namespace rsmpi;
namespace ops = rs::ops;
using mprt::Comm;

// ~1 MiB of operator state in full mode: Counts serializes its occupancy
// vector (8 B per bucket) plus a length prefix.
constexpr std::size_t kFullBuckets = 131072;
constexpr std::size_t kSmokeBuckets = 4096;

std::size_t state_bytes(std::size_t buckets) {
  return sizeof(std::uint64_t) + buckets * sizeof(long);
}

mprt::CostModel bench_model() {
  mprt::CostModel model;        // default LogGP: o = 1 us, L = 10 us, 1 GB/s
  model.compute_scale = 0.0;    // communication + explicit charges only
  model.copy_per_byte_s = 0.25e-9;  // ~4 GB/s memcpy: payload copies show up
  return model;
}

ops::Counts filled_counts(std::size_t buckets, int rank) {
  ops::Counts op(buckets);
  for (int i = 0; i < 1024; ++i) {
    op.accum(static_cast<int>((static_cast<std::size_t>(rank) * 7919 + i * 31) %
                              buckets));
  }
  return op;
}

// --- the pre-ISSUE-3 combine phase, reproduced for comparison ---------------
// Every send serializes into a fresh buffer and hands the runtime a span
// (which heap-allocates and memcpys the payload); every receive decodes
// into a temporary operator before combining.  Same butterfly schedule as
// rs::detail::state_allreduce_butterfly, different buffer discipline.

template <typename Op>
void legacy_send_state(Comm& comm, int dest, int tag, const Op& op) {
  bytes::Writer w;  // fresh allocation every send
  rs::save_op_into(op, w);
  const auto buf = std::move(w).take();
  comm.send_bytes(dest, tag, std::span<const std::byte>(buf));
}

template <typename Op>
void legacy_butterfly_allreduce(Comm& comm, Op& op, const Op& prototype) {
  const int p = comm.size();
  if (p == 1) return;
  const int tag = comm.next_collective_tag();
  const int rank = comm.rank();
  const int p2 = static_cast<int>(std::bit_floor(static_cast<unsigned>(p)));
  const auto fold = [&](mprt::Message&& msg) {
    Op tmp = rs::load_op(prototype, msg.payload());  // temporary operator
    op.combine(tmp);
  };
  if (rank >= p2) {
    legacy_send_state(comm, rank - p2, tag, op);
    auto msg = comm.recv_message(rank - p2, tag);
    op = rs::load_op(prototype, msg.payload());
    return;
  }
  if (rank + p2 < p) fold(comm.recv_message(rank + p2, tag));
  for (int d = 1; d < p2; d <<= 1) {
    const int partner = rank ^ d;
    legacy_send_state(comm, partner, tag, op);
    fold(comm.recv_message(partner, tag));
  }
  if (rank + p2 < p) legacy_send_state(comm, rank + p2, tag, op);
}

// --- measurement ------------------------------------------------------------

using mprt::Metric;
using mprt::Metrics;

enum class Schedule { kButterfly, kReduceBcast, kLegacyButterfly };

void run_schedule(Schedule s, Comm& comm, ops::Counts& op,
                  const ops::Counts& prototype) {
  switch (s) {
    case Schedule::kButterfly:
      rs::detail::state_allreduce_butterfly(comm, op);
      break;
    case Schedule::kReduceBcast:
      rs::detail::state_allreduce_reduce_bcast(comm, op, /*commutative=*/true);
      break;
    case Schedule::kLegacyButterfly:
      legacy_butterfly_allreduce(comm, op, prototype);
      break;
  }
}

struct Sample {
  double critical_path_s = 0.0;  // modelled, one collective, min of 3 reps
  double wall_ms = 0.0;          // host CPU wall time of the counter run
  Metrics cold;                  // first collective, empty pools
  Metrics warm;                  // second collective, recycled pools
};

Sample measure(Schedule s, int p, std::size_t buckets) {
  Sample out;
  const ops::Counts prototype(buckets);

  out.critical_path_s = bench::time_phase(
      p, bench_model(),
      [&](Comm&) {},
      [&](Comm& comm) {
        auto op = filled_counts(buckets, comm.rank());
        run_schedule(s, comm, op, prototype);
      });

  std::vector<Metrics> cold(static_cast<std::size_t>(p));
  std::vector<Metrics> warm(static_cast<std::size_t>(p));
  const auto t0 = std::chrono::steady_clock::now();
  mprt::run(
      p,
      [&](Comm& comm) {
        const auto r = static_cast<std::size_t>(comm.rank());
        const auto mine = filled_counts(buckets, comm.rank());
        auto pass1 = mine;
        run_schedule(s, comm, pass1, prototype);
        cold[r] = comm.metrics();
        comm.reset_counters();
        auto pass2 = mine;
        run_schedule(s, comm, pass2, prototype);
        warm[r] = comm.metrics();
      },
      bench_model());
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count() / 2;
  for (int r = 0; r < p; ++r) {
    out.cold.merge(cold[static_cast<std::size_t>(r)]);
    out.warm.merge(warm[static_cast<std::size_t>(r)]);
  }
  return out;
}

int butterfly_rounds(int p) {
  const int p2 = static_cast<int>(std::bit_floor(static_cast<unsigned>(p)));
  int rounds = 0;
  for (int d = 1; d < p2; d <<= 1) ++rounds;
  return rounds + (p != p2 ? 2 : 0);
}

int reduce_bcast_rounds(int p) {
  int ceil_log2 = 0;
  while ((1 << ceil_log2) < p) ++ceil_log2;
  return 2 * ceil_log2;
}

// --- JSON emission ----------------------------------------------------------

void emit_counters(const char* label, const Metrics& c, const char* indent) {
  std::printf("%s\"%s\": {\"payload_allocs\": %llu, \"payload_copies\": %llu, "
              "\"sends_moved\": %llu, \"sends_inline\": %llu, "
              "\"pool_hits\": %llu, \"pool_misses\": %llu}",
              indent, label,
              static_cast<unsigned long long>(c[Metric::kPayloadAllocs]),
              static_cast<unsigned long long>(c[Metric::kPayloadCopies]),
              static_cast<unsigned long long>(c[Metric::kSendsMoved]),
              static_cast<unsigned long long>(c[Metric::kSendsInline]),
              static_cast<unsigned long long>(c[Metric::kPoolHits]),
              static_cast<unsigned long long>(c[Metric::kPoolMisses]));
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::size_t buckets = smoke ? kSmokeBuckets : kFullBuckets;
  const std::vector<int> procs = smoke ? std::vector<int>{4, 16}
                                       : std::vector<int>{4, 16, 64};
  const auto model = bench_model();

  std::printf("{\n");
  std::printf("  \"bench\": \"micro_combine_path\",\n");
  std::printf("  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::printf("  \"operator\": \"Counts(%zu)\",\n", buckets);
  std::printf("  \"state_bytes\": %zu,\n", state_bytes(buckets));
  std::printf("  \"cost_model\": {\"latency_s\": %g, \"overhead_s\": %g, "
              "\"per_byte_s\": %g, \"copy_per_byte_s\": %g},\n",
              model.latency_s, model.send_overhead_s, model.per_byte_s,
              model.copy_per_byte_s);

  // Cut 1: schedule (both pooled).
  std::fprintf(stderr, "== schedule: butterfly vs reduce+bcast (pooled) ==\n");
  std::fprintf(stderr, "%6s %8s %18s %8s %18s %8s\n", "p", "rounds",
               "butterfly(us)", "rounds", "reduce+bcast(us)", "ratio");
  std::printf("  \"schedule_comparison\": [\n");
  for (std::size_t i = 0; i < procs.size(); ++i) {
    const int p = procs[i];
    const auto fly = measure(Schedule::kButterfly, p, buckets);
    const auto rb = measure(Schedule::kReduceBcast, p, buckets);
    const double ratio = rb.critical_path_s / fly.critical_path_s;
    std::fprintf(stderr, "%6d %8d %18.1f %8d %18.1f %8.2f\n", p,
                 butterfly_rounds(p), fly.critical_path_s * 1e6,
                 reduce_bcast_rounds(p), rb.critical_path_s * 1e6, ratio);
    std::printf("    {\"p\": %d,\n", p);
    std::printf("     \"butterfly\": {\"rounds\": %d, "
                "\"critical_path_us\": %.3f, \"wall_ms\": %.3f},\n",
                butterfly_rounds(p), fly.critical_path_s * 1e6, fly.wall_ms);
    std::printf("     \"reduce_bcast\": {\"rounds\": %d, "
                "\"critical_path_us\": %.3f, \"wall_ms\": %.3f},\n",
                reduce_bcast_rounds(p), rb.critical_path_s * 1e6, rb.wall_ms);
    std::printf("     \"critical_path_ratio\": %.4f}%s\n", ratio,
                i + 1 < procs.size() ? "," : "");
  }
  std::printf("  ],\n");

  // Cut 2: buffer path (both butterfly).
  std::fprintf(stderr,
               "\n== path: pooled vs legacy alloc+copy (butterfly) ==\n");
  std::fprintf(stderr, "%6s %14s %14s %14s %12s\n", "p", "legacy allocs",
               "pooled allocs", "alloc red.", "copies(leg)");
  std::printf("  \"alloc_comparison\": [\n");
  for (std::size_t i = 0; i < procs.size(); ++i) {
    const int p = procs[i];
    const auto pooled = measure(Schedule::kButterfly, p, buckets);
    const auto legacy = measure(Schedule::kLegacyButterfly, p, buckets);
    const std::uint64_t legacy_allocs = legacy.warm[Metric::kPayloadAllocs];
    const std::uint64_t pooled_allocs = pooled.warm[Metric::kPayloadAllocs];
    const double reduction =
        legacy_allocs == 0
            ? 0.0
            : 100.0 * (1.0 - static_cast<double>(pooled_allocs) /
                                 static_cast<double>(legacy_allocs));
    std::fprintf(
        stderr, "%6d %14llu %14llu %13.1f%% %12llu\n", p,
        static_cast<unsigned long long>(legacy_allocs),
        static_cast<unsigned long long>(pooled_allocs), reduction,
        static_cast<unsigned long long>(legacy.warm[Metric::kPayloadCopies]));
    std::printf("    {\"p\": %d,\n", p);
    std::printf("     \"pooled\": {\"critical_path_us\": %.3f, "
                "\"wall_ms\": %.3f,\n",
                pooled.critical_path_s * 1e6, pooled.wall_ms);
    emit_counters("cold", pooled.cold, "      ");
    std::printf(",\n");
    emit_counters("warm", pooled.warm, "      ");
    std::printf("},\n");
    std::printf("     \"legacy\": {\"critical_path_us\": %.3f, "
                "\"wall_ms\": %.3f,\n",
                legacy.critical_path_s * 1e6, legacy.wall_ms);
    emit_counters("cold", legacy.cold, "      ");
    std::printf(",\n");
    emit_counters("warm", legacy.warm, "      ");
    std::printf("},\n");
    std::printf("     \"warm_alloc_reduction_pct\": %.2f}%s\n", reduction,
                i + 1 < procs.size() ? "," : "");
  }
  std::printf("  ]\n");
  std::printf("}\n");
  return 0;
}
