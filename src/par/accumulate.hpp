// Parallel accumulate bridge: work-stealing chunk execution (par/pool),
// per-chunk operator states merged in index order (par/reducible), the
// operator's pre/post hooks fired exactly once on the true first/last
// element, and the section charged to the rank's virtual clock through
// CostModel::parallel_section_seconds.  This is the single integration
// point under rs::detail::accumulate_local and svc::Stream::fold, so
// every reduction/scan entry point gets the pool for free.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <type_traits>

#include "mprt/comm.hpp"
#include "par/do_all.hpp"
#include "par/pool.hpp"
#include "par/reducible.hpp"
#include "rs/op_concepts.hpp"

namespace rsmpi::par {

/// RSMPI_LOCAL_CHUNKED=1 forces the canonical chunked fold even when the
/// pool is one thread wide, so a single-threaded run is byte-identical to
/// any pool width at the same (extent, grain) — the knob the
/// reproducibility suite (tests/rs/reproducibility_test.cpp) pins when
/// comparing floating-point operator states across RSMPI_LOCAL_THREADS.
/// Off by default: the serial fallback loop is cheaper and matches the
/// pre-pool bit pattern.
inline bool canonical_chunked_from_env() {
  const char* raw = std::getenv("RSMPI_LOCAL_CHUNKED");
  return raw != nullptr && *raw != '\0' && *raw != '0';
}

/// Accumulates `n` indexed elements into `op`, ending exactly as if the
/// serial protocol
///
///   pre_accum(get(0)); for i in [0, n): accum(get(i)); post_accum(get(n-1));
///
/// had run on the calling rank.  `get(i)` produces element i (by value or
/// reference) and must be safe to call concurrently for distinct i; with
/// the pool active it runs on worker threads.  `prototype` supplies
/// identity clones for the per-chunk states and is snapshotted before
/// pre_accum can fire — callers may pass `op` itself when it is still in
/// identity state (every rs:: entry point does).
///
/// `fire_pre` / `fire_post` let callers that feed one logical input as
/// several batches (svc::Stream::fold) fire the boundary hooks on the
/// true global first/last element instead of each batch's.
///
/// Serial fallback — bit-identical to the pre-pool loop — whenever the
/// pool is one thread wide (the RSMPI_LOCAL_THREADS default) or the
/// extent does not exceed one grain.  Parallel sections are charged to
/// the virtual clock as summed worker CPU over min(cores_per_rank,
/// pool width) model cores, and counted in the par.* metric rows.
template <typename Op, typename Get>
void accumulate_indexed(mprt::Comm& comm, Op& op, const Op& prototype,
                        std::size_t n, Get&& get, bool fire_pre = true,
                        bool fire_post = true) {
  using In = std::decay_t<decltype(get(std::size_t{0}))>;
  if (n == 0) return;
  WorkerPool& pool = WorkerPool::current();
  const std::size_t grain = grain_from_env();
  const std::size_t nchunks = chunk_count(n, grain);
  // nchunks <= 1 stays serial at every pool width (one chunk folds the
  // same either way), so the single-chunk case is width-independent too.
  if (nchunks <= 1 || (pool.threads() <= 1 && !canonical_chunked_from_env())) {
    auto timer = comm.compute_section();
    if constexpr (rs::HasPreAccum<Op, In>) {
      if (fire_pre) op.pre_accum(get(0));
    }
    for (std::size_t i = 0; i < n; ++i) op.accum(get(i));
    if constexpr (rs::HasPostAccum<Op, In>) {
      if (fire_post) op.post_accum(get(n - 1));
    }
    return;
  }
  if (pool.threads() <= 1) {
    // Canonical chunked fold on the calling rank (RSMPI_LOCAL_CHUNKED):
    // identical chunk boundaries, identity clones, and ascending-chunk
    // merge as the pool path below, so the bits match any pool width.
    const Op identity(prototype);
    auto timer = comm.compute_section();
    if constexpr (rs::HasPreAccum<Op, In>) {
      if (fire_pre) op.pre_accum(get(0));
    }
    for (std::size_t chunk = 0; chunk < nchunks; ++chunk) {
      const std::size_t lo = chunk * grain;
      const std::size_t hi = std::min(n, lo + grain);
      Op state(identity);
      for (std::size_t i = lo; i < hi; ++i) state.accum(get(i));
      op.combine(state);
    }
    if constexpr (rs::HasPostAccum<Op, In>) {
      if (fire_post) op.post_accum(get(n - 1));
    }
    return;
  }
  // Snapshot the identity before pre_accum may mutate `op` — the chunk
  // states must clone the *unhooked* identity, or every chunk would
  // inherit chunk 0's boundary observation.
  const Op identity(prototype);
  if constexpr (rs::HasPreAccum<Op, In>) {
    if (fire_pre) {
      auto timer = comm.compute_section();
      op.pre_accum(get(0));
    }
  }
  Reducible<Op> partials(identity, pool.threads(), nchunks);
  const RunStats stats =
      pool.run_chunks(nchunks, [&](unsigned worker, std::size_t chunk) {
        const std::size_t lo = chunk * grain;
        const std::size_t hi = std::min(n, lo + grain);
        Op& state = partials.fresh_state(worker, chunk);
        for (std::size_t i = lo; i < hi; ++i) state.accum(get(i));
      });
  {
    // The in-order merge and the post hook run on the calling rank and
    // are charged as ordinary serial compute.
    auto timer = comm.compute_section();
    partials.merge_into(op);
    if constexpr (rs::HasPostAccum<Op, In>) {
      if (fire_post) op.post_accum(get(n - 1));
    }
  }
  comm.clock().advance(comm.cost_model().parallel_section_seconds(
      stats.worker_cpu_s, stats.threads));
  comm.note(mprt::Metric::kParSections);
  comm.note(mprt::Metric::kParChunks, stats.chunks);
  comm.note(mprt::Metric::kParSteals, stats.steals);
  comm.note(mprt::Metric::kParThreads, stats.threads);
}

}  // namespace rsmpi::par
