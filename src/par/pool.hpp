// Lazily-started per-rank worker pool with chunked work stealing.
//
// Each OS thread owns (at most) one pool, created on first use and sized
// by RSMPI_LOCAL_THREADS (default 1 — no workers are ever spawned and
// every parallel section degenerates to an inline loop, keeping the
// default execution byte-for-byte identical to the pre-pool runtime).  A
// scheduler worker's pool is shared by the ranks it runs, one section at
// a time: a section never parks, so no other rank runs on that worker
// until it ends.
// The pool's unit of work is a *chunk index*: run_chunks(nchunks, body)
// executes body(worker, c) exactly once for every c in [0, nchunks).
//
// Scheduling: chunks are dealt to per-worker deques as contiguous index
// blocks (worker w initially owns [w*n/T, (w+1)*n/T)).  An owner pops
// from the front of its own deque; an idle worker scans the others and
// steals the back half of the first non-empty deque it finds — the
// classic steal-half discipline, which keeps stolen work contiguous and
// bounds the number of steals at O(T log n) per section.  Which worker
// executes which chunk is therefore timing-dependent, and deliberately
// so; determinism is recovered one layer up (par/reducible.hpp) by
// giving every *chunk* its own operator state and merging states in
// chunk-index order, never in completion order.
//
// The caller of run_chunks participates as worker 0, so a pool of T
// threads spawns only T-1 OS threads, and a section's results are
// visible to the caller without extra synchronization: every worker
// checks in under the pool mutex before run_chunks returns, which
// carries the happens-before edge from each body execution to the
// caller's reads.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "mprt/cost_model.hpp"

namespace rsmpi::par {

/// Observability for one parallel section (one run_chunks call).  The
/// summed worker CPU feeds CostModel::parallel_section_seconds; the
/// counters surface as the par.* metric rows (mprt/metrics.hpp).
struct RunStats {
  unsigned threads = 1;       ///< pool width the section ran with
  std::uint64_t chunks = 0;   ///< chunk executions (== nchunks on success)
  std::uint64_t steals = 0;   ///< successful steal-half operations
  double worker_cpu_s = 0.0;  ///< per-thread CPU summed over all workers
};

class WorkerPool {
 public:
  /// Hard cap on pool width; RSMPI_LOCAL_THREADS is clamped into [1, 64].
  static constexpr unsigned kMaxThreads = 64;

  /// RSMPI_LOCAL_THREADS: workers per rank for local accumulation.
  /// Unset, empty, or unparsable means 1 (serial).
  static unsigned threads_from_env() {
    const char* raw = std::getenv("RSMPI_LOCAL_THREADS");
    if (raw == nullptr || *raw == '\0') return 1;
    char* end = nullptr;
    const long v = std::strtol(raw, &end, 10);
    if (end == raw || v < 1) return 1;
    return v > static_cast<long>(kMaxThreads) ? kMaxThreads
                                              : static_cast<unsigned>(v);
  }

  /// The calling thread's pool.  Re-created (old workers joined) whenever
  /// RSMPI_LOCAL_THREADS changes between sections, so tests and benches
  /// can sweep pool widths on one thread; a run's worker threads are
  /// short-lived and typically build exactly one pool each.
  static WorkerPool& current() {
    thread_local std::unique_ptr<WorkerPool> pool;
    const unsigned want = threads_from_env();
    if (pool == nullptr || pool->threads() != want) {
      pool = std::make_unique<WorkerPool>(want);
    }
    return *pool;
  }

  explicit WorkerPool(unsigned threads)
      : threads_(threads == 0 ? 1 : threads), queues_(threads_) {}

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      shutdown_ = true;
    }
    job_cv_.notify_all();
    for (auto& t : workers_) t.join();
  }

  [[nodiscard]] unsigned threads() const { return threads_; }

  using ChunkBody = std::function<void(unsigned worker, std::size_t chunk)>;

  /// Executes body(worker, c) exactly once for every c in [0, nchunks),
  /// spread over the pool.  Bodies for distinct chunks run concurrently
  /// and must not touch shared mutable state (per-chunk operator states
  /// via par::Reducible are the intended pattern).  Blocks until every
  /// worker has finished; rethrows the first body exception (remaining
  /// chunks are drained without executing their bodies).  Must only be
  /// called from the pool's owning thread, which serves as worker 0.
  RunStats run_chunks(std::size_t nchunks, const ChunkBody& body) {
    RunStats stats;
    stats.threads = threads_;
    if (threads_ <= 1 || nchunks <= 1) {
      // Inline path: no workers, no locks — identical to a plain loop.
      stats.threads = 1;
      const double cpu0 = mprt::thread_cpu_seconds();
      for (std::size_t c = 0; c < nchunks; ++c) body(0, c);
      stats.worker_cpu_s = mprt::thread_cpu_seconds() - cpu0;
      stats.chunks = nchunks;
      return stats;
    }
    ensure_workers();
    {
      std::lock_guard<std::mutex> lk(mu_);
      body_ = &body;
      error_ = nullptr;
      failed_.store(false, std::memory_order_relaxed);
      chunks_executed_ = 0;
      steals_ = 0;
      cpu_s_ = 0.0;
      done_count_ = 0;
      // Deterministic initial deal: worker w owns the contiguous block
      // [w*n/T, (w+1)*n/T).  (Only the starting point — stealing moves
      // chunks freely; chunk->state mapping is what stays fixed.)
      for (unsigned w = 0; w < threads_; ++w) {
        queues_[w].lo = nchunks * w / threads_;
        queues_[w].hi = nchunks * (w + 1) / threads_;
      }
      ++generation_;
    }
    job_cv_.notify_all();
    const Local mine = work_loop(0);
    std::exception_ptr error;
    {
      std::unique_lock<std::mutex> lk(mu_);
      done_cv_.wait(lk, [&] { return done_count_ == threads_ - 1; });
      body_ = nullptr;
      chunks_executed_ += mine.chunks;
      steals_ += mine.steals;
      cpu_s_ += mine.cpu_s;
      stats.chunks = chunks_executed_;
      stats.steals = steals_;
      stats.worker_cpu_s = cpu_s_;
      error = error_;
      error_ = nullptr;
    }
    if (error) std::rethrow_exception(error);
    return stats;
  }

 private:
  /// One worker's deque: a contiguous chunk-index range [lo, hi).  The
  /// owner pops lo; thieves move the back half into their own (empty)
  /// deque.  Guarded by its own mutex — contention is one lock per chunk
  /// pop, negligible next to any real accumulate body at sane grains.
  struct Queue {
    std::mutex m;
    std::size_t lo = 0;
    std::size_t hi = 0;
  };

  struct Local {
    std::uint64_t chunks = 0;
    std::uint64_t steals = 0;
    double cpu_s = 0.0;
  };

  void ensure_workers() {
    if (!workers_.empty()) return;
    workers_.reserve(threads_ - 1);
    for (unsigned w = 1; w < threads_; ++w) {
      workers_.emplace_back([this, w] { worker_main(w); });
    }
  }

  void worker_main(unsigned w) {
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(mu_);
        job_cv_.wait(lk, [&] { return shutdown_ || generation_ != seen; });
        if (shutdown_) return;
        seen = generation_;
      }
      const Local l = work_loop(w);
      {
        std::lock_guard<std::mutex> lk(mu_);
        chunks_executed_ += l.chunks;
        steals_ += l.steals;
        cpu_s_ += l.cpu_s;
        ++done_count_;
      }
      done_cv_.notify_one();
    }
  }

  Local work_loop(unsigned w) {
    Local out;
    const double cpu0 = mprt::thread_cpu_seconds();
    for (;;) {
      std::size_t c = 0;
      if (pop_front(w, &c)) {
        execute(w, c);
        ++out.chunks;
        continue;
      }
      if (!steal_some(w)) break;
      ++out.steals;
    }
    out.cpu_s = mprt::thread_cpu_seconds() - cpu0;
    return out;
  }

  void execute(unsigned w, std::size_t c) {
    if (failed_.load(std::memory_order_relaxed)) return;  // drain, don't run
    try {
      (*body_)(w, c);
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      if (!error_) error_ = std::current_exception();
      failed_.store(true, std::memory_order_relaxed);
    }
  }

  bool pop_front(unsigned w, std::size_t* c) {
    Queue& q = queues_[w];
    std::lock_guard<std::mutex> lk(q.m);
    if (q.lo >= q.hi) return false;
    *c = q.lo++;
    return true;
  }

  /// Steals the back half of the first non-empty victim deque into w's
  /// own deque (empty by construction: only its owner refills it, and the
  /// owner steals only after its own pop failed).  Two-phase — victim
  /// lock, then own lock — so no two locks are ever held together.
  bool steal_some(unsigned w) {
    for (unsigned i = 1; i < threads_; ++i) {
      const unsigned v = (w + i) % threads_;
      std::size_t lo = 0;
      std::size_t hi = 0;
      {
        Queue& q = queues_[v];
        std::lock_guard<std::mutex> lk(q.m);
        const std::size_t n = q.hi - q.lo;
        if (n == 0) continue;
        const std::size_t take = (n + 1) / 2;
        lo = q.hi - take;
        hi = q.hi;
        q.hi = lo;
      }
      Queue& mine = queues_[w];
      std::lock_guard<std::mutex> lk(mine.m);
      mine.lo = lo;
      mine.hi = hi;
      return true;
    }
    return false;
  }

  const unsigned threads_;
  std::vector<Queue> queues_;  // one per worker, never resized
  std::vector<std::thread> workers_;

  std::mutex mu_;  // job handoff + completion + section totals
  std::condition_variable job_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  unsigned done_count_ = 0;
  bool shutdown_ = false;
  const ChunkBody* body_ = nullptr;
  std::exception_ptr error_;
  std::atomic<bool> failed_{false};
  std::uint64_t chunks_executed_ = 0;
  std::uint64_t steals_ = 0;
  double cpu_s_ = 0.0;
};

}  // namespace rsmpi::par
