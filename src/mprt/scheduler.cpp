#include "mprt/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "mprt/cost_model.hpp"
#include "mprt/fiber.hpp"
#include "util/error.hpp"

namespace rsmpi::mprt {

namespace {

// Park-gate states; see the protocol walkthrough in scheduler.hpp.
constexpr int kGateIdle = 0;
constexpr int kGateNotified = 1;
constexpr int kGateParked = 2;

}  // namespace

struct VirtualScheduler::Impl {
  using Clock = std::chrono::steady_clock;

  struct VFiber {
    int rank = -1;
    std::unique_ptr<Fiber> fiber;
    std::atomic<int> gate{kGateIdle};
    /// Bumped (under `mu`) every time the fiber is taken off the ready
    /// queue; a timer whose recorded generation no longer matches belongs
    /// to an earlier, already-woken park and is discarded unfired.
    std::uint64_t timer_gen = 0;
    bool want_park = false;  // set by the fiber just before suspending
    const Clock::time_point* park_deadline = nullptr;
    FiberSlot slot;
  };

  /// The park hook: while a progress pass runs an operation coroutine on
  /// the rank, a park or yield suspends that coroutine back to the pass,
  /// which resumes it on a later pass; the rank keeps running.
  class Waiter : public RankWaiter {
   public:
    Impl* impl = nullptr;
    VFiber* f = nullptr;
    void park(std::unique_lock<std::mutex>& lock,
              const Clock::time_point* deadline) override {
      if (Fiber* op = f->slot.op_fiber) {
        if (deadline != nullptr) {
          f->slot.op_deadline = std::min(f->slot.op_deadline, *deadline);
        }
        lock.unlock();
        op->suspend();
        lock.lock();
        return;
      }
      impl->park(f, lock, deadline);
    }
    void yield() override {
      if (Fiber* op = f->slot.op_fiber) {
        op->suspend();
        return;
      }
      impl->yield(f);
    }
    void wake() override { impl->wake(f); }
    [[nodiscard]] bool deadlock_declared() const override {
      return impl->deadlocked.load(std::memory_order_acquire);
    }
  };

  struct Timer {
    Clock::time_point due;
    VFiber* f = nullptr;
    std::uint64_t gen = 0;
  };
  struct TimerLater {
    bool operator()(const Timer& a, const Timer& b) const {
      return a.due > b.due;
    }
  };

  int nworkers = 1;
  std::size_t stack_bytes = Fiber::kDefaultStackBytes;
  std::vector<std::unique_ptr<VFiber>> fibers;
  std::vector<Waiter> waiters;

  std::mutex mu;
  std::condition_variable cv;  // workers sleep here when nothing is ready
  std::deque<VFiber*> ready;
  std::vector<Timer> timers;  // min-heap by `due` via std::*_heap
  int live = 0;               // fibers whose body has not finished
  int running = 0;            // fibers currently on a worker
  int parked_now = 0;         // fibers whose park CAS completed
  int peak_parked = 0;
  std::atomic<bool> deadlocked{false};
  std::atomic<std::uint64_t> park_count{0};

  /// A ComputeTimer measures its worker thread's CPU clock, which keeps
  /// running for whichever fibers the worker hosts while this one is off
  /// it — so a section must close before its rank parks or yields.
  static void require_no_compute_section(const VFiber* f, const char* what) {
    if (detail::open_compute_sections != 0) {
      throw Error("rank " + std::to_string(f->rank) + " tried to " + what +
                  " inside an open compute section; close the section "
                  "first, or it is charged the CPU time of every rank its "
                  "worker runs meanwhile");
    }
  }

  void park(VFiber* f, std::unique_lock<std::mutex>& owner_lock,
            const Clock::time_point* deadline) {
    require_no_compute_section(f, "park");
    f->want_park = true;
    f->park_deadline = deadline;
    owner_lock.unlock();
    f->fiber->suspend();
    // Resumed (possibly on a different worker).  Reset the gate before the
    // caller re-checks its predicate: a wake issued after this store finds
    // the gate idle and relies on that predicate re-check instead.
    f->gate.store(kGateIdle);
    owner_lock.lock();
  }

  /// Steps aside without parking: the worker requeues the fiber at the
  /// back of the ready queue (want_park stays false).
  void yield(VFiber* f) {
    require_no_compute_section(f, "yield");
    f->fiber->suspend();
  }

  void wake(VFiber* f) {
    const int prev = f->gate.exchange(kGateNotified);
    if (prev == kGateParked) {
      // Exactly one waker can observe kParked (exchange is atomic), so the
      // requeue is single-entry.
      {
        std::lock_guard lk(mu);
        --parked_now;
        ready.push_back(f);
      }
      cv.notify_one();
    }
  }

  /// Wakes every live fiber after setting the sticky deadlocked flag; the
  /// resumed fibers' mailbox wait loops throw DeadlockError.  Caller holds
  /// `mu`.
  void declare_deadlock_locked() {
    deadlocked.store(true, std::memory_order_release);
    for (auto& up : fibers) {
      VFiber* f = up.get();
      if (f->fiber == nullptr || f->fiber->finished()) continue;
      const int prev = f->gate.exchange(kGateNotified);
      if (prev == kGateParked) {
        --parked_now;
        ready.push_back(f);
      }
    }
    cv.notify_all();
  }

  void worker_main() {
    std::unique_lock lock(mu);
    for (;;) {
      if (!timers.empty()) {
        const auto now = Clock::now();
        while (!timers.empty() && timers.front().due <= now) {
          std::pop_heap(timers.begin(), timers.end(), TimerLater{});
          const Timer t = timers.back();
          timers.pop_back();
          if (t.gen != t.f->timer_gen) continue;  // stale: already woken
          // wake(), inlined because `mu` is already held.
          const int prev = t.f->gate.exchange(kGateNotified);
          if (prev == kGateParked) {
            --parked_now;
            ready.push_back(t.f);
          }
        }
      }
      if (ready.empty()) {
        if (live == 0) {
          cv.notify_all();  // release siblings blocked in cv.wait
          return;
        }
        bool timers_alive = false;
        for (const Timer& t : timers) {
          timers_alive = timers_alive || (t.gen == t.f->timer_gen);
        }
        if (running == 0 && !timers_alive) {
          // Nothing runs, nothing is ready, no timed park is pending, yet
          // fibers are alive: every one of them is fully parked and only
          // fibers send — no wake can ever arrive.  Exact deadlock.
          declare_deadlock_locked();
          continue;
        }
        if (timers.empty()) {
          cv.wait(lock);
        } else {
          // wait_until reads its deadline again after waking, when another
          // worker may have reallocated `timers`: wait on a copy.
          const Clock::time_point due = timers.front().due;
          cv.wait_until(lock, due);
        }
        continue;
      }

      VFiber* f = ready.front();
      ready.pop_front();
      ++running;
      ++f->timer_gen;
      lock.unlock();

      t_current_fiber = f;
      f->fiber->resume();
      t_current_fiber = nullptr;

      lock.lock();
      --running;
      if (f->fiber->finished()) {
        --live;
        if (live == 0) cv.notify_all();
        continue;
      }
      if (!f->want_park) {
        ready.push_back(f);  // a yield: runnable, behind the others
        continue;
      }
      f->want_park = false;
      const Clock::time_point* deadline = f->park_deadline;
      f->park_deadline = nullptr;
      int expected = kGateIdle;
      if (f->gate.compare_exchange_strong(expected, kGateParked)) {
        ++parked_now;
        if (parked_now > peak_parked) peak_parked = parked_now;
        park_count.fetch_add(1, std::memory_order_relaxed);
        if (deadline != nullptr) {
          // The deadline points into the suspended fiber's stack frame —
          // alive until the fiber resumes, which requires this timer (or a
          // wake) to fire first.
          timers.push_back({*deadline, f, f->timer_gen});
          std::push_heap(timers.begin(), timers.end(), TimerLater{});
          cv.notify_all();  // sleepers may hold a stale (later) wait deadline
        }
      } else {
        // A wake landed while the fiber was switching out: it is runnable
        // again right now.
        f->gate.store(kGateIdle);
        ready.push_back(f);
        cv.notify_one();
      }
    }
  }

  static thread_local VFiber* t_current_fiber;
};

thread_local VirtualScheduler::Impl::VFiber*
    VirtualScheduler::Impl::t_current_fiber = nullptr;

FiberSlot* current_fiber_slot() {
  auto* f = VirtualScheduler::Impl::t_current_fiber;
  return f == nullptr ? nullptr : &f->slot;
}

std::size_t VirtualScheduler::default_stack_bytes() {
  const char* raw = std::getenv("RSMPI_STACK_BYTES");
  if (raw == nullptr || *raw == '\0') return Fiber::kDefaultStackBytes;
  const unsigned long long v = std::strtoull(raw, nullptr, 10);
  return v == 0 ? Fiber::kDefaultStackBytes : static_cast<std::size_t>(v);
}

VirtualScheduler::VirtualScheduler(int num_ranks, int workers,
                                   std::size_t stack_bytes)
    : impl_(std::make_unique<Impl>()) {
  if (num_ranks < 1) {
    throw ArgumentError("VirtualScheduler: need at least one rank");
  }
  impl_->nworkers = std::max(1, workers);
  impl_->stack_bytes =
      stack_bytes == 0 ? default_stack_bytes() : stack_bytes;
  impl_->fibers.reserve(static_cast<std::size_t>(num_ranks));
  impl_->waiters.resize(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) {
    auto f = std::make_unique<Impl::VFiber>();
    f->rank = r;
    f->slot.rank = r;
    f->slot.stack_bytes = impl_->stack_bytes;
    impl_->waiters[static_cast<std::size_t>(r)].impl = impl_.get();
    impl_->waiters[static_cast<std::size_t>(r)].f = f.get();
    impl_->fibers.push_back(std::move(f));
  }
}

VirtualScheduler::~VirtualScheduler() = default;

int VirtualScheduler::workers() const { return impl_->nworkers; }

RankWaiter& VirtualScheduler::waiter(int rank) {
  return impl_->waiters[static_cast<std::size_t>(rank)];
}

void VirtualScheduler::run(const std::function<void(int)>& rank_body) {
  Impl& s = *impl_;
  {
    std::lock_guard lk(s.mu);
    for (auto& up : s.fibers) {
      Impl::VFiber* f = up.get();
      f->fiber = std::make_unique<Fiber>(
          s.stack_bytes, [f, &rank_body] { rank_body(f->rank); });
      s.ready.push_back(f);
    }
    s.live = static_cast<int>(s.fibers.size());
  }
  const int n =
      std::min(s.nworkers, static_cast<int>(s.fibers.size()));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w) {
    workers.emplace_back([&s] { s.worker_main(); });
  }
  for (auto& t : workers) t.join();
}

std::uint64_t VirtualScheduler::park_events() const {
  return impl_->park_count.load(std::memory_order_relaxed);
}

int VirtualScheduler::peak_parked() const {
  std::lock_guard lk(impl_->mu);
  return impl_->peak_parked;
}

bool VirtualScheduler::deadlock_declared() const {
  return impl_->deadlocked.load(std::memory_order_acquire);
}

}  // namespace rsmpi::mprt
