// Stackful fibers for rank virtualization (ISSUE 10).
//
// A Fiber is one virtual rank's execution context: a saved register set
// plus an mmap'd stack with a PROT_NONE guard page below it, so a rank
// body that overflows its (default 256 KiB) stack faults loudly instead of
// corrupting a neighbour.  MAP_NORESERVE keeps thousands of fibers cheap:
// p=4096 ranks reserve address space, not memory — pages materialize only
// as deep as each rank's call chain actually grows.
//
// On x86-64 a switch saves only what the System V ABI makes callee-saved —
// rbx, rbp, r12-r15, the stack pointer, MXCSR and the x87 control word —
// in rsmpi_fiber_switch (fiber.cpp): no syscall, so a park/resume round
// trip costs two function calls.  The signal mask is not part of a fiber:
// every fiber shares the mask of the worker thread that runs it.  Other
// targets switch with swapcontext, which also saves and restores the
// signal mask (one rt_sigprocmask syscall per switch).
//
// Fibers migrate freely between worker threads: resume() records the
// *current* caller's context on every entry, so suspend() always returns
// to whichever worker is running the fiber right now.  The same property
// lets a fiber resume another: each nonblocking collective (coll/nb) is an
// operation coroutine, a Fiber its rank's fiber resumes from a progress
// pass and that suspends back into that pass.  A finished fiber can be
// re-armed with a new body on the same stack (rearm), and a suspended one
// can be unwound (unwind) so the objects on its stack are destroyed.
//
// Under the sanitizers every switch is announced to them: under
// ThreadSanitizer each fiber registers as its own logical thread via the
// fiber API (otherwise TSAN would see one OS thread's shadow stack
// teleporting between rank bodies and report phantom races), and under
// AddressSanitizer each switch names the stack it lands on (otherwise an
// exception thrown on a fiber stack makes ASan unpoison the wrong stack
// and report false errors).
#pragma once

#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <utility>

#include "util/error.hpp"

#if defined(__x86_64__)
#define RSMPI_FIBER_ASM_SWITCH 1
#else
#include <ucontext.h>
#endif

#if defined(__SANITIZE_THREAD__)
#define RSMPI_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RSMPI_TSAN_FIBERS 1
#endif
#endif

#if defined(__SANITIZE_ADDRESS__)
#define RSMPI_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RSMPI_ASAN_FIBERS 1
#endif
#endif

#ifdef RSMPI_TSAN_FIBERS
extern "C" {
void* __tsan_get_current_fiber(void);
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

#ifdef RSMPI_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif

#ifdef RSMPI_FIBER_ASM_SWITCH
extern "C" {
/// Pushes the callee-saved registers, MXCSR and the x87 control word,
/// stores the stack pointer to *save_sp, then switches to the stack at
/// `load_sp`, pops the same set from it and returns into that context.
void rsmpi_fiber_switch(void** save_sp, void* load_sp);
/// First return address of a new fiber: calls r13(r12).
void rsmpi_fiber_entry();
}
#endif

namespace rsmpi::mprt {

/// One suspendable execution context.  Not thread-safe: at most one thread
/// may be inside resume() at a time (the scheduler's ready queue enforces
/// this — a fiber is either running on exactly one worker, queued, or
/// parked, never two at once).
class Fiber {
 public:
  static constexpr std::size_t kDefaultStackBytes = 256 * 1024;

  Fiber(std::size_t stack_bytes, std::function<void()> body)
      : body_(std::move(body)) {
    const std::size_t page = page_size();
    if (stack_bytes < 4 * page) stack_bytes = 4 * page;
    stack_bytes = (stack_bytes + page - 1) / page * page;
    map_bytes_ = stack_bytes + page;  // +1 guard page at the low end
    void* base = ::mmap(nullptr, map_bytes_, PROT_NONE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (base == MAP_FAILED) {
      throw Error("fiber: mmap of stack failed (" +
                  std::to_string(map_bytes_) + " bytes)");
    }
    stack_base_ = base;
    stack_lo_ = static_cast<std::byte*>(base) + page;
    stack_bytes_ = stack_bytes;
    if (::mprotect(stack_lo_, stack_bytes_, PROT_READ | PROT_WRITE) != 0) {
      ::munmap(base, map_bytes_);
      throw Error("fiber: mprotect of stack failed");
    }
    try {
      seed();
    } catch (...) {
      ::munmap(base, map_bytes_);
      throw;
    }
#ifdef RSMPI_TSAN_FIBERS
    tsan_fiber_ = __tsan_create_fiber(0);
#endif
  }

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  ~Fiber() {
#ifdef RSMPI_TSAN_FIBERS
    if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
    if (stack_base_ != nullptr) ::munmap(stack_base_, map_bytes_);
  }

  /// Re-arms a finished fiber to run `body` from the top on the same
  /// stack, as if newly constructed: the next resume() enters `body`.
  void rearm(std::function<void()> body) {
    body_ = std::move(body);
    finished_ = false;
    unwinding_ = false;
    seed();
#ifdef RSMPI_TSAN_FIBERS
    __tsan_destroy_fiber(tsan_fiber_);
    tsan_fiber_ = __tsan_create_fiber(0);
#endif
  }

  /// Resumes a suspended fiber only to unwind it: the suspend() it is
  /// blocked in throws a private type, not derived from std::exception,
  /// so the objects on its stack are destroyed.  Returns once the fiber
  /// has finished.  The body must let that exception pass, or catch it
  /// with `catch (...)` and return.
  void unwind() {
    unwinding_ = true;
    resume();
  }

  /// Switches the calling worker into the fiber; returns when the fiber
  /// suspends or finishes.
  void resume() {
#ifdef RSMPI_TSAN_FIBERS
    return_tsan_ = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
#ifdef RSMPI_ASAN_FIBERS
    void* worker_fake_stack = nullptr;
    __sanitizer_start_switch_fiber(&worker_fake_stack, stack_lo_,
                                   stack_bytes_);
#endif
#ifdef RSMPI_FIBER_ASM_SWITCH
    rsmpi_fiber_switch(&return_sp_, sp_);
#else
    ::swapcontext(&return_ctx_, &ctx_);
#endif
#ifdef RSMPI_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(worker_fake_stack, nullptr, nullptr);
#endif
  }

  /// From inside the fiber: switches back to the worker that resumed it.
  void suspend() {
#ifdef RSMPI_TSAN_FIBERS
    __tsan_switch_to_fiber(return_tsan_, 0);
#endif
#ifdef RSMPI_ASAN_FIBERS
    // A finished fiber passes no save slot, so ASan frees its fake stack.
    __sanitizer_start_switch_fiber(finished_ ? nullptr : &asan_fake_stack_,
                                   return_stack_lo_, return_stack_bytes_);
#endif
#ifdef RSMPI_FIBER_ASM_SWITCH
    rsmpi_fiber_switch(&sp_, return_sp_);
#else
    ::swapcontext(&ctx_, &return_ctx_);
#endif
#ifdef RSMPI_ASAN_FIBERS
    // Resumed, possibly by another worker: learn that worker's stack.
    __sanitizer_finish_switch_fiber(asan_fake_stack_, &return_stack_lo_,
                                    &return_stack_bytes_);
#endif
    if (unwinding_) throw Unwind{};
  }

  [[nodiscard]] bool finished() const { return finished_; }

 private:
  static void entry(Fiber* self) {
#ifdef RSMPI_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(nullptr, &self->return_stack_lo_,
                                    &self->return_stack_bytes_);
#endif
    try {
      self->body_();  // rank bodies catch their own exceptions (runtime.cpp)
    } catch (const Unwind&) {
    }
    self->finished_ = true;
    self->suspend();  // never returns: a finished fiber is never resumed
  }

  /// Thrown by suspend() inside a fiber being unwound.
  struct Unwind {};

  /// Lays out the first switch into entry() at the top of the stack.
  void seed() {
#ifdef RSMPI_FIBER_ASM_SWITCH
    // The first switch in pops this frame: r12/r13 carry the entry call,
    // rbp = 0 ends frame-pointer walks, and the floating-point control
    // state is the seeding thread's (as makecontext would inherit it).
    // The frame sits 16 bytes below the (page-aligned) top so the entry's
    // call sees a 16-byte-aligned stack.
    SwitchFrame frame{};
    __asm__ volatile("stmxcsr %0\n\tfnstcw %1"
                     : "=m"(frame.mxcsr), "=m"(frame.x87_cw));
    frame.r12 = reinterpret_cast<std::uint64_t>(this);
    frame.r13 = reinterpret_cast<std::uint64_t>(&Fiber::entry);
    frame.rip = reinterpret_cast<std::uint64_t>(&rsmpi_fiber_entry);
    std::byte* at = stack_lo_ + stack_bytes_ - 16 - sizeof(SwitchFrame);
    std::memcpy(at, &frame, sizeof frame);
    sp_ = at;
#else
    if (::getcontext(&ctx_) != 0) throw Error("fiber: getcontext failed");
    ctx_.uc_stack.ss_sp = stack_lo_;
    ctx_.uc_stack.ss_size = stack_bytes_;
    ctx_.uc_link = nullptr;
    // makecontext only passes ints; smuggle `this` through as two halves.
    const auto self = reinterpret_cast<std::uintptr_t>(this);
    ::makecontext(&ctx_, reinterpret_cast<void (*)()>(&Fiber::ucontext_entry),
                  2, static_cast<unsigned>(self >> 32),
                  static_cast<unsigned>(self & 0xFFFFFFFFu));
#endif
  }

#ifdef RSMPI_FIBER_ASM_SWITCH
  /// What rsmpi_fiber_switch leaves below a switched-out stack pointer,
  /// lowest address first.
  struct SwitchFrame {
    std::uint32_t mxcsr;
    std::uint16_t x87_cw;
    std::uint16_t pad;
    std::uint64_t r15, r14, r13, r12, rbx, rbp;
    std::uint64_t rip;
  };
  static_assert(sizeof(SwitchFrame) == 64);
#else
  static void ucontext_entry(unsigned hi, unsigned lo) {
    entry(reinterpret_cast<Fiber*>((static_cast<std::uintptr_t>(hi) << 32) |
                                   static_cast<std::uintptr_t>(lo)));
  }
#endif

  static std::size_t page_size() {
    const long p = ::sysconf(_SC_PAGESIZE);
    return p > 0 ? static_cast<std::size_t>(p) : 4096;
  }

  std::function<void()> body_;
#ifdef RSMPI_FIBER_ASM_SWITCH
  void* sp_ = nullptr;         // the fiber's, while it is switched out
  void* return_sp_ = nullptr;  // the resuming worker's, while it runs
#else
  ucontext_t ctx_{};
  ucontext_t return_ctx_{};
#endif
  void* stack_base_ = nullptr;  // mapping start, guard page included
  std::size_t map_bytes_ = 0;
  std::byte* stack_lo_ = nullptr;  // lowest usable stack address
  std::size_t stack_bytes_ = 0;
  bool finished_ = false;
  bool unwinding_ = false;
#ifdef RSMPI_TSAN_FIBERS
  void* tsan_fiber_ = nullptr;
  void* return_tsan_ = nullptr;
#endif
#ifdef RSMPI_ASAN_FIBERS
  void* asan_fake_stack_ = nullptr;
  const void* return_stack_lo_ = nullptr;
  std::size_t return_stack_bytes_ = 0;
#endif
};

}  // namespace rsmpi::mprt
