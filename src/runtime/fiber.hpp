#pragma once
/// \file fiber.hpp
/// Work-groups with SYCL barrier semantics on a CPU thread, and the
/// user-level cooperative fibers (POSIX ucontext) behind them.
///
/// run_barrier_group runs work-item 0 of a group on the calling
/// thread's own stack. If item 0 returns without reaching a barrier
/// then - by SYCL's barrier-uniformity rule - no other item will, and
/// items 1..n-1 run as a plain loop: a barrier-free group costs no
/// fiber at all. Only when item 0 reaches group_barrier() do items
/// 1..n-1 get fibers; each barrier of item 0 then brings every fiber
/// item to that same barrier before item 0 continues (the technique
/// OpenCL CPU runtimes use, without re-executing anything).
///
/// Fiber stacks come from a per-thread pool: the default-size stack is
/// recycled across groups instead of heap-allocated per fiber, so a
/// kernel that launches thousands of barrier groups allocates a handful
/// of stacks per worker thread in total.

#include <ucontext.h>

#include <cstddef>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

namespace syclport::rt {

/// Default fiber stack size; stacks of exactly this size are pooled.
inline constexpr std::size_t kFiberStackBytes = 128 * 1024;

/// A single cooperatively-scheduled fiber.
class Fiber {
 public:
  using RawFn = void (*)(void*);

  /// `fn` runs on the fiber's own stack when resume() is first called.
  /// `stack_bytes` must be generous enough for the kernel's frames.
  explicit Fiber(std::function<void()> fn,
                 std::size_t stack_bytes = kFiberStackBytes);

  /// Zero-allocation form: `fn(ctx)` runs on the fiber. The callable
  /// behind `ctx` must outlive the fiber; no std::function is built.
  Fiber(RawFn fn, void* ctx, std::size_t stack_bytes = kFiberStackBytes);

  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Run the fiber until it yields or finishes. Returns true while the
  /// fiber still has work left (i.e. it yielded), false once finished.
  /// Rethrows any exception the fiber body threw.
  bool resume();

  /// Called from inside the fiber body: suspend and return control to
  /// the resume() caller.
  static void yield();

  [[nodiscard]] bool done() const noexcept { return done_; }

 private:
  void init(std::size_t stack_bytes);
  static void trampoline();

  RawFn raw_fn_ = nullptr;
  void* raw_ctx_ = nullptr;
  std::function<void()> owned_fn_;  ///< set only by the owning ctor
  char* stack_ = nullptr;           ///< from the per-thread stack pool
  std::size_t stack_bytes_ = 0;
  ucontext_t ctx_{};
  ucontext_t caller_{};
  bool started_ = false;
  bool done_ = false;
  std::exception_ptr error_;
};

/// Cumulative counters of the calling thread's fiber stack pool
/// (test/bench hook for verifying stack reuse).
struct FiberStackStats {
  std::size_t allocated = 0;  ///< stacks obtained with operator new[]
  std::size_t reused = 0;     ///< stacks served from the pool
};
[[nodiscard]] FiberStackStats fiber_stack_stats() noexcept;

namespace detail {

/// Type-erased work-item entry: `invoke(task, i)` runs item i.
using GroupInvoke = void (*)(void* task, std::size_t index);

/// The work-group running on this thread, from item 0's start to the
/// group's end. It is the thread's current group for that time, and
/// the thread's outer group and fiber are restored when it ends, so
/// groups nest inside work-items and unwind cleanly on exceptions.
class GroupScope {
 public:
  GroupScope(std::size_t n, GroupInvoke invoke, void* task) noexcept;
  ~GroupScope();
  GroupScope(const GroupScope&) = delete;
  GroupScope& operator=(const GroupScope&) = delete;

  /// True once item 0 has reached a barrier (fiber mode).
  [[nodiscard]] bool used_barrier() const noexcept { return used_barrier_; }

  /// Item 0 returned in fiber mode: run every fiber item to its end.
  void drain();

  /// Item 0 returned without a barrier: items 1..n-1 run inline next,
  /// and a barrier reached there is non-uniform.
  void enter_tail() noexcept { phase_ = Phase::Tail; }

  /// group_barrier() of a work-item of this group.
  void barrier();

 private:
  enum class Phase { Item0, Tail, Drain };

  struct Item {
    GroupInvoke invoke;
    void* task;
    std::size_t i;
  };

  /// Item 0 is at a barrier: bring every other item to it (on the
  /// first barrier, start each on its own fiber).
  void round();

  std::size_t n_;
  GroupInvoke invoke_;
  void* task_;
  Phase phase_ = Phase::Item0;
  bool used_barrier_ = false;
  std::vector<Item> items_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  GroupScope* outer_;
  Fiber* outer_fiber_;
};

}  // namespace detail

/// Runs `n` logical work-items that may synchronise with group_barrier().
///
/// Work-item 0 runs first, on the calling thread's stack. If it
/// returns without reaching a barrier, `tail(1, n)` runs items 1..n-1
/// in ascending order with no fiber. If it reaches a barrier, items
/// 1..n-1 run on fibers that item 0's barriers step in lock step, and
/// `tail` is not called; nothing is ever re-executed. A non-uniform
/// barrier raises std::logic_error: one reached on the tail, a fiber
/// item that returns while item 0 waits at a barrier, or a fiber item
/// that reaches a barrier after item 0 returned.
///
/// Returns true when the group actually used barriers (fiber mode).
template <typename F, typename Tail>
bool run_barrier_group(std::size_t n, F&& task, Tail&& tail) {
  if (n == 0) return false;
  using Task = std::remove_reference_t<F>;
  const detail::GroupInvoke invoke = [](void* t, std::size_t i) {
    (*static_cast<Task*>(t))(i);
  };
  detail::GroupScope scope(
      n, invoke,
      const_cast<void*>(static_cast<const void*>(std::addressof(task))));
  task(std::size_t{0});
  if (scope.used_barrier()) {
    scope.drain();
    return true;
  }
  scope.enter_tail();
  tail(std::size_t{1}, n);
  return false;
}

/// run_barrier_group whose barrier-free tail calls `task` per item.
template <typename F>
bool run_barrier_group(std::size_t n, F&& task) {
  return run_barrier_group(n, task, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) task(i);
  });
}

/// SYCL-style group barrier; callable only from inside run_barrier_group
/// tasks (or any live Fiber, where it yields).
void group_barrier();

}  // namespace syclport::rt
