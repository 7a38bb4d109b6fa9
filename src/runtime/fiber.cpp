#include "runtime/fiber.hpp"

#include <cstdint>
#include <stdexcept>

namespace syclport::rt {

namespace {
thread_local Fiber* t_current_fiber = nullptr;

/// The innermost work-group running on this thread (null outside one).
thread_local detail::GroupScope* t_group = nullptr;

/// Thrown by group_barrier() in a fiber item whose group was cancelled,
/// to unwind the item's stack. Not a std::exception, so kernel code
/// that catches those does not swallow it; the fiber's trampoline
/// catches it and ~GroupScope discards it.
struct GroupCancelled {};

// --- per-thread fiber stack pool -------------------------------------------

/// Only default-size stacks are recycled; odd sizes are one-offs. The cap
/// bounds retention for kernels with very wide groups (a 1024-item group
/// briefly needs 1024 stacks, but only kMaxPooledStacks survive it).
constexpr std::size_t kMaxPooledStacks = 64;

struct StackPool {
  std::vector<char*> free;
  FiberStackStats stats;
  ~StackPool() {
    for (char* p : free) delete[] p;
  }
};
thread_local StackPool t_stack_pool;

char* acquire_stack(std::size_t bytes) {
  StackPool& pool = t_stack_pool;
  if (bytes == kFiberStackBytes && !pool.free.empty()) {
    char* p = pool.free.back();
    pool.free.pop_back();
    ++pool.stats.reused;
    return p;
  }
  ++pool.stats.allocated;
  return new char[bytes];
}

void release_stack(char* p, std::size_t bytes) noexcept {
  StackPool& pool = t_stack_pool;
  if (bytes == kFiberStackBytes && pool.free.size() < kMaxPooledStacks) {
    pool.free.push_back(p);
    return;
  }
  delete[] p;
}

}  // namespace

FiberStackStats fiber_stack_stats() noexcept { return t_stack_pool.stats; }

// --- Fiber ------------------------------------------------------------------

void Fiber::init(std::size_t stack_bytes) {
  stack_ = acquire_stack(stack_bytes);
  stack_bytes_ = stack_bytes;
  if (getcontext(&ctx_) != 0) {
    release_stack(stack_, stack_bytes_);
    stack_ = nullptr;
    throw std::runtime_error("Fiber: getcontext failed");
  }
  ctx_.uc_stack.ss_sp = stack_;
  ctx_.uc_stack.ss_size = stack_bytes;
  ctx_.uc_link = &caller_;
  makecontext(&ctx_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 0);
}

Fiber::Fiber(std::function<void()> fn, std::size_t stack_bytes)
    : owned_fn_(std::move(fn)) {
  init(stack_bytes);
}

Fiber::Fiber(RawFn fn, void* ctx, std::size_t stack_bytes)
    : raw_fn_(fn), raw_ctx_(ctx) {
  init(stack_bytes);
}

Fiber::~Fiber() {
  if (stack_ != nullptr) release_stack(stack_, stack_bytes_);
}

void Fiber::trampoline() {
  Fiber* self = t_current_fiber;
  try {
    if (self->raw_fn_ != nullptr)
      self->raw_fn_(self->raw_ctx_);
    else
      self->owned_fn_();
  } catch (...) {
    self->error_ = std::current_exception();
  }
  self->done_ = true;
  // uc_link returns control to the caller context automatically.
}

bool Fiber::resume() {
  if (done_) return false;
  Fiber* prev = t_current_fiber;
  t_current_fiber = this;
  started_ = true;
  if (swapcontext(&caller_, &ctx_) != 0)
    throw std::runtime_error("Fiber: swapcontext failed");
  t_current_fiber = prev;
  if (error_) std::rethrow_exception(error_);
  return !done_;
}

void Fiber::yield() {
  Fiber* self = t_current_fiber;
  if (self == nullptr)
    throw std::logic_error("Fiber::yield called outside a fiber");
  if (swapcontext(&self->ctx_, &self->caller_) != 0)
    throw std::runtime_error("Fiber: swapcontext failed");
}

// --- barrier groups ---------------------------------------------------------

void group_barrier() {
  if (t_group != nullptr) {
    t_group->barrier();
    return;
  }
  if (t_current_fiber != nullptr) {
    Fiber::yield();
    return;
  }
  throw std::logic_error("group_barrier called outside a work-group");
}

namespace detail {

GroupScope::GroupScope(std::size_t n, GroupInvoke invoke, void* task) noexcept
    : n_(n),
      invoke_(invoke),
      task_(task),
      outer_(t_group),
      outer_fiber_(t_current_fiber) {
  // Item 0 runs on this stack as the group's own item, not as a step
  // of whatever fiber the enclosing work-item may be running on.
  t_group = this;
  t_current_fiber = nullptr;
}

GroupScope::~GroupScope() {
  phase_ = Phase::Cancel;
  for (auto& f : fibers_) {
    if (f->done()) continue;
    try {
      f->resume();
    } catch (...) {  // GroupCancelled, or the item's own error
    }
  }
  t_group = outer_;
  t_current_fiber = outer_fiber_;
}

void GroupScope::barrier() {
  switch (phase_) {
    case Phase::Item0:
      if (t_current_fiber == nullptr) {
        round();
        return;
      }
      Fiber::yield();  // a fiber item, now level with item 0
      if (phase_ == Phase::Cancel) throw GroupCancelled{};
      return;
    case Phase::Tail:
      throw std::logic_error(
          "group_barrier: non-uniform barrier (work-item 0 did not reach it)");
    case Phase::Drain:
      throw std::logic_error(
          "group_barrier: non-uniform barrier (work-item 0 had returned)");
    case Phase::Cancel:
      throw GroupCancelled{};
  }
}

void GroupScope::round() {
  static constexpr const char* kReturned =
      "group_barrier: non-uniform barrier (a work-item returned while "
      "work-item 0 waited at it)";
  if (!used_barrier_) {
    // First barrier: start every other item and run it to this same
    // barrier before item 0 continues, so that no item ever runs past
    // barrier k before all reached it.
    used_barrier_ = true;
    items_.reserve(n_ - 1);
    fibers_.reserve(n_ - 1);
    for (std::size_t i = 1; i < n_; ++i) {
      items_.push_back(Item{invoke_, task_, i});
      fibers_.push_back(std::make_unique<Fiber>(
          [](void* p) {
            auto* item = static_cast<Item*>(p);
            item->invoke(item->task, item->i);
          },
          &items_.back()));
      if (!fibers_.back()->resume()) throw std::logic_error(kReturned);
    }
    return;
  }
  for (auto& f : fibers_)
    if (!f->resume()) throw std::logic_error(kReturned);
}

void GroupScope::drain() {
  phase_ = Phase::Drain;
  for (auto& f : fibers_) f->resume();
}

}  // namespace detail

}  // namespace syclport::rt
