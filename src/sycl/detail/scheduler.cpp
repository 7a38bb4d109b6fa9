#include "sycl/detail/scheduler.hpp"

#include <algorithm>

#include "runtime/env.hpp"
#include "runtime/fault/fault.hpp"
#include "runtime/thread_pool.hpp"
#include "sycl/launch_log.hpp"

namespace sycl::detail {

namespace fault = syclport::rt::fault;

namespace {

/// The command the calling thread is currently executing, if any. Used
/// to exclude a command from its own synchronization points and to
/// detect worker-context host syncs (which must not block on sibling
/// commands - see the file comment in scheduler.hpp).
thread_local const Command* t_current_command = nullptr;

/// Retired commands are compacted out of inflight_ every this many
/// retirements (or when the scheduler drains) instead of one O(n)
/// erase per retire - the bulk of the per-launch DAG bookkeeping cost
/// measured by bench/ablation_async.
constexpr std::size_t kRetireEpoch = 32;

/// Free-list ceiling; beyond it released commands go back to the heap
/// (a burst of thousands of in-flight commands should not pin its
/// high-water memory forever).
constexpr std::size_t kPoolMax = 256;

[[nodiscard]] unsigned worker_count_from_env() {
  if (const auto v =
          syclport::rt::env::get_long("SYCLPORT_QUEUE_WORKERS", 1, 1024))
    return static_cast<unsigned>(*v);
  // Enough workers that independent commands overlap, few enough that
  // they do not crowd out the kernel thread pool; min 2 keeps the
  // concurrency visible on single-core CI machines.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::clamp(hw, 2u, 8u);
}

/// Command free list. Deleters of live commands hold the pool through a
/// shared_ptr, so a command released during static destruction still
/// has a pool to return to regardless of destruction order.
struct CommandPool {
  std::mutex mu;
  std::vector<std::unique_ptr<Command>> free;
};

[[nodiscard]] const std::shared_ptr<CommandPool>& command_pool() {
  static const std::shared_ptr<CommandPool> pool =
      std::make_shared<CommandPool>();
  return pool;
}

}  // namespace

std::shared_ptr<Command> acquire_command() {
  const auto& pool = command_pool();
  std::unique_ptr<Command> node;
  {
    std::lock_guard lock(pool->mu);
    if (!pool->free.empty()) {
      node = std::move(pool->free.back());
      pool->free.pop_back();
    }
  }
  if (!node) node = std::make_unique<Command>();
  return {node.release(), [pool](Command* c) {
            c->reset_for_reuse();
            std::lock_guard lock(pool->mu);
            if (pool->free.size() < kPoolMax)
              pool->free.emplace_back(c);
            else
              delete c;
          }};
}

std::uint64_t next_queue_id() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Scheduler& Scheduler::instance() {
  static Scheduler s;
  return s;
}

Scheduler::Scheduler()
    : nworkers_(worker_count_from_env()),
      epoch_(std::chrono::steady_clock::now()) {
  if (const auto v = syclport::rt::env::get_long("SYCLPORT_WATCHDOG_MS", 1,
                                                 86'400'000))
    watchdog_ms_ = *v;
}

Scheduler::~Scheduler() {
  wait_all();
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

double Scheduler::now() const noexcept {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

bool Scheduler::on_worker() noexcept { return t_current_command != nullptr; }

void Scheduler::start_workers_locked() {
  // Touch the singletons commands use while running *before* the first
  // worker exists: function-local statics are destroyed in reverse
  // construction order, so this guarantees the kernel pool and the
  // launch log outlive every command the destructor may still drain.
  syclport::rt::ThreadPool::global();
  launch_log::instance();
  workers_.reserve(nworkers_);
  for (unsigned i = 0; i < nworkers_; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  started_ = true;
}

void Scheduler::submit(std::shared_ptr<Command> cmd) {
  cmd->profile.submit_seconds = now();
  std::lock_guard lock(mu_);
  if (stop_) {  // static-destruction stragglers run inline
    for (auto& a : cmd->actions) a();
    cmd->done_.store(true, std::memory_order_release);
    return;
  }
  if (!started_) start_workers_locked();
  for (const auto& f : inflight_) {
    if (f->done()) continue;  // retired, awaiting the next epoch sweep
    bool dep = false;
    for (const auto& a : cmd->accesses) {
      for (const auto& b : f->accesses)
        if (access_conflict(a, b)) {
          dep = true;
          break;
        }
      if (dep) break;
    }
    if (!dep)
      for (const auto& e : cmd->explicit_deps)
        if (e.get() == f.get()) {
          dep = true;
          break;
        }
    if (dep) {
      f->dependents.push_back(cmd);
      ++cmd->unmet;
    }
  }
  cmd->explicit_deps.clear();  // retired deps contribute no edges
  cmd->profile.dep_edges = cmd->unmet;
  inflight_.push_back(cmd);
  inflight_count_.fetch_add(1, std::memory_order_release);
  if (cmd->unmet == 0) {
    // Injected completion reordering (sched.reorder): a rolled command
    // jumps the ready queue. DAG edges are still honored - only the
    // order among *independent* commands changes - so a correct program
    // must produce the same answer.
    if (fault::armed() && fault::roll(fault::Site::SchedReorder).fire)
      ready_.push_front(std::move(cmd));
    else
      ready_.push_back(std::move(cmd));
    cv_work_.notify_one();
  }
}

void Scheduler::worker_loop() {
  std::unique_lock lock(mu_);
  for (;;) {
    cv_work_.wait(lock, [&] { return stop_ || !ready_.empty(); });
    if (stop_) return;
    auto cmd = std::move(ready_.front());
    ready_.pop_front();
    // A command alone on the scheduler may fan its kernels out over the
    // whole pool; with siblings running (or queued), each command runs
    // its kernels serially so commands overlap *each other* instead of
    // fighting over the pool's blocking submit path.
    const bool solo = ready_.empty() && running_ == 0;
    ++running_;
    lock.unlock();
    run_command(*cmd, solo);
    lock.lock();
    --running_;
    retire_locked(cmd);
  }
}

void Scheduler::run_command(Command& cmd, bool solo) {
  const Command* prev = t_current_command;
  t_current_command = &cmd;
  cmd.profile.start_seconds = now();
  cmd.profile.pool_parallel = solo;
  try {
    if (fault::armed()) {
      // sched.delay stretches the command's execution window, exposing
      // completion-order assumptions; sched.throw models a kernel that
      // fails mid-flight and must surface through wait_and_throw() as
      // an exception_list entry, leaving the queue usable.
      if (const auto r = fault::roll(fault::Site::SchedDelay); r.fire)
        fault::inject_sleep(r.value, 100, 1500);
      if (fault::roll(fault::Site::SchedThrow).fire)
        throw fault::fault_injected_error(
            std::string("injected kernel failure in command '") + cmd.name +
            "'");
    }
    if (solo) {
      for (auto& a : cmd.actions) a();
    } else {
      syclport::rt::ScopedSerialExecution serial;
      for (auto& a : cmd.actions) a();
    }
  } catch (...) {
    cmd.error = std::current_exception();
  }
  cmd.profile.end_seconds = now();
  t_current_command = prev;
  auto& lg = launch_log::instance();
  if (lg.enabled())
    lg.append_command(command_record{cmd.name, cmd.queue_id, cmd.profile});
}

void Scheduler::retire_locked(const std::shared_ptr<Command>& cmd) {
  cmd->done_.store(true, std::memory_order_release);
  if (cmd->error)
    errors_.push_back({cmd.get(), cmd->queue_id, cmd->error});
  for (auto& dep : cmd->dependents)
    if (--dep->unmet == 0) {
      ready_.push_back(dep);
      cv_work_.notify_one();
    }
  cmd->dependents.clear();
  // Epoch retirement: leave the node in inflight_ (scans skip done()
  // commands) and compact in bulk - one O(n) sweep amortized over
  // kRetireEpoch retirements instead of an O(n) erase on every one.
  const std::size_t live =
      inflight_count_.fetch_sub(1, std::memory_order_release) - 1;
  if (live == 0) {
    inflight_.clear();  // drained: every node is done, release them all
    retired_since_sweep_ = 0;
  } else if (++retired_since_sweep_ >= kRetireEpoch) {
    std::erase_if(inflight_, [](const auto& f) { return f->done(); });
    retired_since_sweep_ = 0;
  }
  cv_done_.notify_all();
}

bool Scheduler::help_one_locked(std::unique_lock<std::mutex>& lock) {
  if (ready_.empty()) return false;
  auto cmd = std::move(ready_.front());
  ready_.pop_front();
  const bool solo = ready_.empty() && running_ == 0;
  ++running_;
  lock.unlock();
  run_command(*cmd, solo);
  lock.lock();
  --running_;
  retire_locked(cmd);
  return true;
}

template <typename Pred>
void Scheduler::wait_helping(std::unique_lock<std::mutex>& lock, Pred&& pred) {
  // Watchdog deadline, armed only when SYCLPORT_WATCHDOG_MS is set. It
  // resets whenever this thread makes progress (helps a command) or a
  // retirement wakes it; it fires only after a full quiet window with
  // the predicate still unsatisfied and nothing to help with - i.e. a
  // genuine hang, not a long kernel this thread can observe finishing.
  using clock = std::chrono::steady_clock;
  const auto window = std::chrono::milliseconds(watchdog_ms_);
  auto deadline = watchdog_ms_ > 0 ? clock::now() + window
                                   : clock::time_point::max();
  for (;;) {
    if (pred()) return;
    // Run ready work on this thread instead of sleeping: the awaited
    // command (or one of its predecessors) may be among it, and every
    // command helped is one fewer worker handoff.
    if (help_one_locked(lock)) {
      if (watchdog_ms_ > 0) deadline = clock::now() + window;
      continue;
    }
    if (watchdog_ms_ <= 0) {
      cv_done_.wait(lock, [&] { return pred() || !ready_.empty(); });
      continue;
    }
    if (cv_done_.wait_until(lock, deadline,
                            [&] { return pred() || !ready_.empty(); })) {
      deadline = clock::now() + window;  // a retirement woke us: progress
      continue;
    }
    std::size_t stuck = 0;
    for (const auto& f : inflight_)
      if (!f->done()) ++stuck;
    throw fault::watchdog_error(
        "sycl launch watchdog: no scheduler progress for " +
            std::to_string(watchdog_ms_) + " ms with " +
            std::to_string(stuck) + " command(s) in flight",
        stuck);
  }
}

void Scheduler::wait_queue(std::uint64_t queue_id) {
  std::unique_lock lock(mu_);
  wait_helping(lock, [&] {
    return std::none_of(inflight_.begin(), inflight_.end(),
                        [&](const auto& f) {
                          return !f->done() && f->queue_id == queue_id &&
                                 f.get() != t_current_command;
                        });
  });
}

void Scheduler::wait_all() {
  std::unique_lock lock(mu_);
  wait_helping(lock, [&] {
    return std::none_of(inflight_.begin(), inflight_.end(),
                        [&](const auto& f) {
                          return !f->done() && f.get() != t_current_command;
                        });
  });
}

void Scheduler::wait_address(const void* ptr) {
  std::unique_lock lock(mu_);
  wait_helping(lock, [&] {
    return std::none_of(inflight_.begin(), inflight_.end(), [&](const auto& f) {
      if (f->done() || f.get() == t_current_command) return false;
      for (const auto& a : f->accesses)
        if (a.ptr == ptr) return true;
      return false;
    });
  });
}

void Scheduler::wait_conflicts(const std::vector<AccessRecord>& accesses) {
  // From a worker this is a no-op: the enclosing command was already
  // ordered at submit, and blocking on a sibling command here could
  // deadlock (the sibling may be doing the same).
  if (on_worker()) return;
  std::unique_lock lock(mu_);
  wait_helping(lock, [&] {
    return std::none_of(inflight_.begin(), inflight_.end(), [&](const auto& f) {
      if (f->done()) return false;
      if (accesses.empty()) return true;  // undeclared: conflicts with all
      for (const auto& a : accesses)
        for (const auto& b : f->accesses)
          if (access_conflict(a, b)) return true;
      return false;
    });
  });
}

void Scheduler::wait_command(const std::shared_ptr<Command>& cmd) {
  if (!cmd || cmd->done() || cmd.get() == t_current_command) return;
  std::unique_lock lock(mu_);
  wait_helping(lock, [&] { return cmd->done(); });
}

std::exception_ptr Scheduler::consume_error(const Command* cmd) {
  std::lock_guard lock(mu_);
  for (auto it = errors_.begin(); it != errors_.end(); ++it)
    if (it->cmd == cmd) {
      std::exception_ptr e = it->error;
      errors_.erase(it);
      return e;
    }
  return nullptr;
}

std::vector<std::exception_ptr> Scheduler::consume_queue_errors(
    std::uint64_t queue_id) {
  std::lock_guard lock(mu_);
  std::vector<std::exception_ptr> out;
  std::erase_if(errors_, [&](const StoredError& se) {
    if (se.queue_id != queue_id) return false;
    out.push_back(se.error);
    return true;
  });
  return out;
}

}  // namespace sycl::detail
