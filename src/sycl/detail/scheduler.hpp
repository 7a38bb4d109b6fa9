#pragma once
/// \file detail/scheduler.hpp
/// The out-of-order command scheduler behind sycl::queue.
///
/// Every asynchronous command group becomes a Command: a list of
/// recorded kernel closures plus the footprint the command group
/// declared (buffer/USM base pointers x access_mode, via accessors or
/// handler::require). submit() derives RAW/WAR/WAW edges against the
/// in-flight commands - two commands conflict iff they touch the same
/// base pointer and at least one of them writes - and hands ready
/// commands to a small set of scheduler worker threads. Dependents are
/// released as their predecessors retire, so independent command groups
/// execute concurrently while dependent ones chain, exactly the
/// behaviour the paper attributes DPC++'s per-kernel dependency
/// tracking overhead to (docs/queue.md).
///
/// Granularity is the buffer *base pointer*: overlapping sub-ranges of
/// one allocation conflict even if disjoint, never the reverse.
///
/// Host-side synchronization points (event::wait, queue::wait, buffer
/// destruction, host_accessor construction, sycl::free) block on the
/// relevant subset of in-flight commands. When such a sync point is
/// reached from *inside* a scheduler worker (a kernel that itself
/// submits work), it is a no-op beyond the command's own ordering -
/// the scheduler already ordered the enclosing command, and blocking
/// on sibling commands from a worker could deadlock.
///
/// Blocked sync points do not merely sleep: while their predicate is
/// unsatisfied and ready commands exist, they claim and run commands
/// inline (work-first helping, as in blocking-join work stealing).
/// This removes the submit -> worker-wakeup -> waiter-wakeup context
/// switches whenever the waiting thread would otherwise idle - on a
/// saturated machine an event::wait right after submit degenerates to
/// running the command on the calling thread, which is exactly the
/// synchronous cost.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sycl/access.hpp"

namespace sycl::detail {

/// One declared footprint entry of a command group.
struct AccessRecord {
  const void* ptr = nullptr;
  access_mode mode = access_mode::read_write;
};

/// Two accesses conflict iff they alias and at least one writes.
[[nodiscard]] constexpr bool access_conflict(const AccessRecord& a,
                                             const AccessRecord& b) noexcept {
  return a.ptr == b.ptr && !(a.mode == access_mode::read &&
                             b.mode == access_mode::read);
}

/// Scheduling timestamps and DAG counters of one command, surfaced via
/// sycl::launch_log command records. Seconds are relative to the
/// scheduler epoch (first use), so submit->start gaps across commands
/// are directly comparable.
struct CommandProfile {
  double submit_seconds = 0.0;
  double start_seconds = 0.0;
  double end_seconds = 0.0;
  std::size_t dep_edges = 0;    ///< predecessors at submit time
  bool pool_parallel = false;   ///< kernels fanned out over the thread pool
};

/// A recorded command group in flight through the scheduler.
class Command {
 public:
  const char* name = "(command)";
  std::vector<std::function<void()>> actions;
  std::vector<AccessRecord> accesses;
  std::vector<std::shared_ptr<Command>> explicit_deps;  ///< from depends_on
  std::uint64_t queue_id = 0;
  CommandProfile profile;

  [[nodiscard]] bool done() const noexcept {
    return done_.load(std::memory_order_acquire);
  }

 private:
  friend class Scheduler;
  friend std::shared_ptr<Command> acquire_command();
  /// Return the node to its pooled state: clear the per-submission
  /// payload but keep every vector's capacity, so a recycled command
  /// records its actions and footprint without allocating.
  void reset_for_reuse() noexcept {
    name = "(command)";
    actions.clear();
    accesses.clear();
    explicit_deps.clear();
    dependents.clear();
    queue_id = 0;
    profile = CommandProfile{};
    unmet = 0;
    error = nullptr;
    done_.store(false, std::memory_order_relaxed);
  }

  unsigned unmet = 0;  ///< unretired predecessors (guarded by Scheduler::mu_)
  std::vector<std::shared_ptr<Command>> dependents;
  std::exception_ptr error;
  std::atomic<bool> done_{false};
};

/// Monotonic queue identities (each sycl::queue gets one; copies share it).
[[nodiscard]] std::uint64_t next_queue_id() noexcept;

/// A Command node from the process-wide free list (or freshly allocated
/// when the list is empty). When the last reference drops, the node -
/// including the capacity of its actions/footprint vectors - goes back
/// to the list instead of the heap, making the steady-state submit path
/// allocation-free in command bookkeeping.
[[nodiscard]] std::shared_ptr<Command> acquire_command();

class Scheduler {
 public:
  /// The process-wide scheduler. Workers start lazily on first submit.
  static Scheduler& instance();

  /// Fast idle probe: false iff no command is in flight. Lets the
  /// synchronous submit path skip the lock entirely.
  [[nodiscard]] bool active() const noexcept {
    return inflight_count_.load(std::memory_order_acquire) != 0;
  }

  /// Enqueue a command: derive dependency edges against every in-flight
  /// command, then run it as soon as all predecessors retire.
  void submit(std::shared_ptr<Command> cmd);

  /// Block until every in-flight command of the given queue retires.
  void wait_queue(std::uint64_t queue_id);
  /// Block until the scheduler is idle.
  void wait_all();
  /// Block until no in-flight command declares `ptr` in its footprint
  /// (buffer destruction, host_accessor, sycl::free).
  void wait_address(const void* ptr);
  /// Block until no in-flight command conflicts with `accesses`; an
  /// empty footprint is treated as conflicting with everything (the
  /// conservative pre-step of a synchronous undeclared-footprint
  /// submit).
  void wait_conflicts(const std::vector<AccessRecord>& accesses);
  /// Block until this command retires.
  void wait_command(const std::shared_ptr<Command>& cmd);

  /// Take (and clear) the stored kernel exception of one command /
  /// all commands of a queue. First caller wins; later calls see none.
  [[nodiscard]] std::exception_ptr consume_error(const Command* cmd);
  [[nodiscard]] std::vector<std::exception_ptr> consume_queue_errors(
      std::uint64_t queue_id);

  /// Seconds since the scheduler epoch (CommandProfile time base).
  [[nodiscard]] double now() const noexcept;

  /// Scheduler worker count (SYCLPORT_QUEUE_WORKERS).
  [[nodiscard]] unsigned workers() const noexcept { return nworkers_; }

  /// True iff the calling thread is currently executing a command.
  [[nodiscard]] static bool on_worker() noexcept;

  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

 private:
  Scheduler();
  void start_workers_locked();
  void worker_loop();
  void run_command(Command& cmd, bool solo);
  void retire_locked(const std::shared_ptr<Command>& cmd);
  bool help_one_locked(std::unique_lock<std::mutex>& lock);
  template <typename Pred>
  void wait_helping(std::unique_lock<std::mutex>& lock, Pred&& pred);

  struct StoredError {
    const Command* cmd;
    std::uint64_t queue_id;
    std::exception_ptr error;
  };

  mutable std::mutex mu_;
  std::condition_variable cv_work_;  ///< wakes workers on ready commands
  std::condition_variable cv_done_;  ///< wakes host sync points on retire
  /// Launch watchdog (SYCLPORT_WATCHDOG_MS, 0 = off): a host sync
  /// point that observes no progress - no retirement and nothing to
  /// help with - for this long throws rt::fault::watchdog_error
  /// instead of deadlocking on a command that will never retire.
  long watchdog_ms_ = 0;
  /// In-flight commands plus retired stragglers awaiting the next epoch
  /// sweep: retire_locked() only marks commands done (O(1)); the O(n)
  /// compaction runs every kRetireEpoch retirements (or when the
  /// scheduler drains). Every scan of this list must skip done() nodes.
  std::vector<std::shared_ptr<Command>> inflight_;
  std::size_t retired_since_sweep_ = 0;
  std::deque<std::shared_ptr<Command>> ready_;
  std::vector<StoredError> errors_;
  std::vector<std::thread> workers_;
  unsigned running_ = 0;
  unsigned nworkers_ = 0;
  bool started_ = false;
  bool stop_ = false;
  std::atomic<std::size_t> inflight_count_{0};
  std::chrono::steady_clock::time_point epoch_;
};

/// Host-side happens-before for direct access to `ptr` (buffer dtor,
/// host_accessor, sycl::free). No-op when the scheduler is idle or the
/// caller is itself a scheduler worker.
inline void sync_host_access(const void* ptr) {
  auto& s = Scheduler::instance();
  if (s.active() && !Scheduler::on_worker()) s.wait_address(ptr);
}

}  // namespace sycl::detail
