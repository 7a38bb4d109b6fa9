#pragma once
/// \file thread_pool.hpp
/// Low-overhead execution substrate for the miniSYCL SIMT executor and
/// the OpenMP-like native backends.
///
/// Three chunk-distribution policies are supported (SYCLPORT_SCHEDULE):
///  - static  : chunks pre-split evenly over the workers, no re-balancing;
///  - dynamic : one shared atomic counter, chunk-at-a-time self-scheduling
///              (the original seed behaviour - every claim contends on one
///              cache line);
///  - steal   : per-worker chunk ranges (cache-line padded, packed into a
///              single 64-bit word) with steal-half rebalancing - owners
///              pop from the front of their own range, idle workers CAS
///              half off the back of a victim's range (default).
///
/// Launches are zero-allocation: the templated run_chunks/parallel_for
/// pass the callable by address through a function-pointer trampoline
/// whose chunk loop invokes it inline - no std::function is constructed
/// and no per-chunk type-erased call is made. The std::function overloads
/// remain as thin wrappers for type-erased callers.
///
/// Workers spin briefly before parking on a condition variable so that
/// back-to-back kernel launches (the common pattern in the apps) skip the
/// condvar wake latency entirely.
///
/// The calling thread participates as worker 0, so a pool of size 1
/// degenerates to serial execution without deadlock. A launch issued from
/// inside a running chunk (re-entrant submission) executes inline and
/// serially on the calling worker.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

namespace syclport::rt {

/// Chunk-distribution policy (see file comment).
enum class Schedule : std::uint8_t { Static, Dynamic, Steal };

/// Parse "static" | "dynamic" | "steal" (case-sensitive).
[[nodiscard]] std::optional<Schedule> parse_schedule(std::string_view s) noexcept;
[[nodiscard]] const char* to_string(Schedule s) noexcept;

/// Process-wide launch configuration. Initialised on first use from the
/// SYCLPORT_SCHEDULE and SYCLPORT_GRAIN environment variables.
struct LaunchParams {
  Schedule schedule = Schedule::Steal;
  std::size_t grain = 1;  ///< minimum iterations per chunk in parallel_for
};

[[nodiscard]] LaunchParams launch_params() noexcept;
void set_launch_params(const LaunchParams& p) noexcept;

/// RAII override of the process launch params; ops::par_loop uses this to
/// thread per-context scheduling knobs through sycl::handler, which reads
/// the process params at submit time.
class ScopedLaunchParams {
 public:
  ScopedLaunchParams(std::optional<Schedule> schedule,
                     std::optional<std::size_t> grain) noexcept;
  ~ScopedLaunchParams();
  ScopedLaunchParams(const ScopedLaunchParams&) = delete;
  ScopedLaunchParams& operator=(const ScopedLaunchParams&) = delete;

 private:
  LaunchParams saved_;
};

/// RAII: rescale the active grain (minimum iterations per chunk) for a
/// launch whose iterations are each `items` points wide - reduction
/// blocks, cache-blocked rows - so a chunk still covers about the
/// grain's worth of points.
class ScopedGrainScale {
 public:
  explicit ScopedGrainScale(std::size_t items) noexcept
      : scope_(std::nullopt,
               std::max<std::size_t>(1, launch_params().grain /
                                            std::max<std::size_t>(1, items))) {
  }

 private:
  ScopedLaunchParams scope_;
};

/// RAII: while alive, every launch issued *from this thread* runs
/// serially on it, as if the pool had one worker. The miniSYCL command
/// scheduler wraps kernels of concurrently-executing command groups in
/// this so independent commands share the machine instead of each
/// trying to fan out over the same pool (and deadlocking on the
/// blocking submit mutex). Nests; restores the previous state.
class ScopedSerialExecution {
 public:
  ScopedSerialExecution() noexcept;
  ~ScopedSerialExecution();
  ScopedSerialExecution(const ScopedSerialExecution&) = delete;
  ScopedSerialExecution& operator=(const ScopedSerialExecution&) = delete;

 private:
  bool saved_;
};

/// True while a ScopedSerialExecution is alive on the calling thread.
[[nodiscard]] bool serial_execution_forced() noexcept;

/// Per-launch executor counters, surfaced in sycl::launch_record so bench
/// reports can show scheduling overhead alongside kernel time.
struct LaunchStats {
  Schedule schedule = Schedule::Steal;
  std::size_t chunks = 0;         ///< chunks in the launch
  std::size_t steals = 0;         ///< successful steal-half operations
  std::size_t stolen_chunks = 0;  ///< chunks that migrated via stealing
  bool parallel = false;          ///< false when the launch ran inline
};

namespace detail {

/// Cancel/error state of one launch. Lives in the pool for parallel jobs
/// and on the stack for serial (or re-entrant) ones, so a nested launch
/// never clobbers the outer job's state.
struct JobState {
  std::atomic<bool> cancel{false};
  std::mutex mu;
  std::exception_ptr first_error;

  /// Record the in-flight exception (first wins) and request cancellation
  /// so the claim loops skip the remaining chunks.
  void capture() noexcept {
    cancel.store(true, std::memory_order_relaxed);
    std::lock_guard lock(mu);
    if (!first_error) first_error = std::current_exception();
  }
};

}  // namespace detail

class ThreadPool {
 public:
  /// Create a pool with `threads` workers (>= 1). The pool owns
  /// `threads - 1` background threads; the submitting thread acts as
  /// worker 0.
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of workers (including the submitting thread).
  [[nodiscard]] unsigned size() const noexcept { return threads_; }

  /// Execute `fn(chunk)` for every chunk in [0, nchunks), distributing
  /// chunks over the workers per the current Schedule. Blocks until all
  /// complete. The first exception thrown by `fn` cancels the remaining
  /// unclaimed chunks and is rethrown. Zero-allocation: `fn` is invoked
  /// inline from a per-claimed-range trampoline.
  template <typename F>
  void run_chunks(std::size_t nchunks, F&& fn) {
    if (nchunks == 0) return;
    using Fn = std::remove_reference_t<F>;
    dispatch(&invoke_chunks<Fn>,
             const_cast<void*>(static_cast<const void*>(std::addressof(fn))),
             nchunks);
  }

  /// Split [0, n) into grain-respecting ranges and call `fn(begin, end)`
  /// for each (begin < end always holds).
  template <typename F>
  void parallel_for(std::size_t n, F&& fn) {
    if (n == 0) return;
    const std::size_t chunk = chunk_size(n);
    const std::size_t nchunks = (n + chunk - 1) / chunk;
    auto body = [&fn, chunk, n](std::size_t c) {
      const std::size_t b = c * chunk;
      fn(b, std::min(n, b + chunk));
    };
    run_chunks(nchunks, body);
  }

  /// Type-erased entry points (thin wrappers over the templates above,
  /// kept for callers that hold a std::function already).
  void run_chunks(std::size_t nchunks,
                  const std::function<void(std::size_t)>& fn);
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// Counters of the most recent launch issued *from the calling thread*
  /// (thread-local, so concurrent submitters never observe each other).
  [[nodiscard]] static LaunchStats last_stats() noexcept;

  /// The process-wide pool. Size from SYCLPORT_THREADS env var, default
  /// std::thread::hardware_concurrency() (min 2 so concurrency bugs in
  /// kernels surface even on single-core CI machines).
  static ThreadPool& global();

 private:
  /// One call per claimed chunk range; the templated instantiation loops
  /// the chunks inline, checking the job's cancel flag between chunks.
  using RangeFn = void (*)(detail::JobState& job, void* ctx, std::size_t b,
                           std::size_t e);

  template <typename Fn>
  static void invoke_chunks(detail::JobState& job, void* ctx, std::size_t b,
                            std::size_t e) {
    auto& fn = *static_cast<Fn*>(ctx);
    for (std::size_t c = b; c < e; ++c) {
      if (job.cancel.load(std::memory_order_relaxed)) return;
      try {
        fn(c);
      } catch (...) {
        job.capture();
      }
    }
  }

  /// Per-worker scheduling state, padded so owner pops and thief CASes on
  /// different workers never false-share.
  struct alignas(64) WorkerSlot {
    /// Unclaimed chunk range, packed begin<<32 | end (empty when
    /// begin >= end). Owner pops the front, thieves CAS half off the back.
    std::atomic<std::uint64_t> range{0};
    /// Owner-private counters; read by the submitter after the join.
    std::uint64_t steals = 0;
    std::uint64_t stolen_chunks = 0;
  };

  void dispatch(RangeFn invoke, void* ctx, std::size_t nchunks);
  void run_serial(RangeFn invoke, void* ctx, std::size_t nchunks,
                  Schedule sched);
  void submit(RangeFn invoke, void* ctx, std::size_t nchunks, Schedule sched);
  [[nodiscard]] std::size_t chunk_size(std::size_t n) const noexcept;

  void worker_loop(unsigned worker_id);
  void work(unsigned worker_id);
  bool pop_own(unsigned worker_id, std::uint32_t& b, std::uint32_t& e);
  bool steal(unsigned worker_id, std::uint32_t& b, std::uint32_t& e);
  bool wait_done_spin() const noexcept;

  const unsigned threads_;
  std::unique_ptr<WorkerSlot[]> slots_;
  std::vector<std::thread> workers_;

  // Job descriptor: written by the submitter, published to the workers by
  // the release increment of generation_.
  RangeFn invoke_ = nullptr;
  void* ctx_ = nullptr;
  std::size_t job_chunks_ = 0;
  Schedule job_schedule_ = Schedule::Steal;
  detail::JobState job_state_;

  alignas(64) std::atomic<std::uint64_t> generation_{0};
  alignas(64) std::atomic<std::size_t> next_chunk_{0};  ///< dynamic mode
  alignas(64) std::atomic<unsigned> pending_workers_{0};
  std::atomic<bool> stop_{false};

  std::mutex mu_;  ///< parks idle workers (cv_start_) and submitter (cv_done_)
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::mutex submit_mu_;  ///< serialises launches from different threads
};

}  // namespace syclport::rt
