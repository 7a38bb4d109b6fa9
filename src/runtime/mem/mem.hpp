#pragma once
/// \file mem.hpp
/// NUMA/bandwidth-aware memory subsystem: the allocation layer every
/// device-visible storage path (sycl::buffer, USM, OPS/OP2 dats) routes
/// through.
///
/// The paper's applications are bandwidth-bound, so what the allocator
/// does to the memory system matters as much as what the executor does:
///  - a size-class *pool* (per-thread free caches over a global arena)
///    recycles blocks so iterative apps that create per-timestep
///    temporaries stop paying mmap + page-fault + memset churn;
///  - *parallel first-touch*: fresh pages are touched (or zeroed) by
///    the thread-pool workers under a static schedule - the same
///    worker-to-range topology the executor uses to stream the data -
///    so on first-touch NUMA systems pages land next to the cores that
///    will read them (BabelStream documents this as a requirement for
///    meaningful CPU numbers);
///  - *transparent huge pages*: allocations at or above 2 MiB are
///    2 MiB-aligned and madvise(MADV_HUGEPAGE)d, cutting TLB pressure
///    on the multi-GiB working sets the study uses;
///  - telemetry (pool hit rate, bytes first-touched, huge-page
///    coverage) is exported through stats() and surfaced by
///    sycl::launch_log and the study report.
///
/// Knobs (all parsed through rt::env, docs/memory.md):
///   SYCLPORT_POOL=on|off          pool on/off           (default on)
///   SYCLPORT_POOL_MAX_MB=N        pooled-bytes cap      (default 1024)
///   SYCLPORT_HUGEPAGES=on|off     huge-page path        (default on)
///   SYCLPORT_FIRST_TOUCH=on|off   parallel first touch  (default on)
///   SYCLPORT_STREAM_STORES=on|off non-temporal stores   (default on)

#include <cstddef>
#include <cstdint>

namespace syclport::rt::mem {

/// Process-wide configuration, initialised once from the environment.
struct Config {
  bool pool = true;         ///< size-class pooling of freed blocks
  bool hugepages = true;    ///< 2 MiB alignment + MADV_HUGEPAGE >= threshold
  bool first_touch = true;  ///< parallel page touch/zero of fresh blocks
  bool stream_stores = true;  ///< non-temporal stores in fill/copy paths
  std::size_t pool_max_bytes = std::size_t{1024} << 20;  ///< arena cap
};

[[nodiscard]] const Config& config();

/// Replace the configuration (tests/benches). Flushes the pool so
/// blocks allocated under the old config are returned to the OS with
/// their recorded alignment.
void set_config_for_testing(const Config& c);

/// How alloc() initialises a fresh block.
enum class Init : std::uint8_t {
  None,   ///< no touch: the caller materialises lazily (sycl::buffer)
  Touch,  ///< parallel first-touch of every page, content unspecified
  Zero,   ///< parallel streaming zero of the whole block
};

/// Allocate `bytes` (>= 64-byte aligned; 2 MiB-aligned on the
/// huge-page path). Pool-reused blocks skip Init::Touch - their pages
/// are already placed - but Init::Zero always zeroes.
[[nodiscard]] void* alloc(std::size_t bytes, Init init = Init::Touch);

/// Return a block to the pool (or to the OS when pooling is off, the
/// block's class is not pooled, or the arena cap is reached). Null is
/// ignored.
void dealloc(void* p) noexcept;

/// Release every pooled block to the OS (benches/tests; also used by
/// set_config_for_testing).
void trim();

/// Rounded block size alloc() would use for a request of `bytes`
/// (the size-class boundary; exposed for tests).
[[nodiscard]] std::size_t size_class_bytes(std::size_t bytes) noexcept;

/// Parallel streaming zero of an existing allocation - the lazy
/// materialisation path of sycl::buffer. Counts toward zeroed and
/// first-touched telemetry.
void zero_fill(void* p, std::size_t bytes);

/// Cumulative allocation/placement telemetry (relaxed atomic counters;
/// a snapshot is internally consistent enough for reporting).
struct MemStats {
  std::uint64_t alloc_calls = 0;     ///< alloc() invocations
  std::uint64_t pool_hits = 0;       ///< served from a free cache/arena
  std::uint64_t fresh_allocs = 0;    ///< served by the OS
  /// Requests served by the graceful-degradation path: the pooled
  /// size-class allocation failed (arena-cap exhaustion or upstream
  /// bad_alloc, real or injected), so the request was satisfied by a
  /// plain aligned allocation that bypasses the pool. Never fatal;
  /// docs/resilience.md.
  std::uint64_t pool_fallbacks = 0;
  std::uint64_t bytes_allocated = 0; ///< cumulative rounded bytes handed out
  std::uint64_t bytes_pooled = 0;    ///< bytes currently parked in the pool
  std::uint64_t bytes_outstanding = 0;  ///< live (handed out, not freed)
  std::uint64_t bytes_first_touched = 0;  ///< parallel touch/zero paths
  std::uint64_t bytes_zeroed = 0;         ///< Init::Zero + zero_fill
  std::uint64_t hugepage_bytes = 0;  ///< cumulative bytes on the huge path
  std::uint64_t stream_fill_bytes = 0;  ///< streaming-store fill traffic
  std::uint64_t stream_copy_bytes = 0;  ///< streaming-store copy traffic

  /// Fraction of alloc() calls served by the pool.
  [[nodiscard]] double pool_hit_rate() const {
    return alloc_calls == 0
               ? 0.0
               : static_cast<double>(pool_hits) /
                     static_cast<double>(alloc_calls);
  }
  /// Fraction of cumulative allocated bytes on the huge-page path.
  [[nodiscard]] double hugepage_coverage() const {
    return bytes_allocated == 0
               ? 0.0
               : static_cast<double>(hugepage_bytes) /
                     static_cast<double>(bytes_allocated);
  }
};

[[nodiscard]] MemStats stats();
void reset_stats_for_testing();

/// Effective streaming-store switch (config; checked by stream.hpp).
[[nodiscard]] bool stream_stores_active() noexcept;

namespace detail {
/// Telemetry hooks for the streaming-store helpers (stream.hpp).
void note_stream_fill(std::size_t bytes) noexcept;
void note_stream_copy(std::size_t bytes) noexcept;
}  // namespace detail

}  // namespace syclport::rt::mem
