#pragma once
/// \file autotune/config.hpp
/// Identity and configuration types of the online autotuner.
///
/// A Site names one tunable launch site: kernel name, dimensionality,
/// global shape and formulation (flat vs nd_range), plus the set of
/// axes the call site can act on. Its key() is the stable identity the
/// tuner and the persistent cache use - the same fields launch_log
/// records per launch, plus a footprint class bucketing the iteration
/// count so the key survives cosmetic renames of equal-sized launches.
///
/// A Config is one point in the search space. Every axis is optional:
/// a site only receives values for the axes it declared, and the cache
/// round-trips exactly the axes that were tuned.

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "runtime/thread_pool.hpp"

namespace syclport::rt::autotune {

/// How a launch was served by the tuner (recorded in sycl::launch_log).
enum class Phase : std::uint8_t {
  None,        ///< tuner off / site not tuned
  Exploring,   ///< a search candidate served this launch
  Exploiting,  ///< the locked-in winner served this launch
};

[[nodiscard]] const char* to_string(Phase p) noexcept;

/// Tunable axes, bitmask. A site declares the union of knobs its
/// lowering actually consumes.
enum Axis : unsigned {
  kScheduleGrain = 1u << 0,  ///< executor Schedule x grain (thread pool)
  kWorkGroup = 1u << 1,      ///< nd_range local shape (SyclNd lowering)
  kOverlap = 1u << 2,        ///< halo/compute overlap strategy (dist)
  kTile = 1u << 3,           ///< LoopChain slow-dimension tile depth
  kFirstTouch = 1u << 4,     ///< rt::mem parallel first-touch on/off
  kFuse = 1u << 5,           ///< LoopChain fused vs reference schedule
  kCacheBlock = 1u << 9,     ///< fast-dimension cache-block size (items)
  kLayout = 1u << 10,        ///< physical dat layout (AoS/SoA/AoSoA)
  kIndirect = 1u << 11,      ///< indirect-increment strategy (op2)
};

/// One candidate (or winning) configuration. Axes a site did not
/// declare stay nullopt and must not be acted on.
struct Config {
  std::optional<Schedule> schedule;
  std::optional<std::size_t> grain;
  /// nd_range local shape, slowest dimension first (LoopProfile layout).
  std::optional<std::array<std::size_t, 3>> local;
  /// true = submit through the out-of-order queue, false = inline.
  std::optional<bool> overlap_queue;
  /// LoopChain tile depth; 0 = untiled reference schedule.
  std::optional<std::size_t> tile;
  /// rt::mem parallel first-touch for allocations made inside the
  /// tuned scope (true = parallel placement, false = serial).
  std::optional<bool> first_touch;
  /// LoopChain fusion decision: true = overlap-tiled fused segments,
  /// false = the unfused reference schedule (tile is then moot).
  std::optional<bool> fuse;
  /// Fast-dimension cache-block size in items; 0 = unblocked. Only
  /// independent-point (non-reduction) sites declare this axis - the
  /// blocked traversal reorders iterations.
  std::optional<std::size_t> cache_block;
  /// Physical layout of the indirectly gathered dats (kLayout):
  /// op2::Layout codes 0=AoS 1=SoA 2=AoSoA. The consuming par_loop
  /// transcodes the dats to the decided layout before the sweep.
  std::optional<int> layout;
  /// Race-resolution strategy for indirect-increment loops (kIndirect):
  /// core Strategy codes 1=Atomics 2=GlobalColor 3=Hierarchical
  /// 4=Staged. Candidates are generated so non-AoS layouts only pair
  /// with the staged lowering (the eager binders need AoS).
  std::optional<int> indirect;

  /// Space-separated `axis=value` rendering, the cache wire format.
  [[nodiscard]] std::string to_string() const;
  /// Inverse of to_string(); nullopt on any malformed token.
  [[nodiscard]] static std::optional<Config> parse(std::string_view s);

  [[nodiscard]] bool operator==(const Config&) const = default;
};

/// Stable identity of a tunable launch site.
struct Site {
  const char* name = "(kernel)";
  int dims = 1;
  std::array<std::size_t, 3> global{1, 1, 1};
  bool nd = false;        ///< nd_range formulation (kWorkGroup meaningful)
  unsigned axes = kScheduleGrain;
  std::size_t max_wg = 1024;  ///< device work-group ceiling (shape clamp)

  /// `name|dims|g0xg1xg2|flat/nd|fpN|axM` - N = floor(log2(total
  /// items)), the footprint class; M = the declared axis bitmask, so
  /// two same-named same-shaped sites with different axis sets (a
  /// Threads lowering racing cache blocks vs a Serial one racing
  /// schedule alone) can never collide in the cache.
  [[nodiscard]] std::string key() const;
  /// Total iteration count (product of the used global extents).
  [[nodiscard]] std::size_t total() const noexcept;
};

/// Search-space priors. Defaults reproduce the PR 1/PR 2 findings
/// (steal-half first, power-of-two grains); hwmodel refines them from
/// the platform descriptor closest to the host (hwmodel/tuning_priors).
struct Priors {
  std::array<Schedule, 3> schedule_order{Schedule::Steal, Schedule::Static,
                                         Schedule::Dynamic};
  /// Grain seeds; 0 entries are dropped, the value 1 is always tried.
  std::array<std::size_t, 3> grains{1, 1024, 16384};
  /// Work-group totals the shape candidates are built from.
  std::array<std::size_t, 2> wg_totals{64, 256};
  /// LoopChain tile seeds (0 = untiled is always included).
  std::array<std::size_t, 3> tiles{8, 32, 128};
  /// First-touch candidate order: parallel placement first on NUMA
  /// platforms (hwmodel flips this on single-domain descriptors where
  /// serial touch can win by leaving placement to the OS).
  std::array<bool, 2> first_touch_order{true, false};

  /// Cache-block seeds in items (kCacheBlock); 0 = unblocked is always
  /// raced. hwmodel sizes the nonzero seed to an L1-resident slice of a
  /// three-stream double sweep.
  std::array<std::size_t, 2> cache_blocks{0, 1024};
  /// Indirect-strategy candidate order (kIndirect), core Strategy codes
  /// (1=Atomics 2=GlobalColor 3=Hierarchical 4=Staged); -1 entries are
  /// dropped. hwmodel leads with staged on CPUs (slow atomics, wide
  /// vectors) and atomics on GPU-like descriptors.
  std::array<int, 4> indirect_order{1, 4, -1, -1};
  /// Layout candidate order (kLayout), op2::Layout codes (0=AoS 1=SoA
  /// 2=AoSoA); -1 entries are dropped. Non-AoS entries are only crossed
  /// with the staged strategy.
  std::array<int, 3> layout_order{0, 1, -1};
};

}  // namespace syclport::rt::autotune
