#include "hwmodel/tuning_priors.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <thread>

#include "hwmodel/memory_model.hpp"
#include "runtime/autotune/autotune.hpp"

namespace syclport::hw {

namespace {

/// Round to the nearest power of two, clamped to [lo, hi].
[[nodiscard]] std::size_t pow2_clamp(double v, std::size_t lo, std::size_t hi) {
  const double l = std::log2(std::max(v, 1.0));
  const auto p = static_cast<std::size_t>(1)
                 << static_cast<unsigned>(std::lround(std::max(l, 0.0)));
  return std::clamp(p, lo, hi);
}

}  // namespace

const Platform& nearest_host_platform() {
  const auto host_cores =
      static_cast<double>(std::max(1u, std::thread::hardware_concurrency()));
  const Platform* best = &platform(kCpuPlatforms[0]);
  double best_d = 1e30;
  for (const PlatformId id : kCpuPlatforms) {
    const Platform& p = platform(id);
    const double d = std::abs(std::log2(host_cores / p.cores));
    if (d < best_d) {
      best_d = d;
      best = &p;
    }
  }
  return *best;
}

rt::autotune::Priors tuning_priors(const Platform& p) {
  rt::autotune::Priors pr;
  // Schedule ordering (paper §4.1 / PR 1 ablation): multi-NUMA CPUs
  // with first-touch penalties favour stealing (it repairs imbalance
  // without a shared counter); single-domain parts run Static with
  // near-zero overhead, so try it first there.
  if (p.numa_domains > 1 || p.numa_penalty < 1.0)
    pr.schedule_order = {rt::Schedule::Steal, rt::Schedule::Static,
                         rt::Schedule::Dynamic};
  else
    pr.schedule_order = {rt::Schedule::Static, rt::Schedule::Steal,
                         rt::Schedule::Dynamic};

  // Grain seeds: a chunk of a three-array double-precision sweep that
  // (a) fits the per-core L1 slice and (b) fits a per-core share of the
  // LLC - the two residency regimes the memory model distinguishes.
  constexpr double kTriadBytes = 3.0 * sizeof(double);
  const double l1_items =
      p.l1.bytes / std::max(1, p.cores) / kTriadBytes;
  const double llc_items =
      p.llc.bytes / std::max(1, p.cores) / kTriadBytes;
  pr.grains = {1, pow2_clamp(l1_items, 64, 1u << 15),
               pow2_clamp(llc_items, 256, 1u << 20)};

  // Work-group totals: a sub-group-aligned small tile and the study's
  // 256-item default (the shape the OPS/OP2 apps tune around).
  pr.wg_totals = {pow2_clamp(4.0 * p.sub_group, 16, 128), 256};

  // LoopChain tile depths (kTile axis): cache-residency-derived. The
  // anchor is the deepest tile whose chain slab - a representative
  // bandwidth-bound chain of ~6 double fields over a study-scale
  // 1536-point row - stays within the usable LLC (memory_model's
  // chain_tile_residency); bracketed 4x either side so successive
  // halving can resolve the chain's real row size.
  constexpr double kChainRowBytes = 6.0 * sizeof(double) * 1536.0;
  const std::size_t fit = pow2_clamp(
      usable_llc_bytes(p) / kChainRowBytes, 8, 512);
  pr.tiles = {std::max<std::size_t>(4, fit / 4), fit,
              std::min<std::size_t>(2048, fit * 4)};

  // First-touch order (kFirstTouch axis): on multi-domain parts (or
  // ones with a modeled first-touch penalty) parallel placement is the
  // expected winner, so try it first; on single-domain parts the two
  // should tie and serial touch - which skips the pool fan-out - leads.
  if (p.numa_domains > 1 || p.numa_penalty < 1.0)
    pr.first_touch_order = {true, false};
  else
    pr.first_touch_order = {false, true};

  // Cache-block seed (kCacheBlock): a fast-dimension slice of a
  // three-stream double sweep that stays resident in a per-core L1
  // share while rows above revisit it.
  pr.cache_blocks = {
      0, pow2_clamp(p.l1.bytes / std::max(1, p.cores) / kTriadBytes, 128,
                    1u << 12)};

  // Indirect strategy x layout (kIndirect|kLayout, op2 edge loops).
  // CPUs: atomic throughput is 1-2 orders below GPUs while wide SIMD
  // sits idle in the racy eager sweep, so the staged lowering (dense
  // gathered streams, ordered scatter, fully vectorized) leads, and
  // SoA - which feeds those streams unit-strided - is raced against
  // AoS. GPU-like descriptors keep atomics/AoS first: hardware atomics
  // are near-free and a warp's AoS gather coalesces (paper §4.3).
  if (p.gpu) {
    pr.indirect_order = {1, 4, -1, -1};  // atomics, staged
    pr.layout_order = {0, -1, -1};       // AoS
  } else {
    pr.indirect_order = {4, 1, 3, -1};   // staged, atomics, hierarchical
    pr.layout_order = {0, 1, -1};        // AoS, SoA
  }
  return pr;
}

void seed_autotuner_priors() {
  static std::once_flag once;
  std::call_once(once, [] {
    rt::autotune::Autotuner::instance().set_priors(
        tuning_priors(nearest_host_platform()));
  });
}

}  // namespace syclport::hw
