#pragma once
/// \file platform.hpp
/// Calibrated descriptors of the six hardware platforms in the study
/// (paper §2 and Table 1). These numbers anchor the analytic
/// performance model: achieved STREAM-Triad bandwidth is taken directly
/// from Table 1 (it is the denominator of every "architectural
/// efficiency" the paper reports); cache sizes, clock rates and peak
/// FLOP rates come from the paper's §2 and §4.1 text and vendor specs.

#include <array>
#include <string_view>

#include "core/types.hpp"

namespace syclport::hw {

/// One cache level of the modeled memory hierarchy.
struct CacheLevel {
  double bytes = 0.0;    ///< total capacity usable by one kernel sweep
  double bw_gbs = 0.0;   ///< sustained bandwidth when resident
};

/// Static performance descriptor of a platform.
struct Platform {
  PlatformId id{};
  std::string_view name;
  bool gpu = false;

  double stream_bw_gbs = 0.0;   ///< BabelStream Triad, Table 1 (measured)
  double peak_bw_gbs = 0.0;     ///< theoretical DRAM bandwidth
  double fp32_tflops = 0.0;     ///< peak FP32 vector throughput
  double fp64_tflops = 0.0;     ///< peak FP64 vector throughput

  /// Effective L1/LSU bandwidth for stencil access patterns (bytes
  /// metric: l1.bw_gbs). Far below the nominal L1 figure: unaligned
  /// vector taps, bank conflicts and issue limits are folded in; it is
  /// the calibrated ceiling that high-order stencils hit (RTM/Acoustic,
  /// paper §4.1). l1.bytes is the aggregate capacity (informational).
  CacheLevel l1;
  CacheLevel llc;               ///< last-level cache relevant to reuse
                                ///< (L2 on GPUs, L3 on CPUs)

  /// Fraction of STREAM bandwidth a real multi-array kernel sustains
  /// (mixed read/write streams, TLB, imperfect prefetch).
  double app_bw_frac = 1.0;

  double launch_latency_us = 0.0;  ///< native-model kernel launch latency
  double atomic_gups = 0.0;        ///< FP64 atomic updates/s (safe flavour)
  double atomic_gups_unsafe = 0.0; ///< "unsafe" FP atomics where distinct

  int sub_group = 1;            ///< warp / wavefront / SIMD width (items)
  double line_bytes = 64.0;     ///< memory transaction granularity
  int cores = 1;                ///< CUs / SMs / CPU cores
  int numa_domains = 1;

  /// Ceiling on work-item issue for tiny (latency-bound) kernels,
  /// in 1e9 items/s; boundary loops hit this rather than bandwidth.
  double issue_gitems = 1.0;

  /// Fraction of STREAM bandwidth a single parallel loop can reach with
  /// imperfect first-touch placement across NUMA domains (pure-MPI runs
  /// do not pay this; threaded ones do).
  double numa_penalty = 1.0;
};

/// Descriptor lookup for the six studied platforms.
[[nodiscard]] const Platform& platform(PlatformId id);

/// All six platforms, study order (GPUs then CPUs).
[[nodiscard]] std::array<const Platform*, 6> all_platforms();

/// The calibrated CPU platform whose core count is nearest the host's
/// (the runtime executes on the host CPU).
[[nodiscard]] const Platform& nearest_host_platform();

}  // namespace syclport::hw
