#include "hwmodel/platform.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>

namespace syclport::hw {

namespace {

// Calibration notes ----------------------------------------------------------
// stream_bw_gbs : paper Table 1 (measured BabelStream Triad).
// peak_bw_gbs   : vendor theoretical peak.
// fpXX_tflops   : paper §2 where given, vendor sheets otherwise.
// llc           : paper §4.1 quotes L2 sizes 40MB (A100), 16MB (MI250X GCD),
//                 208MB (Max 1100); CPU L3 from vendor specs, Genoa-X
//                 2 x 1.1GB quoted in §4.3.
// launch_latency: µs per kernel launch for the *native* model; the paper
//                 attributes MI250X's larger boundary-loop share to higher
//                 launch latency, and DPC++-on-CPU overhead to OpenCL
//                 (see exec_profile.cpp for per-toolchain adjustments).
// atomic_gups   : FP64 atomic update throughput; MI250X distinguishes
//                 "safe" vs "unsafe" atomics (§4.3); Max 1100 atomics are
//                 the MG-CFD limiter (§4.3), hence the low figure.

constexpr Platform kA100{
    .id = PlatformId::A100,
    .name = "NVIDIA A100 40GB PCIe",
    .gpu = true,
    .stream_bw_gbs = 1310.0,
    .peak_bw_gbs = 1555.0,
    .fp32_tflops = 19.49,
    .fp64_tflops = 9.75,
    .l1 = {192.0 * 1024 * 108, 7800.0},
    .llc = {40.0 * 1024 * 1024, 4500.0},
    .app_bw_frac = 0.93,
    .launch_latency_us = 7.0,
    .atomic_gups = 150.0,
    .atomic_gups_unsafe = 150.0,
    .sub_group = 32,
    .line_bytes = 32.0,  // sector granularity
    .cores = 108,
    .numa_domains = 1,
    .issue_gitems = 150.0,
    .numa_penalty = 1.0,
};

constexpr Platform kMI250X{
    .id = PlatformId::MI250X,
    .name = "AMD MI250X (1 GCD)",
    .gpu = true,
    .stream_bw_gbs = 1290.0,
    .peak_bw_gbs = 1638.0,
    .fp32_tflops = 23.95,
    .fp64_tflops = 23.95,
    .l1 = {16.0 * 1024 * 110, 3800.0},
    .llc = {16.0 * 1024 * 1024, 3500.0},
    .app_bw_frac = 0.82,
    .launch_latency_us = 15.0,
    .atomic_gups = 55.0,
    .atomic_gups_unsafe = 120.0,
    .sub_group = 64,
    .line_bytes = 64.0,
    .cores = 110,
    .numa_domains = 1,
    .issue_gitems = 120.0,
    .numa_penalty = 1.0,
};

constexpr Platform kMax1100{
    .id = PlatformId::Max1100,
    .name = "Intel Data Center GPU Max 1100",
    .gpu = true,
    .stream_bw_gbs = 803.0,
    .peak_bw_gbs = 1229.0,
    .fp32_tflops = 22.2,
    .fp64_tflops = 22.2,
    .l1 = {512.0 * 1024 * 56, 6000.0},
    .llc = {208.0 * 1024 * 1024, 3000.0},
    .app_bw_frac = 0.86,
    .launch_latency_us = 10.0,
    .atomic_gups = 40.0,
    .atomic_gups_unsafe = 40.0,
    .sub_group = 32,
    .line_bytes = 64.0,
    .cores = 56,
    .numa_domains = 1,
    .issue_gitems = 90.0,
    .numa_penalty = 1.0,
};

constexpr Platform kXeon{
    .id = PlatformId::Xeon8360Y,
    .name = "Intel Xeon Platinum 8360Y (2S, Ice Lake)",
    .gpu = false,
    .stream_bw_gbs = 296.0,
    .peak_bw_gbs = 409.6,
    .fp32_tflops = 12.0,
    .fp64_tflops = 6.0,
    .l1 = {48.0 * 1024 * 72, 1400.0},
    .llc = {108.0 * 1024 * 1024, 1200.0},
    .app_bw_frac = 0.82,
    .launch_latency_us = 1.5,
    .atomic_gups = 60.0,
    .atomic_gups_unsafe = 60.0,
    .sub_group = 8,  // AVX-512 FP64 lanes
    .line_bytes = 64.0,
    .cores = 72,
    .numa_domains = 2,
    .issue_gitems = 45.0,
    .numa_penalty = 0.92,
};

constexpr Platform kGenoaX{
    .id = PlatformId::GenoaX,
    .name = "AMD EPYC 9V33X (2S, Genoa-X)",
    .gpu = false,
    .stream_bw_gbs = 561.0,
    .peak_bw_gbs = 921.6,
    .fp32_tflops = 14.2,
    .fp64_tflops = 7.1,
    .l1 = {32.0 * 1024 * 176, 3400.0},
    .llc = {2.0 * 1.1e9, 2500.0},  // 2 x 1.1 GB 3D V-Cache (paper §4.3)
    .app_bw_frac = 0.85,
    .launch_latency_us = 1.5,
    .atomic_gups = 60.0,
    .atomic_gups_unsafe = 60.0,
    .sub_group = 8,  // AVX-512 FP64 lanes (double-pumped on Zen 4)
    .line_bytes = 64.0,
    .cores = 176,
    .numa_domains = 4,
    .issue_gitems = 110.0,
    .numa_penalty = 0.85,
};

constexpr Platform kAltra{
    .id = PlatformId::Altra,
    .name = "Ampere Altra (1S)",
    .gpu = false,
    .stream_bw_gbs = 167.0,
    .peak_bw_gbs = 204.8,
    .fp32_tflops = 3.0,
    .fp64_tflops = 1.5,
    .l1 = {64.0 * 1024 * 64, 480.0},
    .llc = {32.0 * 1024 * 1024, 800.0},
    .app_bw_frac = 0.74,
    .launch_latency_us = 1.5,
    .atomic_gups = 40.0,
    .atomic_gups_unsafe = 40.0,
    .sub_group = 2,  // NEON FP64 lanes
    .line_bytes = 64.0,
    .cores = 64,
    .numa_domains = 1,
    .issue_gitems = 35.0,
    .numa_penalty = 1.0,
};

}  // namespace

const Platform& platform(PlatformId id) {
  switch (id) {
    case PlatformId::A100: return kA100;
    case PlatformId::MI250X: return kMI250X;
    case PlatformId::Max1100: return kMax1100;
    case PlatformId::Xeon8360Y: return kXeon;
    case PlatformId::GenoaX: return kGenoaX;
    case PlatformId::Altra: return kAltra;
  }
  throw std::invalid_argument("unknown platform id");
}

std::array<const Platform*, 6> all_platforms() {
  return {&kA100, &kMI250X, &kMax1100, &kXeon, &kGenoaX, &kAltra};
}

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

}  // namespace syclport::hw
