// Unit tests for the hardware performance model: platform descriptors,
// execution profiles, work-group heuristics, cache model, kernel-time
// assembly and the MPI halo model.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <string>
#include <thread>

#include "hwmodel/comm_model.hpp"
#include "hwmodel/device_model.hpp"
#include "hwmodel/exec_profile.hpp"
#include "hwmodel/memory_model.hpp"
#include "hwmodel/platform.hpp"
#include "hwmodel/quirks.hpp"
#include "hwmodel/workgroup.hpp"

namespace hw = syclport::hw;
using syclport::AppId;
using syclport::Model;
using syclport::PlatformId;
using syclport::Toolchain;
using syclport::Variant;

TEST(Platform, Table1BandwidthsMatchPaper) {
  EXPECT_DOUBLE_EQ(hw::platform(PlatformId::A100).stream_bw_gbs, 1310.0);
  EXPECT_DOUBLE_EQ(hw::platform(PlatformId::MI250X).stream_bw_gbs, 1290.0);
  EXPECT_DOUBLE_EQ(hw::platform(PlatformId::Max1100).stream_bw_gbs, 803.0);
  EXPECT_DOUBLE_EQ(hw::platform(PlatformId::Xeon8360Y).stream_bw_gbs, 296.0);
  EXPECT_DOUBLE_EQ(hw::platform(PlatformId::GenoaX).stream_bw_gbs, 561.0);
  EXPECT_DOUBLE_EQ(hw::platform(PlatformId::Altra).stream_bw_gbs, 167.0);
}

TEST(Platform, CacheSizesMatchPaperSection41) {
  EXPECT_DOUBLE_EQ(hw::platform(PlatformId::A100).llc.bytes, 40.0 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(hw::platform(PlatformId::MI250X).llc.bytes, 16.0 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(hw::platform(PlatformId::Max1100).llc.bytes,
                   208.0 * 1024 * 1024);
  // Genoa-X: 2 x 1.1 GB L3 (paper §4.3).
  EXPECT_NEAR(hw::platform(PlatformId::GenoaX).llc.bytes, 2.2e9, 1e6);
}

TEST(Platform, StreamBelowPeak) {
  for (const auto* p : hw::all_platforms())
    EXPECT_LT(p->stream_bw_gbs, p->peak_bw_gbs) << p->name;
}

TEST(Platform, NearestHostPlatformIsTheClosestCpuByCoreCount) {
  // The fusion tile model sizes tiles for the host through this CPU
  // descriptor: the calibrated CPU whose core count is nearest the
  // host's on a log scale, and the same object on every call.
  const hw::Platform& host = hw::nearest_host_platform();
  EXPECT_FALSE(host.gpu) << host.name;
  EXPECT_EQ(&hw::nearest_host_platform(), &host);
  const double cores =
      static_cast<double>(std::max(1u, std::thread::hardware_concurrency()));
  const double dist = std::abs(std::log2(cores / host.cores));
  const auto all = hw::all_platforms();
  EXPECT_NE(std::find(all.begin(), all.end(), &host), all.end());
  int cpus = 0;
  for (const auto* p : all) {
    if (p->gpu) continue;
    ++cpus;
    EXPECT_LE(dist, std::abs(std::log2(cores / p->cores)))
        << host.name << " vs " << p->name;
  }
  EXPECT_EQ(cpus, 3);
}

TEST(ExecProfile, DpcppCpuLaunchesAreExpensive) {
  // Paper §4.2: DPC++ goes through OpenCL per launch; OpenSYCL maps to
  // OpenMP at compile time.
  const auto dpcpp = hw::exec_profile(PlatformId::Xeon8360Y,
                                      {Model::SYCLNDRange, Toolchain::DPCPP});
  const auto osycl = hw::exec_profile(
      PlatformId::Xeon8360Y, {Model::SYCLNDRange, Toolchain::OpenSYCL});
  const auto omp = hw::exec_profile(PlatformId::Xeon8360Y,
                                    {Model::MPI_OpenMP, Toolchain::Native});
  EXPECT_GT(dpcpp.launch_us, 4.0 * osycl.launch_us);
  EXPECT_GT(osycl.launch_us, omp.launch_us);
}

TEST(ExecProfile, CpuSyclReductionsCost6To7x) {
  const auto e = hw::exec_profile(PlatformId::Xeon8360Y,
                                  {Model::SYCLNDRange, Toolchain::OpenSYCL});
  EXPECT_GE(e.reduction_factor, 6.0);
  EXPECT_LE(e.reduction_factor, 7.0);
}

TEST(ExecProfile, OpenSyclCannotUseUnsafeAtomicsOnMI250X) {
  const auto osycl = hw::exec_profile(PlatformId::MI250X,
                                      {Model::SYCLNDRange, Toolchain::OpenSYCL});
  const auto dpcpp = hw::exec_profile(PlatformId::MI250X,
                                      {Model::SYCLNDRange, Toolchain::DPCPP});
  EXPECT_FALSE(osycl.unsafe_atomics);
  EXPECT_TRUE(dpcpp.unsafe_atomics);
}

TEST(ExecProfile, Max1100MostSensitiveToFlatShapes) {
  const Variant flat{Model::SYCLFlat, Toolchain::DPCPP};
  const auto max = hw::exec_profile(PlatformId::Max1100, flat);
  const auto a100 = hw::exec_profile(PlatformId::A100, flat);
  EXPECT_GT(max.flat_penalty, a100.flat_penalty);
}

TEST(Workgroup, PaddingUtilizationExact) {
  EXPECT_DOUBLE_EQ(hw::padding_utilization({256, 1, 1}, {64, 1, 1}, 1), 1.0);
  EXPECT_DOUBLE_EQ(hw::padding_utilization({100, 1, 1}, {64, 1, 1}, 1),
                   100.0 / 128.0);
  EXPECT_DOUBLE_EQ(hw::padding_utilization({2, 100, 1}, {1, 64, 1}, 2),
                   200.0 / 256.0);
}

TEST(Workgroup, CoalescingFullWhenWideEnough) {
  EXPECT_DOUBLE_EQ(hw::coalescing_factor(32, 8, 64.0), 1.0);
  EXPECT_DOUBLE_EQ(hw::coalescing_factor(2, 8, 64.0), 16.0 / 64.0);
  EXPECT_DOUBLE_EQ(hw::coalescing_factor(1, 4, 64.0), 4.0 / 64.0);
}

TEST(Workgroup, DpcppFlatWastesNarrowBoundaryLoops) {
  // A CloverLeaf-2D column boundary loop: 2 x 7680 iteration space.
  hw::LoopProfile lp;
  lp.dims = 2;
  lp.extent = {7680, 2, 1};
  lp.elem_bytes = 8;
  const auto& a100 = hw::platform(PlatformId::A100);
  const auto flat = hw::choose_workgroup(
      a100, {Model::SYCLFlat, Toolchain::DPCPP}, lp);
  const auto nd = hw::choose_workgroup(
      a100, {Model::SYCLNDRange, Toolchain::DPCPP}, lp);
  EXPECT_LT(flat.utilization, 0.05);  // 2 useful of 256-wide groups
  EXPECT_GT(nd.utilization, 0.4);     // tuned shape clamps to the extent
}

TEST(Workgroup, InteriorLoopsCoalesceForAllHeuristics) {
  hw::LoopProfile lp;
  lp.dims = 2;
  lp.extent = {7680, 7680, 1};
  lp.elem_bytes = 8;
  const auto& a100 = hw::platform(PlatformId::A100);
  for (Toolchain tc : {Toolchain::DPCPP, Toolchain::OpenSYCL}) {
    const auto wg = hw::choose_workgroup(a100, {Model::SYCLFlat, tc}, lp);
    EXPECT_GE(wg.coalescing, 0.99) << static_cast<int>(tc);
    EXPECT_GT(wg.utilization, 0.9);
  }
}

TEST(Workgroup, CpuChoiceIsDegenerate) {
  hw::LoopProfile lp;
  lp.dims = 3;
  lp.extent = {320, 320, 320};
  const auto wg = hw::choose_workgroup(hw::platform(PlatformId::Xeon8360Y),
                                       {Model::SYCLFlat, Toolchain::DPCPP}, lp);
  EXPECT_DOUBLE_EQ(wg.utilization, 1.0);
  EXPECT_DOUBLE_EQ(wg.coalescing, 1.0);
}

TEST(MemoryModel, NoStencilNoMultiplier) {
  hw::LoopProfile lp;
  lp.dims = 3;
  lp.extent = {320, 320, 320};
  EXPECT_DOUBLE_EQ(
      hw::stencil_read_multiplier(hw::platform(PlatformId::A100), lp), 1.0);
}

TEST(MemoryModel, HighOrderStencilWorseOnSmallCache) {
  // RTM-like: radius-4 star, 320^3 FP32, a handful of arrays.
  hw::LoopProfile lp;
  lp.dims = 3;
  lp.extent = {320, 320, 320};
  lp.elem_bytes = 4;
  lp.radius_fast = lp.radius_mid = lp.radius_slow = 4;
  lp.n_arrays = 3;
  const double mi =
      hw::stencil_read_multiplier(hw::platform(PlatformId::MI250X), lp);
  const double a100 =
      hw::stencil_read_multiplier(hw::platform(PlatformId::A100), lp);
  const double max =
      hw::stencil_read_multiplier(hw::platform(PlatformId::Max1100), lp);
  EXPECT_GT(mi, a100);    // 16 MB vs 40 MB L2 (paper: 19% vs 48% eff.)
  EXPECT_GE(a100, max);   // 208 MB L2 best (paper: RTM best on Max 1100)
  EXPECT_GE(mi, 1.0);
  EXPECT_LE(mi, 81.0);
}

TEST(MemoryModel, MultiplierMonotonicInCacheSize) {
  hw::LoopProfile lp;
  lp.dims = 3;
  lp.extent = {1000, 1000, 1000};
  lp.elem_bytes = 4;
  lp.radius_fast = lp.radius_mid = lp.radius_slow = 4;
  lp.n_arrays = 2;
  hw::Platform small = hw::platform(PlatformId::MI250X);
  hw::Platform big = small;
  big.llc.bytes *= 8;
  EXPECT_GE(hw::stencil_read_multiplier(small, lp),
            hw::stencil_read_multiplier(big, lp));
}

TEST(MemoryModel, TunedShapesReduceExcessTraffic) {
  hw::LoopProfile lp;
  lp.dims = 3;
  lp.extent = {1000, 1000, 1000};
  lp.elem_bytes = 4;
  lp.radius_fast = lp.radius_mid = lp.radius_slow = 4;
  lp.n_arrays = 3;
  const auto& p = hw::platform(PlatformId::MI250X);
  EXPECT_LT(hw::stencil_read_multiplier(p, lp, 0.7),
            hw::stencil_read_multiplier(p, lp, 1.0));
}

TEST(MemoryModel, ResidencyGivesSuperStreamBandwidth) {
  // A loop whose working set fits the Genoa-X 2.2 GB L3 runs faster
  // than STREAM - the paper's >100% efficiencies (§4.2, §4.3).
  const auto& genoa = hw::platform(PlatformId::GenoaX);
  hw::LoopProfile lp;
  lp.working_set = 100e6;  // fits
  const double hit = hw::llc_hit_probability(genoa, lp);
  EXPECT_GT(hit, 0.4);
  const double t = hw::memory_time_s(genoa, 1e9, hit, genoa.stream_bw_gbs);
  const double t_stream = 1e9 / (genoa.stream_bw_gbs * 1e9);
  EXPECT_LT(t, t_stream);
}

TEST(Quirks, DpcppFlatCloverLeaf2DPenalisedOnGpus) {
  const Variant flat{Model::SYCLFlat, Toolchain::DPCPP};
  EXPECT_GT(hw::quirk_factor(PlatformId::A100, flat, AppId::CloverLeaf2D,
                             hw::KernelClass::Interior),
            2.0);
  EXPECT_DOUBLE_EQ(hw::quirk_factor(PlatformId::Xeon8360Y, flat,
                                    AppId::CloverLeaf2D,
                                    hw::KernelClass::Interior),
                   1.0);
}

TEST(Quirks, VectorizationFailuresOnAltra) {
  EXPECT_TRUE(hw::vectorization_fails(PlatformId::Altra, Toolchain::Native,
                                      AppId::OpenSBLI_SN));
  EXPECT_TRUE(hw::vectorization_fails(PlatformId::Altra, Toolchain::OpenSYCL,
                                      AppId::Acoustic));
  EXPECT_FALSE(hw::vectorization_fails(PlatformId::Altra, Toolchain::Native,
                                       AppId::Acoustic));
  EXPECT_FALSE(hw::vectorization_fails(PlatformId::Xeon8360Y,
                                       Toolchain::OpenSYCL, AppId::Acoustic));
}

TEST(DeviceModel, BandwidthBoundLoopNearStream) {
  // A triad-like streaming loop should take ~ bytes / STREAM bandwidth.
  hw::DeviceModel m(PlatformId::A100, {Model::CUDA, Toolchain::Native},
                    AppId::CloverLeaf2D);
  hw::LoopProfile lp;
  lp.dims = 1;
  lp.extent = {1 << 25, 1, 1};
  lp.bytes_read = 2.0 * (1 << 25) * 8;
  lp.bytes_written = 1.0 * (1 << 25) * 8;
  lp.flops = 2.0 * (1 << 25);
  lp.working_set = 3.0 * (1 << 25) * 8;
  const auto kt = m.kernel_time(lp);
  const double t_bw = lp.total_bytes() / (1310.0 * 1e9);
  EXPECT_NEAR(kt.seconds, t_bw, 0.25 * t_bw);
  const double eff = lp.total_bytes() / kt.seconds / (1310.0 * 1e9);
  EXPECT_GT(eff, 0.75);
  EXPECT_LT(eff, 1.1);
}

TEST(DeviceModel, BoundaryLoopDominatedByLaunch) {
  hw::DeviceModel m(PlatformId::MI250X, {Model::HIP, Toolchain::Native},
                    AppId::CloverLeaf2D);
  hw::LoopProfile lp;
  lp.cls = hw::KernelClass::Boundary;
  lp.dims = 2;
  lp.extent = {7680, 2, 1};
  lp.bytes_read = 7680.0 * 2 * 8;
  lp.bytes_written = 7680.0 * 2 * 8;
  const auto kt = m.kernel_time(lp);
  EXPECT_GT(kt.launch_s / kt.seconds, 0.5);
}

TEST(DeviceModel, MI250XBoundaryCostExceedsA100) {
  // Paper §4.1: boundary updates take longer on the MI250X due to
  // higher kernel launch latencies.
  hw::LoopProfile lp;
  lp.cls = hw::KernelClass::Boundary;
  lp.dims = 2;
  lp.extent = {7680, 2, 1};
  lp.bytes_read = lp.bytes_written = 7680.0 * 2 * 8;
  hw::DeviceModel a100(PlatformId::A100, {Model::CUDA, Toolchain::Native},
                       AppId::CloverLeaf2D);
  hw::DeviceModel mi(PlatformId::MI250X, {Model::HIP, Toolchain::Native},
                     AppId::CloverLeaf2D);
  EXPECT_GT(mi.kernel_time(lp).seconds, a100.kernel_time(lp).seconds);
}

TEST(DeviceModel, AtomicsStrategyCostsDependOnFlavour) {
  hw::LoopProfile lp;
  lp.cls = hw::KernelClass::EdgeFlux;
  lp.dims = 1;
  lp.extent = {1 << 20, 1, 1};
  lp.bytes_read = 8.0 * (1 << 20);
  lp.atomic_updates = 6u << 20;
  hw::DeviceModel dpcpp(PlatformId::MI250X,
                        {Model::SYCLNDRange, Toolchain::DPCPP,
                         syclport::Strategy::Atomics},
                        AppId::MGCFD);
  hw::DeviceModel osycl(PlatformId::MI250X,
                        {Model::SYCLNDRange, Toolchain::OpenSYCL,
                         syclport::Strategy::Atomics},
                        AppId::MGCFD);
  // OpenSYCL pays the safe-atomics path on the MI250X (paper §4.3).
  EXPECT_GT(osycl.kernel_time(lp).atomic_s, dpcpp.kernel_time(lp).atomic_s * 2);
}

TEST(DeviceModel, CpuSyclReductionLoopPenalised) {
  hw::LoopProfile lp;
  lp.cls = hw::KernelClass::Reduction;
  lp.reduction = hw::ReductionKind::Tree;
  lp.dims = 2;
  lp.extent = {1024, 1024, 1};
  lp.bytes_read = 8.0 * 1024 * 1024 * 3;
  hw::DeviceModel sycl(PlatformId::Xeon8360Y,
                       {Model::SYCLNDRange, Toolchain::OpenSYCL},
                       AppId::CloverLeaf2D);
  hw::DeviceModel omp(PlatformId::Xeon8360Y,
                      {Model::MPI_OpenMP, Toolchain::Native},
                      AppId::CloverLeaf2D);
  const double ratio =
      sycl.kernel_time(lp).seconds / omp.kernel_time(lp).seconds;
  EXPECT_GT(ratio, 4.0);
  EXPECT_LT(ratio, 12.0);
}

TEST(CommModel, RankCounts) {
  EXPECT_EQ(hw::ranks_for(PlatformId::Xeon8360Y, {Model::MPI, Toolchain::Native}),
            72);
  EXPECT_EQ(hw::ranks_for(PlatformId::Xeon8360Y,
                          {Model::MPI_OpenMP, Toolchain::Native}),
            2);
  EXPECT_EQ(hw::ranks_for(PlatformId::GenoaX, {Model::MPI, Toolchain::Native}),
            176);
  EXPECT_EQ(hw::ranks_for(PlatformId::A100, {Model::CUDA, Toolchain::Native}),
            1);
}

TEST(CommModel, RankGridBalanced) {
  const auto g = hw::rank_grid(64, 3);
  EXPECT_EQ(g[0] * g[1] * g[2], 64);
  EXPECT_LE(*std::max_element(g.begin(), g.end()), 4 * (*std::min_element(g.begin(), g.end())));
  const auto g2 = hw::rank_grid(72, 3);
  EXPECT_EQ(g2[0] * g2[1] * g2[2], 72);
}

TEST(CommModel, SingleRankFree) {
  EXPECT_DOUBLE_EQ(
      hw::halo_exchange_time_s(hw::platform(PlatformId::GenoaX), 1, 3,
                               {320, 320, 320}, 4, 8),
      0.0);
}

TEST(CommModel, HighOrderHaloFavoursFewerRanks) {
  // RTM on Genoa-X: radius-4 halos make pure MPI (176 ranks) pay much
  // more than MPI+OpenMP (4 ranks) - paper §4.2's 1.46-1.95x effect.
  const auto& genoa = hw::platform(PlatformId::GenoaX);
  const double t_mpi =
      hw::halo_exchange_time_s(genoa, 176, 3, {320, 320, 320}, 4, 4);
  const double t_hybrid =
      hw::halo_exchange_time_s(genoa, 4, 3, {320, 320, 320}, 4, 4);
  EXPECT_GT(t_mpi, 2.0 * t_hybrid);
}

TEST(MemoryModel, GatherCurveInterpolationClampsAndInterpolates) {
  std::array<double, hw::kGatherCachePoints.size()> f{};
  for (std::size_t i = 0; i < f.size(); ++i)
    f[i] = 10.0 - static_cast<double>(i);  // decreasing with cache size
  EXPECT_DOUBLE_EQ(hw::interp_gather_curve(f, 1.0), f.front());  // clamp low
  EXPECT_DOUBLE_EQ(hw::interp_gather_curve(f, 1e12), f.back());  // clamp high
  // Exactly at a sample point.
  EXPECT_DOUBLE_EQ(hw::interp_gather_curve(f, hw::kGatherCachePoints[3]), f[3]);
  // Between points: monotone decreasing curve stays bracketed.
  const double mid = hw::interp_gather_curve(
      f, 0.5 * (hw::kGatherCachePoints[2] + hw::kGatherCachePoints[3]));
  EXPECT_LT(mid, f[2]);
  EXPECT_GT(mid, f[3]);
}

TEST(DeviceModel, StreamingKernelsReachFullStreamBandwidth) {
  // Triad-like (3 arrays, pointwise) gets STREAM; a 6-array stencil
  // kernel only app_bw_frac of it.
  hw::DeviceModel m(PlatformId::MI250X, {Model::HIP, Toolchain::Native},
                    AppId::CloverLeaf2D);
  hw::LoopProfile triad;
  triad.dims = 1;
  triad.extent = {1u << 26, 1, 1};
  triad.n_arrays = 3;
  triad.bytes_read = 2.0 * (1u << 26) * 8;
  triad.bytes_written = 1.0 * (1u << 26) * 8;
  triad.working_set = 100e9;  // no residency help
  const auto kt = m.kernel_time(triad);
  const double bw = triad.total_bytes() / kt.seconds / 1e9;
  EXPECT_NEAR(bw, 1290.0, 20.0);

  hw::LoopProfile multi = triad;
  multi.n_arrays = 6;
  const double bw6 = multi.total_bytes() / m.kernel_time(multi).seconds / 1e9;
  EXPECT_LT(bw6, 0.86 * 1290.0);
}

TEST(DeviceModel, HighTapKernelsLoseGpuOccupancy) {
  // > 55 taps/point (Store-None-like) caps bandwidth on GPUs but not
  // on CPUs (where the L1 term governs instead).
  auto lp = [](double taps) {
    hw::LoopProfile p;
    p.dims = 3;
    p.extent = {128, 128, 128};
    p.n_arrays = 2;
    const double items = 128.0 * 128 * 128;
    p.bytes_read = items * 40;
    p.bytes_written = items * 40;
    p.cache_access_bytes = items * taps * 8;
    p.working_set = 1e12;
    return p;
  };
  hw::DeviceModel gpu(PlatformId::A100, {Model::CUDA, Toolchain::Native},
                      AppId::OpenSBLI_SN);
  const double lo = gpu.kernel_time(lp(40)).seconds;
  const double hi = gpu.kernel_time(lp(70)).seconds;
  EXPECT_GT(hi, 1.2 * lo);
}

TEST(Workgroup, OpenSyclFlat3DTileIsSquareish) {
  hw::LoopProfile lp;
  lp.dims = 3;
  lp.extent = {408, 408, 408};
  lp.elem_bytes = 8;
  const auto wg = hw::choose_workgroup(
      hw::platform(PlatformId::A100),
      {Model::SYCLFlat, Toolchain::OpenSYCL}, lp);
  EXPECT_EQ(wg.local[0], 4u);
  EXPECT_EQ(wg.local[1], 8u);
  EXPECT_EQ(wg.local[2], 8u);
  // 8-wide fp64 = 64B: exactly one cache line per row segment.
  EXPECT_DOUBLE_EQ(wg.coalescing, 1.0);
}

TEST(CommModel, LatencyGrowsWithCoreCount) {
  EXPECT_GT(hw::comm_params(hw::platform(PlatformId::GenoaX)).latency_us,
            hw::comm_params(hw::platform(PlatformId::Altra)).latency_us);
}

TEST(Quirks, SpeedupQuirksExistForA100Mgcfd) {
  // §4.3: SYCL outperforms native CUDA on the A100 (factor < 1).
  const Variant osycl{Model::SYCLNDRange, Toolchain::OpenSYCL,
                      syclport::Strategy::Atomics};
  EXPECT_LT(hw::quirk_factor(PlatformId::A100, osycl, AppId::MGCFD,
                             hw::KernelClass::EdgeFlux),
            1.0);
}

namespace {

class CommModelOn : public ::testing::TestWithParam<PlatformId> {};

/// Messages the busiest rank sends per exchange: two per decomposed
/// dimension of the rank grid.
int halo_messages(int ranks, int dims) {
  const auto g = hw::rank_grid(ranks, dims);
  int m = 0;
  for (int d = 0; d < dims; ++d)
    if (g[static_cast<std::size_t>(d)] >= 2) m += 2;
  return m;
}

double latency_s(const hw::Platform& p, int ranks, int dims) {
  return halo_messages(ranks, dims) * hw::comm_params(p).latency_us * 1e-6;
}

}  // namespace

TEST_P(CommModelOn, PureMpiRunsARankPerCoreAndHybridARankPerNumaDomain) {
  const PlatformId id = GetParam();
  const hw::Platform& p = hw::platform(id);
  EXPECT_EQ(hw::ranks_for(id, {Model::MPI, Toolchain::Native}), p.cores);
  EXPECT_EQ(hw::ranks_for(id, {Model::MPI_OpenMP, Toolchain::Native}),
            std::max(1, p.numa_domains));
  for (Model m : {Model::OpenMP, Model::CUDA, Model::HIP, Model::OpenMPOffload,
                  Model::SYCLFlat, Model::SYCLNDRange})
    EXPECT_EQ(hw::ranks_for(id, {m, Toolchain::Native}), 1)
        << syclport::to_string(m);
}

TEST_P(CommModelOn, SingleRankAndZeroDepthExchangeNothing) {
  const hw::Platform& p = hw::platform(GetParam());
  for (int dims = 1; dims <= 3; ++dims) {
    EXPECT_EQ(hw::halo_exchange_time_s(p, 1, dims, {256, 256, 256}, 4, 8), 0.0);
    EXPECT_EQ(hw::halo_exchange_time_s(p, 0, dims, {256, 256, 256}, 4, 8), 0.0);
    EXPECT_EQ(
        hw::halo_exchange_time_s(p, p.cores, dims, {256, 256, 256}, 0, 8), 0.0);
  }
}

TEST_P(CommModelOn, ExchangeIsPerMessageLatencyPlusWireTimeLinearInPayload) {
  // Halo bytes are depth x point bytes per face point, so the wire term
  // is linear in both; what is left over is one latency per message.
  const hw::Platform& p = hw::platform(GetParam());
  const int ranks = p.cores;
  const std::array<std::size_t, 3> ext{320, 320, 320};
  const double lat = latency_s(p, ranks, 3);
  EXPECT_GT(lat, 0.0);
  EXPECT_DOUBLE_EQ(hw::halo_exchange_time_s(p, ranks, 3, ext, 1, 0), lat);
  const double wire1 = hw::halo_exchange_time_s(p, ranks, 3, ext, 1, 8) - lat;
  ASSERT_GT(wire1, 0.0);
  EXPECT_NEAR(hw::halo_exchange_time_s(p, ranks, 3, ext, 4, 8) - lat,
              4.0 * wire1, 1e-9 * wire1);
  EXPECT_NEAR(hw::halo_exchange_time_s(p, ranks, 3, ext, 1, 16) - lat,
              2.0 * wire1, 1e-9 * wire1);
}

TEST_P(CommModelOn, WireTimeScalesWithTheFaceArea) {
  // Doubling every extent doubles a 2D face (a line) and quadruples a
  // 3D face (a plane); the message count does not change.
  const hw::Platform& p = hw::platform(GetParam());
  const int ranks = p.cores;
  for (int dims = 2; dims <= 3; ++dims) {
    const double lat = latency_s(p, ranks, dims);
    const double small =
        hw::halo_exchange_time_s(p, ranks, dims, {128, 128, 128}, 2, 8) - lat;
    const double big =
        hw::halo_exchange_time_s(p, ranks, dims, {256, 256, 256}, 2, 8) - lat;
    const double factor = dims == 2 ? 2.0 : 4.0;
    EXPECT_NEAR(big, factor * small, 1e-9 * big) << dims << "D";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Platforms, CommModelOn, ::testing::ValuesIn(syclport::kAllPlatforms),
    [](const auto& ti) {
      std::string name;
      for (char c : syclport::to_string(ti.param))
        if (std::isalnum(static_cast<unsigned char>(c))) name += c;
      return name;
    });
