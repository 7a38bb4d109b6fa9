// Integration tests for the study harness: the modeled experiment
// matrix must reproduce the paper's *qualitative* claims (who wins, by
// roughly what factor, where the CPU/GPU split falls). These are the
// regression guards for the calibration recorded in EXPERIMENTS.md.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

#include "hwmodel/comm_model.hpp"
#include "hwmodel/platform.hpp"
#include "study/study.hpp"
#include "study/trace.hpp"

using namespace syclport;

namespace {

/// Shared runner with reduced structured sizes: the qualitative
/// relations are size-stable and the full-paper sizes run in the bench
/// binaries.
study::StudyRunner& runner() {
  static study::StudyRunner r = [] {
    study::StudyRunner s(apps::MgcfdConfig{48, 40, 32, 3, 10});
    s.set_structured_size(AppId::CloverLeaf2D, {{1920, 1920, 1}, 10});
    s.set_structured_size(AppId::CloverLeaf3D, {{128, 128, 128}, 10});
    s.set_structured_size(AppId::OpenSBLI_SA, {{160, 160, 160}, 5});
    s.set_structured_size(AppId::OpenSBLI_SN, {{160, 160, 160}, 5});
    s.set_structured_size(AppId::RTM, {{320, 320, 320}, 5});
    s.set_structured_size(AppId::Acoustic, {{500, 500, 500}, 5});
    return s;
  }();
  return r;
}

double runtime(AppId a, PlatformId p, Variant v) {
  const auto r = runner().run(a, p, v);
  EXPECT_TRUE(r.ok()) << to_string(v);
  return r.runtime_s;
}

double efficiency(AppId a, PlatformId p, Variant v) {
  return runner().run(a, p, v).efficiency;
}

const Variant kCuda{Model::CUDA, Toolchain::Native};
const Variant kHip{Model::HIP, Toolchain::Native};
const Variant kDpcppNd{Model::SYCLNDRange, Toolchain::DPCPP};
const Variant kDpcppFlat{Model::SYCLFlat, Toolchain::DPCPP};
const Variant kOsyclNd{Model::SYCLNDRange, Toolchain::OpenSYCL};
const Variant kOsyclFlat{Model::SYCLFlat, Toolchain::OpenSYCL};
const Variant kMpi{Model::MPI, Toolchain::Native};
const Variant kMpiOmp{Model::MPI_OpenMP, Toolchain::Native};

}  // namespace

TEST(Study, SupportMatrixHolesSurface) {
  const auto r = runner().run(AppId::CloverLeaf2D, PlatformId::GenoaX,
                              kOsyclNd);
  EXPECT_EQ(r.status, Status::Incorrect);
  EXPECT_EQ(r.runtime_s, 0.0);
}

TEST(Study, SyclNdWithin10PercentOfCudaOnA100) {
  // Paper §4.1: nd_range versions with both compilers within 10% of
  // native CUDA on the structured apps.
  for (AppId a : kStructuredApps) {
    const double cuda = runtime(a, PlatformId::A100, kCuda);
    EXPECT_LT(runtime(a, PlatformId::A100, kDpcppNd), 1.10 * cuda)
        << to_string(a);
    EXPECT_LT(runtime(a, PlatformId::A100, kOsyclNd), 1.10 * cuda)
        << to_string(a);
  }
}

TEST(Study, DpcppFlatCloverLeaf2DOutlierOnGpus) {
  // "making the 2D version with the flat formulation perform very
  // poorly" (§4.1) - at least 2x the nd_range time.
  for (PlatformId p : kGpuPlatforms) {
    EXPECT_GT(runtime(AppId::CloverLeaf2D, p, kDpcppFlat),
              2.0 * runtime(AppId::CloverLeaf2D, p, kDpcppNd))
        << to_string(p);
  }
}

TEST(Study, OpenSyclFlatCloverLeaf3DSlowdown) {
  // "an almost 50% slowdown" (§4.1).
  const double nd = runtime(AppId::CloverLeaf3D, PlatformId::A100, kOsyclNd);
  const double flat =
      runtime(AppId::CloverLeaf3D, PlatformId::A100, kOsyclFlat);
  EXPECT_GT(flat, 1.35 * nd);
  EXPECT_LT(flat, 2.4 * nd);
}

TEST(Study, Max1100FlatGapLargerThanOtherGpus) {
  // §4.1: the Max 1100 is most sensitive to work-group shape; its
  // flat-vs-nd gap (excluding the quirk outliers) exceeds the A100's.
  auto gap = [&](PlatformId p) {
    return runtime(AppId::OpenSBLI_SA, p, kDpcppFlat) /
           runtime(AppId::OpenSBLI_SA, p, kDpcppNd);
  };
  EXPECT_GT(gap(PlatformId::Max1100), gap(PlatformId::A100));
}

TEST(Study, SyclBeatsOpenMPOffloadOnMax1100) {
  // §4.1: DPC++ nd_range ~30% faster than OpenMP offload on the Max.
  const Variant omp{Model::OpenMPOffload, Toolchain::Native};
  double sycl_total = 0.0, omp_total = 0.0;
  for (AppId a : kStructuredApps) {
    sycl_total += runtime(a, PlatformId::Max1100, kDpcppNd);
    omp_total += runtime(a, PlatformId::Max1100, omp);
  }
  EXPECT_LT(sycl_total, 0.85 * omp_total);
}

TEST(Study, RtmWorstOnMI250XAmongGpus) {
  // §4.1: RTM achieves 19% on the MI250X vs 48% (A100) and 59% (Max):
  // the 16 MB L2 cannot hold the radius-4 layer window.
  const double mi = efficiency(AppId::RTM, PlatformId::MI250X, kHip);
  EXPECT_LT(mi, efficiency(AppId::RTM, PlatformId::A100, kCuda));
  EXPECT_LT(mi, efficiency(AppId::RTM, PlatformId::Max1100, kDpcppNd));
}

TEST(Study, GenoaXCloverLeaf2DBestEfficiencyOfCpus) {
  // §4.2: 107% efficiency at the paper's 7680^2 thanks to the 2.2 GB
  // L3 (asserted at full size by the fig6 bench); at this reduced size
  // fixed overheads weigh more, so assert the cross-platform relation.
  const double genoa = efficiency(AppId::CloverLeaf2D, PlatformId::GenoaX, kMpi);
  EXPECT_GT(genoa, 0.8);
  // The Altra's 32 MB LLC cannot cache this working set; Genoa-X can.
  EXPECT_GT(genoa, efficiency(AppId::CloverLeaf2D, PlatformId::Altra, kMpi));
}

TEST(Study, DpcppBoundaryShareExceedsOpenSyclOnCpu) {
  // §4.2: DPC++ launches through OpenCL drivers; OpenSYCL maps to
  // OpenMP at compile time.
  const auto dpcpp =
      runner().run(AppId::CloverLeaf2D, PlatformId::Xeon8360Y, kDpcppNd);
  const auto osycl =
      runner().run(AppId::CloverLeaf2D, PlatformId::Xeon8360Y, kOsyclNd);
  EXPECT_GT(dpcpp.boundary_s / dpcpp.runtime_s,
            1.5 * osycl.boundary_s / osycl.runtime_s);
}

TEST(Study, RtmOnGenoaXFavoursHybridOverPureMpi) {
  // §4.2: MPI+OpenMP outperformed other variants on RTM by 1.46-1.95x;
  // at 176 ranks the radius-4 halos dominate pure MPI.
  const double mpi = runtime(AppId::RTM, PlatformId::GenoaX, kMpi);
  const double hybrid = runtime(AppId::RTM, PlatformId::GenoaX, kMpiOmp);
  EXPECT_GT(mpi, 1.2 * hybrid);
  const auto r = runner().run(AppId::RTM, PlatformId::GenoaX, kMpi);
  EXPECT_GT(r.halo_s, 0.0);
}

TEST(Study, AltraAcousticSyclVectorizationFailure) {
  // §4.2: auto-vectorization did not work for SYCL on Acoustic (Altra),
  // but did for MPI/OpenMP.
  const double mpi = runtime(AppId::Acoustic, PlatformId::Altra, kMpi);
  const double sycl = runtime(AppId::Acoustic, PlatformId::Altra, kOsyclNd);
  EXPECT_GT(sycl, 1.4 * mpi);
}

TEST(Study, MgcfdCpuMpiBeatsEverything) {
  // §4.3: best CPU implementations are the auto-vectorizing MPI ones.
  for (PlatformId p : kCpuPlatforms) {
    const Variant mpi{Model::MPI, Toolchain::Native, Strategy::None};
    const double t_mpi = runtime(AppId::MGCFD, p, mpi);
    for (const Variant& v : study::mgcfd_variants(p)) {
      const auto r = runner().run(AppId::MGCFD, p, v);
      if (!r.ok() || v.model == Model::MPI) continue;
      EXPECT_LT(t_mpi, r.runtime_s * 1.02)
          << to_string(p) << " " << to_string(v);
    }
  }
}

TEST(Study, MgcfdOpenSyclSafeAtomicsPenaltyOnMI250X) {
  // §4.3: OpenSYCL cannot reach the unsafe atomics on the MI250X.
  const Variant hip{Model::HIP, Toolchain::Native, Strategy::Atomics};
  const Variant osycl{Model::SYCLNDRange, Toolchain::OpenSYCL,
                      Strategy::Atomics};
  EXPECT_GT(runtime(AppId::MGCFD, PlatformId::MI250X, osycl),
            1.3 * runtime(AppId::MGCFD, PlatformId::MI250X, hip));
}

TEST(Study, MgcfdAtomicsLimitedOnMax1100) {
  // §4.3: atomics throughput is the limiter on the Max 1100.
  const Variant at{Model::SYCLNDRange, Toolchain::DPCPP, Strategy::Atomics};
  const Variant hier{Model::SYCLNDRange, Toolchain::DPCPP,
                     Strategy::Hierarchical};
  EXPECT_GT(runtime(AppId::MGCFD, PlatformId::Max1100, at),
            1.5 * runtime(AppId::MGCFD, PlatformId::Max1100, hier));
}

TEST(Study, MgcfdGlobalColouringWorstStrategyOnGpus) {
  // §4.3: global colouring has by construction very poor data reuse.
  for (PlatformId p : kGpuPlatforms) {
    const Toolchain tc = Toolchain::DPCPP;
    const Variant glob{Model::SYCLNDRange, tc, Strategy::GlobalColor};
    const Variant hier{Model::SYCLNDRange, tc, Strategy::Hierarchical};
    EXPECT_GT(runtime(AppId::MGCFD, p, glob), runtime(AppId::MGCFD, p, hier))
        << to_string(p);
  }
}

TEST(Study, GpuSyclCompetitiveCpuSyclBehind) {
  // §5: on GPUs best SYCL ~ native; on CPUs SYCL trails native.
  double gpu_sycl = 0.0, gpu_native = 0.0;
  for (PlatformId p : {PlatformId::A100, PlatformId::MI250X}) {
    for (AppId a : kStructuredApps) {
      gpu_native += runtime(a, p, study::native_variant(p));
      gpu_sycl += std::min(runtime(a, p, kDpcppNd), runtime(a, p, kOsyclNd));
    }
  }
  EXPECT_LT(gpu_sycl, 1.10 * gpu_native);

  double cpu_sycl = 0.0, cpu_native = 0.0;
  for (AppId a : kStructuredApps) {
    cpu_native += std::min(runtime(a, PlatformId::Xeon8360Y, kMpi),
                           runtime(a, PlatformId::Xeon8360Y, kMpiOmp));
    cpu_sycl += std::min(runtime(a, PlatformId::Xeon8360Y, kDpcppNd),
                         runtime(a, PlatformId::Xeon8360Y, kOsyclNd));
  }
  EXPECT_GT(cpu_sycl, cpu_native);
}

TEST(Study, EfficiencyDefinitionConsistent) {
  const auto r = runner().run(AppId::CloverLeaf2D, PlatformId::A100, kCuda);
  EXPECT_NEAR(r.efficiency,
              r.useful_bytes / r.runtime_s / 1e9 /
                  hw::platform(PlatformId::A100).stream_bw_gbs,
              1e-12);
  EXPECT_GT(r.efficiency, 0.5);
  EXPECT_LT(r.efficiency, 1.2);
}

TEST(Study, BoundaryShare3DExceeds2DOnGpus) {
  // §4.1: CloverLeaf 3D spends more of its time in boundary updates.
  for (PlatformId p : kGpuPlatforms) {
    const Variant v = study::native_variant(p);
    const auto r2 = runner().run(AppId::CloverLeaf2D, p, v);
    const auto r3 = runner().run(AppId::CloverLeaf3D, p, v);
    if (!r2.ok() || !r3.ok()) continue;
    EXPECT_GT(r3.boundary_s / r3.runtime_s, r2.boundary_s / r2.runtime_s)
        << to_string(p);
  }
}

TEST(Trace, WritesValidJsonWithModeledBreakdown) {
  auto& r = runner();
  const Variant v{Model::CUDA, Toolchain::Native};
  const auto& sched = r.schedule_for(AppId::RTM, v);
  ASSERT_FALSE(sched.empty());
  const std::string path = "/tmp/syclport_trace_test.json";
  ASSERT_TRUE(study::write_modeled_trace_json(path, sched, PlatformId::A100,
                                              v, AppId::RTM));
  // Light-weight validity probe: braces balance, key fields present.
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string s = ss.str();
  EXPECT_EQ(std::count(s.begin(), s.end(), '{'),
            std::count(s.begin(), s.end(), '}'));
  EXPECT_NE(s.find("\"loops\""), std::string::npos);
  EXPECT_NE(s.find("\"modeled\""), std::string::npos);
  EXPECT_NE(s.find("rtm_lap"), std::string::npos);
}

TEST(Trace, ScheduleExposureIsStable) {
  auto& r = runner();
  const Variant v{Model::CUDA, Toolchain::Native};
  const auto& a = r.schedule_for(AppId::RTM, v);
  const auto& b = r.schedule_for(AppId::RTM, v);
  EXPECT_EQ(&a, &b);  // cached, not rebuilt
}

TEST(Study, MgcfdMpiVariantsShareSharedMemorySchedule) {
  // MG-CFD's model-only run reads only the effective strategy: the MPI
  // builds (Strategy::None runs as atomics) reuse the shared-memory
  // schedules, so a report records three MG-CFD schedules, not five.
  auto& r = runner();
  const auto* atomics = &r.schedule_for(
      AppId::MGCFD, {Model::SYCLNDRange, Toolchain::DPCPP, Strategy::Atomics});
  EXPECT_EQ(&r.schedule_for(AppId::MGCFD,
                            {Model::MPI, Toolchain::Native, Strategy::None}),
            atomics);
  const auto* hier =
      &r.schedule_for(AppId::MGCFD, {Model::SYCLNDRange, Toolchain::DPCPP,
                                     Strategy::Hierarchical});
  EXPECT_EQ(&r.schedule_for(AppId::MGCFD, {Model::MPI_OpenMP,
                                           Toolchain::Native,
                                           Strategy::Hierarchical}),
            hier);
  EXPECT_NE(atomics, hier);
  EXPECT_NE(&r.schedule_for(AppId::MGCFD, {Model::SYCLNDRange,
                                           Toolchain::DPCPP,
                                           Strategy::GlobalColor}),
            atomics);
}

// --- halo pricing of the MPI variants ---------------------------------------

namespace {

/// The MPI and MPI+OpenMP bars are the OPS apps' sweeps recorded under
/// the MPI backends, plus one comm_model halo exchange per loop that
/// reads through a stencil.
class MpiSchedule : public ::testing::TestWithParam<AppId> {};

}  // namespace

TEST_P(MpiSchedule, RecordsHalosOnlyUnderTheMpiFamily) {
  const AppId app = GetParam();
  auto& r = runner();
  const auto& mpi = r.schedule_for(app, kMpi);
  EXPECT_EQ(&r.schedule_for(app, kMpiOmp), &mpi);  // one halo schedule
  const auto& shared = r.schedule_for(app, kOsyclNd);
  ASSERT_EQ(mpi.size(), shared.size());
  int max_depth = 0;
  for (std::size_t i = 0; i < mpi.size(); ++i) {
    const auto& m = mpi[i];
    const auto& s = shared[i];
    EXPECT_EQ(m.name, s.name);
    EXPECT_EQ(m.extent, s.extent);
    EXPECT_DOUBLE_EQ(m.bytes_read, s.bytes_read);
    EXPECT_DOUBLE_EQ(m.bytes_written, s.bytes_written);
    EXPECT_EQ(s.halo_depth, 0) << s.name;
    EXPECT_DOUBLE_EQ(s.halo_point_bytes, 0.0) << s.name;
    // Radii are recorded from reads only, so the halo is the widest.
    EXPECT_EQ(m.halo_depth,
              std::max({m.radius_fast, m.radius_mid, m.radius_slow}))
        << m.name;
    EXPECT_EQ(m.halo_depth > 0, m.halo_point_bytes > 0.0) << m.name;
    max_depth = std::max(max_depth, m.halo_depth);
  }
  EXPECT_GT(max_depth, 0);
  if (app == AppId::RTM || app == AppId::Acoustic) {
    EXPECT_EQ(max_depth, 4);  // the 8th-order, radius-4 star (paper §3)
  }
}

TEST_P(MpiSchedule, HaloTimeIsTheSumOfPerLoopExchanges) {
  const AppId app = GetParam();
  const PlatformId p = PlatformId::GenoaX;
  const auto& hwp = hw::platform(p);
  const auto& sched = runner().schedule_for(app, kMpi);
  for (const Variant& v : {kMpi, kMpiOmp}) {
    const int ranks = hw::ranks_for(p, v);
    double expect = 0.0;
    for (const auto& lp : sched)
      expect += hw::halo_exchange_time_s(
          hwp, ranks, lp.dims, lp.extent, lp.halo_depth,
          static_cast<std::size_t>(lp.halo_point_bytes));
    const auto res = runner().run(app, p, v);
    ASSERT_TRUE(res.ok()) << to_string(v);
    EXPECT_GT(res.halo_s, 0.0) << to_string(v);
    EXPECT_NEAR(res.halo_s, expect, 1e-12 * expect) << to_string(v);
    // The same halo-bearing schedule priced as a shared-memory variant
    // exchanges nothing.
    const Variant omp{Model::OpenMP, Toolchain::Native};
    const auto shared = study::aggregate_cell(sched, app, p, omp);
    EXPECT_EQ(shared.halo_s, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    StructuredApps, MpiSchedule, ::testing::ValuesIn(kStructuredApps),
    [](const auto& ti) {
      std::string name;
      for (char c : to_string(ti.param))
        if (std::isalnum(static_cast<unsigned char>(c))) name += c;
      return name;
    });
