#include "study/study.hpp"

#include <algorithm>

#include "hwmodel/comm_model.hpp"
#include "hwmodel/platform.hpp"

namespace syclport::study {

namespace {

constexpr double kPaperMgcfdNodes = 8e6;  // NASA Rotor37 (paper §3)

ops::Backend ops_backend(const Variant& v) {
  switch (v.model) {
    case Model::MPI: return ops::Backend::MPI;
    case Model::MPI_OpenMP: return ops::Backend::MPIThreads;
    case Model::SYCLFlat: return ops::Backend::SyclFlat;
    case Model::SYCLNDRange: return ops::Backend::SyclNd;
    default: return ops::Backend::Threads;
  }
}

}  // namespace

std::vector<Variant> structured_variants(PlatformId p) {
  const Variant dpcpp_flat{Model::SYCLFlat, Toolchain::DPCPP};
  const Variant dpcpp_nd{Model::SYCLNDRange, Toolchain::DPCPP};
  const Variant osycl_flat{Model::SYCLFlat, Toolchain::OpenSYCL};
  const Variant osycl_nd{Model::SYCLNDRange, Toolchain::OpenSYCL};
  switch (p) {
    case PlatformId::A100:
      return {{Model::CUDA, Toolchain::Native}, dpcpp_flat, dpcpp_nd,
              osycl_flat, osycl_nd};
    case PlatformId::MI250X:
      return {{Model::HIP, Toolchain::Native},
              {Model::OpenMPOffload, Toolchain::Cray},
              dpcpp_flat, dpcpp_nd, osycl_flat, osycl_nd};
    case PlatformId::Max1100:
      return {{Model::OpenMPOffload, Toolchain::Native}, dpcpp_flat, dpcpp_nd,
              osycl_flat, osycl_nd};
    case PlatformId::Xeon8360Y:
    case PlatformId::GenoaX:
      return {{Model::MPI, Toolchain::Native},
              {Model::MPI_OpenMP, Toolchain::Native},
              dpcpp_flat, dpcpp_nd, osycl_flat, osycl_nd};
    case PlatformId::Altra:
      return {{Model::MPI, Toolchain::Native},
              {Model::OpenMP, Toolchain::Native},
              osycl_flat, osycl_nd};
  }
  return {};
}

std::vector<Variant> mgcfd_variants(PlatformId p) {
  auto with_strategies = [](Model m, Toolchain t) {
    std::vector<Variant> v;
    for (Strategy s : kMgcfdStrategies) v.push_back({m, t, s});
    return v;
  };
  std::vector<Variant> out;
  auto append = [&](std::vector<Variant> v) {
    out.insert(out.end(), v.begin(), v.end());
  };
  switch (p) {
    case PlatformId::A100:
      append(with_strategies(Model::CUDA, Toolchain::Native));
      append(with_strategies(Model::SYCLNDRange, Toolchain::DPCPP));
      append(with_strategies(Model::SYCLNDRange, Toolchain::OpenSYCL));
      break;
    case PlatformId::MI250X:
      append(with_strategies(Model::HIP, Toolchain::Native));
      append(with_strategies(Model::SYCLNDRange, Toolchain::DPCPP));
      append(with_strategies(Model::SYCLNDRange, Toolchain::OpenSYCL));
      break;
    case PlatformId::Max1100:  // no native version exists (paper §4.3)
      append(with_strategies(Model::SYCLNDRange, Toolchain::DPCPP));
      append(with_strategies(Model::SYCLNDRange, Toolchain::OpenSYCL));
      break;
    case PlatformId::Xeon8360Y:
    case PlatformId::GenoaX:
      out.push_back({Model::MPI, Toolchain::Native, Strategy::None});
      out.push_back(
          {Model::MPI_OpenMP, Toolchain::Native, Strategy::Hierarchical});
      append(with_strategies(Model::SYCLNDRange, Toolchain::DPCPP));
      append(with_strategies(Model::SYCLNDRange, Toolchain::OpenSYCL));
      break;
    case PlatformId::Altra:
      out.push_back({Model::MPI, Toolchain::Native, Strategy::None});
      out.push_back({Model::OpenMP, Toolchain::Native, Strategy::Hierarchical});
      append(with_strategies(Model::SYCLNDRange, Toolchain::OpenSYCL));
      break;
  }
  return out;
}

void scale_mgcfd_profiles(std::vector<hw::LoopProfile>& profiles,
                          const apps::MgcfdConfig& cfg) {
  // Scale bench-mesh traffic to the paper's 8M-vertex Rotor37.
  const double nodes = static_cast<double>(cfg.ni * cfg.nj * cfg.nk);
  const double scale = kPaperMgcfdNodes / nodes;
  for (auto& lp : profiles) {
    lp.extent[0] =
        static_cast<std::size_t>(static_cast<double>(lp.extent[0]) * scale);
    lp.bytes_read *= scale;
    lp.bytes_written *= scale;
    lp.bytes_read_indirect *= scale;
    lp.bytes_written_indirect *= scale;
    lp.map_bytes *= scale;
    lp.flops *= scale;
    lp.working_set *= scale;
    lp.staged_bytes *= scale;
    lp.atomic_updates = static_cast<std::size_t>(
        static_cast<double>(lp.atomic_updates) * scale);
    // Traffic scaled by S means a cache holds 1/S of the working set:
    // re-sample the gather reuse profile at cache/S.
    const auto measured = lp.gather_factor_at;
    for (std::size_t c = 0; c < hw::kGatherCachePoints.size(); ++c)
      lp.gather_factor_at[c] = hw::interp_gather_curve(
          measured, hw::kGatherCachePoints[c] / scale);
    lp.gather_line_factor = lp.gather_factor_at.front();
  }
}

Variant native_variant(PlatformId p) {
  switch (p) {
    case PlatformId::A100: return {Model::CUDA, Toolchain::Native};
    case PlatformId::MI250X: return {Model::HIP, Toolchain::Native};
    case PlatformId::Max1100: return {Model::OpenMPOffload, Toolchain::Native};
    default: return {Model::MPI, Toolchain::Native};
  }
}

apps::ProblemSize StudyRunner::size_for(AppId app) const {
  if (auto it = size_override_.find(app); it != size_override_.end())
    return it->second;
  switch (app) {
    case AppId::CloverLeaf2D: return apps::cloverleaf2d_paper();
    case AppId::CloverLeaf3D: return apps::cloverleaf3d_paper();
    case AppId::OpenSBLI_SA:
    case AppId::OpenSBLI_SN: return apps::opensbli_paper();
    case AppId::RTM: return apps::rtm_paper();
    case AppId::Acoustic: return apps::acoustic_paper();
    case AppId::MGCFD: return {};  // handled via MgcfdConfig
  }
  return {};
}

void StudyRunner::set_structured_size(AppId app, apps::ProblemSize ps) {
  size_override_[app] = ps;
  schedules_.clear();
}

const std::vector<hw::LoopProfile>& StudyRunner::schedule(AppId app,
                                                          const Variant& v) {
  const bool mgcfd = app == AppId::MGCFD;
  Strategy strategy = Strategy::None;
  if (mgcfd)
    strategy = v.strategy == Strategy::None ? Strategy::Atomics : v.strategy;
  const ScheduleKey key{app, !mgcfd && v.uses_mpi(), strategy};
  if (auto it = schedules_.find(key); it != schedules_.end())
    return it->second;

  std::vector<hw::LoopProfile> profiles;
  if (mgcfd) {
    op2::Options o;
    o.mode = op2::Mode::ModelOnly;
    o.exec = op2::Exec::Serial;
    o.strategy = strategy;
    // GPU hierarchical blocks of 256, CPU 4096 (paper §4.3); the
    // runner does not know the platform here, so the GPU size is used
    // and the block-count effect on CPUs is secondary (documented).
    o.block_size = 256;
    auto rs = apps::run_mgcfd(o, mgcfd_cfg_);
    profiles = std::move(rs.profiles);
    scale_mgcfd_profiles(profiles, mgcfd_cfg_);
  } else {
    ops::Options o;
    o.mode = ops::Mode::ModelOnly;
    o.backend = ops_backend(v);
    const apps::ProblemSize ps = size_for(app);
    apps::RunSummary rs;
    switch (app) {
      case AppId::CloverLeaf2D: rs = apps::run_cloverleaf2d(o, ps); break;
      case AppId::CloverLeaf3D: rs = apps::run_cloverleaf3d(o, ps); break;
      case AppId::OpenSBLI_SA: rs = apps::run_opensbli_sa(o, ps); break;
      case AppId::OpenSBLI_SN: rs = apps::run_opensbli_sn(o, ps); break;
      case AppId::RTM: rs = apps::run_rtm(o, ps); break;
      case AppId::Acoustic: rs = apps::run_acoustic(o, ps); break;
      case AppId::MGCFD: break;
    }
    profiles = std::move(rs.profiles);
  }
  return schedules_.emplace(key, std::move(profiles)).first->second;
}

ExperimentResult StudyRunner::run(AppId app, PlatformId platform,
                                  const Variant& v) {
  ExperimentResult r;
  r.status = SupportMatrix::paper().status(platform, app, v);
  if (r.status != Status::Ok) return r;
  return aggregate_cell(schedule(app, v), app, platform, v);
}

ExperimentResult aggregate_cell(std::span<const hw::LoopProfile> profiles,
                                AppId app, PlatformId platform,
                                const Variant& v) {
  ExperimentResult r;
  const hw::DeviceModel dm(platform, v, app);
  const hw::Platform& hwp = dm.hw();
  const int ranks = hw::ranks_for(platform, v);

  for (const auto& lp : profiles) {
    const hw::KernelTime kt = dm.kernel_time(lp);
    r.runtime_s += kt.seconds;
    if (lp.cls == hw::KernelClass::Boundary) r.boundary_s += kt.seconds;
    r.useful_bytes += kt.useful_bytes;
    r.flops += lp.flops;
    if (v.uses_mpi() && lp.halo_depth > 0 && ranks > 1) {
      const double h = hw::halo_exchange_time_s(
          hwp, ranks, lp.dims, lp.extent, lp.halo_depth,
          static_cast<std::size_t>(lp.halo_point_bytes));
      r.halo_s += h;
      r.runtime_s += h;
    }
  }
  if (r.runtime_s > 0.0) {
    r.eff_bw_gbs = r.useful_bytes / r.runtime_s / 1e9;
    r.efficiency = r.eff_bw_gbs / hwp.stream_bw_gbs;
  }
  return r;
}

}  // namespace syclport::study
