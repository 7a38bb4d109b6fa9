#pragma once
/// \file study.hpp
/// The study harness: reproduces the paper's experiment matrix. For a
/// given (application, platform, variant) cell it
///   1. consults the SupportMatrix (failed cells stay failed, §4.2-4.3);
///   2. obtains the application's loop schedule - a ModelOnly run at
///      the paper's problem size for structured apps, or at bench scale
///      with analytic scaling for MG-CFD (DESIGN.md §2);
///   3. models every loop with DeviceModel, adds MPI halo costs, and
///      aggregates runtime, effective bandwidth and architectural
///      efficiency exactly as the paper defines them.
/// Schedules are cached: they depend only on (app, backend family) for
/// OPS apps and on the strategy for MG-CFD, not on the platform.

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "core/support.hpp"
#include "core/types.hpp"
#include "hwmodel/device_model.hpp"

namespace syclport::study {

/// Aggregated modeled outcome of one experiment cell.
struct ExperimentResult {
  Status status = Status::Ok;
  double runtime_s = 0.0;        ///< modeled wall time, paper problem size
  double boundary_s = 0.0;       ///< time in Boundary-class kernels
  double halo_s = 0.0;           ///< MPI halo-exchange time
  double useful_bytes = 0.0;     ///< OPS/OP2 transfer (efficiency numerator)
  double flops = 0.0;            ///< total floating-point operations
  double eff_bw_gbs = 0.0;       ///< useful_bytes / runtime
  double efficiency = 0.0;       ///< eff_bw / STREAM bw (paper's metric)

  [[nodiscard]] bool ok() const { return status == Status::Ok; }
};

/// Variant lists per figure (paper's bar groups).
[[nodiscard]] std::vector<Variant> structured_variants(PlatformId p);
[[nodiscard]] std::vector<Variant> mgcfd_variants(PlatformId p);

/// The "native" baseline variant of a platform (CUDA/HIP on GPUs,
/// OpenMP offload on the Max 1100, pure MPI on CPUs).
[[nodiscard]] Variant native_variant(PlatformId p);

/// Scale a bench-mesh MG-CFD loop schedule to the paper's 8M-vertex
/// Rotor37: traffic, flops and atomic counts scale linearly; the
/// measured gather reuse profile is re-sampled at cache/scale (a cache
/// holds 1/scale of the scaled working set). StudyRunner applies this
/// to its cached schedules; ablation_layout uses it directly on
/// schedules recorded under non-default (ordering, layout, strategy).
void scale_mgcfd_profiles(std::vector<hw::LoopProfile>& profiles,
                          const apps::MgcfdConfig& cfg);

/// Aggregate one experiment cell from an already-obtained loop
/// schedule: the pure tail of StudyRunner::run. A thread-safe function
/// of its arguments (DeviceModel and the platform tables are
/// read-only). Does NOT consult the SupportMatrix - the caller gates
/// on it.
[[nodiscard]] ExperimentResult aggregate_cell(
    std::span<const hw::LoopProfile> profiles, AppId app, PlatformId platform,
    const Variant& v);

class StudyRunner {
 public:
  StudyRunner() = default;
  /// A runner whose MG-CFD schedules come from the `mgcfd` mesh (fast
  /// tests, ablations) instead of mgcfd_bench().
  explicit StudyRunner(apps::MgcfdConfig mgcfd) : mgcfd_cfg_(mgcfd) {}

  /// Model one experiment cell at the paper's problem size.
  [[nodiscard]] ExperimentResult run(AppId app, PlatformId platform,
                                     const Variant& v);

  /// Override problem sizes (for fast tests); defaults to paper sizes.
  void set_structured_size(AppId app, apps::ProblemSize ps);

  /// The cached loop schedule used for (app, v): exposed for trace
  /// emission and analysis tools.
  [[nodiscard]] const std::vector<hw::LoopProfile>& schedule_for(
      AppId app, const Variant& v) {
    return schedule(app, v);
  }

 private:
  /// What a schedule depends on. OPS apps record halos under MPI;
  /// MG-CFD's model-only run reads only the effective strategy, so its
  /// MPI and shared-memory variants share one schedule.
  struct ScheduleKey {
    AppId app;
    bool mpi;         ///< OPS only: MPI-family backend (halo recording on)
    Strategy strategy;///< MG-CFD only: None runs as Atomics
    auto operator<=>(const ScheduleKey&) const = default;
  };

  /// The cached loop schedule (profiles for the full run).
  const std::vector<hw::LoopProfile>& schedule(AppId app, const Variant& v);

  [[nodiscard]] apps::ProblemSize size_for(AppId app) const;

  std::map<ScheduleKey, std::vector<hw::LoopProfile>> schedules_;
  std::map<AppId, apps::ProblemSize> size_override_;
  apps::MgcfdConfig mgcfd_cfg_ = apps::mgcfd_bench();
};

}  // namespace syclport::study
