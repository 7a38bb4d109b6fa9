#pragma once
/// \file context.hpp
/// OPS execution context: which backend lowers par_loops, whether loops
/// execute or only contribute to the performance-model schedule, and
/// the collected per-loop profiles.

#include <array>
#include <cstddef>
#include <optional>
#include <vector>

#include "hwmodel/loop_profile.hpp"
#include "runtime/thread_pool.hpp"
#include "sycl/sycl.hpp"

namespace syclport::ops {

/// How par_loops are lowered (paper §3's parallelizations).
enum class Backend : std::uint8_t {
  Serial,      ///< reference scalar loops
  Threads,     ///< OpenMP-like thread-pool loops (the MPI+X "X")
  SyclFlat,    ///< sycl::parallel_for(range): runtime picks the shape
  SyclNd,      ///< sycl::parallel_for(nd_range): tuned shape
  MPI,         ///< owner-compute rank decomposition (serial per rank)
  MPIThreads,  ///< rank decomposition + threads inside ranks
};

/// Execute kernels, or only walk the schedule for the hardware model.
enum class Mode : std::uint8_t { Execute, ModelOnly };

struct Options {
  Backend backend = Backend::Threads;
  Mode mode = Mode::Execute;
  bool record = true;  ///< collect LoopProfiles
  /// Tuned nd_range work-group shape, slowest dim first (used by
  /// Backend::SyclNd); the paper tunes one shape per application.
  std::array<std::size_t, 3> nd_local{1, 4, 64};
  /// Simulated rank count for halo accounting under MPI backends.
  int sim_ranks = 4;
  /// Executor chunk-distribution policy for this context's loops;
  /// nullopt = process default (SYCLPORT_SCHEDULE env, default steal).
  std::optional<rt::Schedule> schedule;
  /// Minimum iterations per executor chunk; nullopt = process default
  /// (SYCLPORT_GRAIN env, default 1).
  std::optional<std::size_t> grain;
};

class Context {
 public:
  explicit Context(Options o) : opt(o) {}
  Context() = default;

  Options opt;
  sycl::queue queue;  ///< used by the SYCL backends

  [[nodiscard]] bool executing() const { return opt.mode == Mode::Execute; }

  /// Profiles recorded by par_loop, in program order.
  std::vector<hw::LoopProfile> profiles;
  void clear_profiles() { profiles.clear(); }

  /// Sum a field of the recorded profiles (test/report convenience).
  [[nodiscard]] double total_useful_bytes() const {
    double s = 0.0;
    for (const auto& p : profiles) s += p.total_bytes();
    return s;
  }
};

}  // namespace syclport::ops
