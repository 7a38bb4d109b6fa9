#pragma once
/// \file probes.hpp
/// Per-layer probes of the traced run. Each probe times calls into one
/// layer's public functions from outside and returns its metrics as a
/// JSON object of name -> value. Every timing is the median of several
/// repetitions.

#include <array>
#include <cstddef>
#include <string>

#include "apps/mgcfd/mesh.hpp"

namespace perfbench {

/// Executor launch latency per schedule, steals per launch, pooled
/// alloc/dealloc round trip, and zero_fill bandwidth over `big_bytes`.
[[nodiscard]] std::string probe_runtime(std::size_t big_bytes);

/// miniSYCL empty-kernel launch + wait, flat range and nd_range.
[[nodiscard]] std::string probe_sycl();

/// ops::par_loop dispatch per backend, LoopChain cost per loop, Triad
/// over `big_bytes`, and the reducer (Dot) over `dot_n` points.
[[nodiscard]] std::string probe_ops(std::size_t big_bytes, std::size_t dot_n);

/// Plain std::thread Triad over `big_bytes`: the machine's ceiling.
[[nodiscard]] std::string probe_machine(std::size_t big_bytes);

/// One edge-flux op2::par_loop per race strategy on the mesh's fine
/// level, and build_plan per colouring strategy.
[[nodiscard]] std::string probe_op2(syclport::apps::mgcfd::MultigridMesh& mesh);

/// Cold schedule building, DeviceModel::kernel_time and aggregate_cell.
[[nodiscard]] std::string probe_study();

/// Peak OS thread count of this process seen so far (sampled on call).
[[nodiscard]] long sample_threads_peak();

}  // namespace perfbench
