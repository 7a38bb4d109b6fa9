#pragma once
/// \file par_loop.hpp
/// The OPS parallel-loop primitive. A par_loop names a kernel, an
/// iteration range over a block, and a list of dat/reduction arguments
/// with stencils and access modes. From this single high-level
/// description the DSL:
///   1. records a LoopProfile (transfer footprints, radii, flops, halo
///      needs) for the hardware model - in both Execute and ModelOnly
///      modes;
///   2. lowers the kernel to the configured backend (serial, threads,
///      SYCL flat, SYCL nd_range, MPI decompositions) and runs it.
/// Every lowering calls the kernel through one row walker: a span of
/// the flattened range is split at fast-dimension row ends, each row is
/// delinearized once and every argument positioned on it, and the fast
/// index then steps through one plain ascending loop - one pointer
/// offset per argument per point. Points are visited in ascending
/// order within every span, so reductions keep their bits.
/// This mirrors how the real OPS generates per-parallelization code
/// from one kernel description (paper §3).

#include <algorithm>
#include <array>
#include <tuple>

#include "hwmodel/loop_profile.hpp"
#include "hwmodel/tuning_priors.hpp"
#include "ops/arg.hpp"
#include "ops/block.hpp"
#include "ops/context.hpp"
#include "runtime/autotune/autotune.hpp"
#include "runtime/autotune/row_walk.hpp"
#include "runtime/thread_pool.hpp"

namespace syclport::ops {

/// Static metadata of a kernel.
struct Meta {
  const char* name = "(kernel)";
  hw::KernelClass cls = hw::KernelClass::Interior;
  double flops_per_point = 0.0;
};

/// Iteration range, interior-relative, slowest dimension first; may
/// extend into the halo (negative lo / hi beyond the block size) for
/// boundary-condition loops.
struct Range {
  std::array<long, 3> lo{0, 0, 0};
  std::array<long, 3> hi{1, 1, 1};

  [[nodiscard]] static Range all(const Block& b) {
    Range r;
    for (int d = 0; d < b.dims(); ++d) {
      r.lo[static_cast<std::size_t>(d)] = 0;
      r.hi[static_cast<std::size_t>(d)] = static_cast<long>(b.size(d));
    }
    return r;
  }

  /// The full interior shrunk by `n` points on every side.
  [[nodiscard]] static Range inner(const Block& b, long n) {
    Range r = all(b);
    for (int d = 0; d < b.dims(); ++d) {
      r.lo[static_cast<std::size_t>(d)] += n;
      r.hi[static_cast<std::size_t>(d)] -= n;
    }
    return r;
  }
};

namespace detail {

/// A dat argument positioned on one row of the iteration range: the
/// accessor at fast index j is one pointer offset from the row start.
template <typename T>
struct DatRow {
  T* p;
  std::ptrdiff_t sx, sy, sz;

  [[nodiscard]] ACC<T> at(std::size_t j) const {
    return ACC<T>(p + static_cast<std::ptrdiff_t>(j) * sx, sx, sy, sz);
  }
};

/// A dat argument bound to a par_loop's range. A row is named by its
/// outer coordinates (c0, c1) relative to the range's lower corner:
/// (slow, mid) in 3D, (slow, -) in 2D, none in 1D.
template <typename T>
struct DatBinder {
  T* lo;                      ///< the point at the range's lower corner
  std::ptrdiff_t row0, row1;  ///< strides of c0, c1 (0 where absent)
  std::ptrdiff_t sx, sy, sz;  ///< accessor strides, fastest first
};

template <typename T>
DatBinder<T> make_binder(const DatArg<T>& a, const Range& r) {
  Dat<T>& d = *a.dat;
  const int dims = d.block().dims();
  const std::ptrdiff_t sx = d.stride_fast();
  const std::ptrdiff_t sy = dims >= 2 ? d.stride_mid() : 0;
  const std::ptrdiff_t sz = dims == 3 ? d.stride_slow() : 0;
  // Range coordinates are slowest first: (x), (y, x) or (z, y, x).
  const std::ptrdiff_t off =
      dims == 1   ? r.lo[0] * sx
      : dims == 2 ? r.lo[0] * sy + r.lo[1] * sx
                  : r.lo[0] * sz + r.lo[1] * sy + r.lo[2] * sx;
  return DatBinder<T>{d.origin() + off, dims == 3 ? sz : sy,
                      dims == 3 ? sy : 0, sx, sy, sz};
}

template <typename T>
BlockedTarget<T> make_binder(const RedArg<T>& a, const Range&) {
  return BlockedTarget<T>(a.target, a.op);
}

/// A reduction block's accumulator: the same Reducer at every point.
template <typename T>
struct RedRow {
  Reducer<T> r;
  [[nodiscard]] const Reducer<T>& at(std::size_t) const { return r; }
};

/// Position one bound argument on row (c0, c1) of the range.
template <typename T>
[[nodiscard]] DatRow<T> bind_row(const DatBinder<T>& b, std::size_t c0,
                                 std::size_t c1) {
  return {b.lo + static_cast<std::ptrdiff_t>(c0) * b.row0 +
              static_cast<std::ptrdiff_t>(c1) * b.row1,
          b.sx, b.sy, b.sz};
}
template <typename T>
[[nodiscard]] RedRow<T> bind_row(RedBlock<T>& v, std::size_t, std::size_t) {
  return {Reducer<T>(&v.acc, v.op)};
}

/// Does the argument pack contain a reduction? Reduction loops run over
/// the index blocks of core/reducer.hpp and must not race the
/// cache-block axis (its traversal reorder would change accumulation
/// order).
template <typename A>
struct is_red_arg : std::false_type {};
template <typename T>
struct is_red_arg<RedArg<T>> : std::true_type {};

// --- profile accumulation ---------------------------------------------------

template <typename T>
void accumulate(hw::LoopProfile& lp, const std::array<std::size_t, 3>& ext,
                int dims, const DatArg<T>& a) {
  // Map stencil radii (x fastest) onto the slow..fast extent layout.
  std::array<int, 3> rad{0, 0, 0};
  rad[static_cast<std::size_t>(dims - 1)] = a.st.radius_x;
  if (dims >= 2) rad[static_cast<std::size_t>(dims - 2)] = a.st.radius_y;
  if (dims >= 3) rad[0] = a.st.radius_z;

  double pts = 1.0;
  for (int d = 0; d < dims; ++d)
    pts *= static_cast<double>(ext[static_cast<std::size_t>(d)]) +
           2.0 * rad[static_cast<std::size_t>(d)];
  const double footprint = pts * a.dat->ncomp() * sizeof(T);

  const double point_bytes = static_cast<double>(a.dat->ncomp()) * sizeof(T);
  if (a.acc == Acc::R || a.acc == Acc::RW) {
    lp.bytes_read += footprint;
    // Register/L1 traffic: every stencil tap is a separate load.
    const int touches = 1 + 2 * (a.st.radius_x + a.st.radius_y + a.st.radius_z);
    double rpts = 1.0;
    for (int d = 0; d < dims; ++d)
      rpts *= static_cast<double>(ext[static_cast<std::size_t>(d)]);
    lp.cache_access_bytes += rpts * touches * point_bytes;
    lp.radius_fast = std::max(lp.radius_fast,
                              rad[static_cast<std::size_t>(dims - 1)]);
    if (dims >= 2)
      lp.radius_mid = std::max(lp.radius_mid,
                               rad[static_cast<std::size_t>(dims - 2)]);
    if (dims >= 3) lp.radius_slow = std::max(lp.radius_slow, rad[0]);
    if (a.st.max_radius() > 0) {
      lp.bytes_read_stencil += footprint;
      lp.stencil_point_bytes += point_bytes;
      lp.halo_depth = std::max(lp.halo_depth, a.st.max_radius());
      lp.halo_point_bytes += point_bytes;
    }
  }
  if (a.acc == Acc::W || a.acc == Acc::RW) {
    lp.bytes_written += footprint;
    double wpts = 1.0;
    for (int d = 0; d < dims; ++d)
      wpts *= static_cast<double>(ext[static_cast<std::size_t>(d)]);
    lp.cache_access_bytes += wpts * point_bytes;
  }
  lp.working_set += footprint;
  lp.n_arrays += 1;
  lp.elem_bytes = sizeof(T);

  // Dat identity for the dependence-level analyses (fusion headroom,
  // chain partitioning): interior footprint only, no halo inflation.
  hw::DatAccess da;
  da.id = a.dat;
  da.name = a.dat->name();
  double ipts = 1.0;
  for (int d = 0; d < dims; ++d)
    ipts *= static_cast<double>(ext[static_cast<std::size_t>(d)]);
  da.bytes = ipts * point_bytes;
  da.read = a.acc == Acc::R || a.acc == Acc::RW;
  da.write = a.acc == Acc::W || a.acc == Acc::RW;
  da.radius_slow = rad[0];
  da.radius_max = a.st.max_radius();
  lp.accesses.push_back(std::move(da));
}

template <typename T>
void accumulate(hw::LoopProfile& lp, const std::array<std::size_t, 3>&, int,
                const RedArg<T>&) {
  lp.reduction = hw::ReductionKind::BuiltIn;
  if (lp.cls == hw::KernelClass::Interior) lp.cls = hw::KernelClass::Reduction;
}

}  // namespace detail

template <typename K, typename... Args>
void par_loop(Context& ctx, Meta meta, Block& block, Range r, K&& kernel,
              Args... args) {
  const int dims = block.dims();
  std::array<std::size_t, 3> ext{1, 1, 1};
  std::size_t total = 1;
  for (int d = 0; d < dims; ++d) {
    const long e = r.hi[static_cast<std::size_t>(d)] -
                   r.lo[static_cast<std::size_t>(d)];
    if (e <= 0) return;  // empty range: nothing to run or record
    ext[static_cast<std::size_t>(d)] = static_cast<std::size_t>(e);
    total *= static_cast<std::size_t>(e);
  }

  if (ctx.opt.record) {
    hw::LoopProfile lp;
    lp.name = meta.name;
    lp.cls = meta.cls;
    lp.dims = dims;
    lp.extent = ext;
    lp.flops = meta.flops_per_point * static_cast<double>(total);
    lp.n_arrays = 0;  // counted by the accumulate fold below
    (detail::accumulate(lp, ext, dims, args), ...);
    const bool mpi_backend = ctx.opt.backend == Backend::MPI ||
                             ctx.opt.backend == Backend::MPIThreads;
    if (!mpi_backend) {
      lp.halo_depth = 0;
      lp.halo_point_bytes = 0.0;
    }
    ctx.profiles.push_back(std::move(lp));
  }
  if (!ctx.executing()) return;

  // Apply this loop's launch parameters for its duration. Explicit
  // Options::schedule/grain always win; otherwise, when tuning is on
  // (SYCLPORT_TUNE or Options::tune), the autotuner serves the
  // schedule x grain - and for SyclNd also the work-group shape - for
  // this kernel's site, measuring the loop's wall time as feedback.
  // Both the Threads backend (direct pool launches) and the SYCL
  // backends (handler-issued launches) read the params at submit time;
  // the handler's own per-launch tuning scope defers to this one.
  hw::seed_autotuner_priors();
  rt::autotune::ScopedTune tune_override(ctx.opt.tune);
  rt::autotune::Site site;
  site.name = meta.name;
  site.dims = dims;
  site.global = ext;
  // Flat sweeps (pool and SYCL flat lowerings) of independent-point
  // multi-dimensional loops additionally race the cache-blocked
  // traversal. The Serial backend stays the pure reference loop, and
  // nd_range keeps its shape contract.
  // Reduction loops launch over their block grid on every backend, so
  // they have no work-group shape to tune.
  constexpr bool has_red = (detail::is_red_arg<Args>::value || ...);
  site.nd = ctx.opt.backend == Backend::SyclNd && !has_red;
  const bool flat_sweep = ctx.opt.backend == Backend::Threads ||
                          ctx.opt.backend == Backend::MPI ||
                          ctx.opt.backend == Backend::MPIThreads ||
                          ctx.opt.backend == Backend::SyclFlat;
  site.axes = rt::autotune::kScheduleGrain |
              (site.nd ? rt::autotune::kWorkGroup : 0u) |
              (flat_sweep && !has_red && dims >= 2 ? rt::autotune::kCacheBlock
                                                   : 0u);
  site.max_wg = ctx.queue.get_device().max_work_group_size();
  rt::autotune::TunedLaunchParams sched_scope(site, ctx.opt.schedule,
                                              ctx.opt.grain);

  const std::size_t cb = sched_scope.phase() != rt::autotune::Phase::None
                             ? sched_scope.config().cache_block.value_or(0)
                             : 0;

  auto binders = std::make_tuple(detail::make_binder(args, r)...);
  // The row walker, the only way the kernel is called. `bound` is the
  // binder tuple, or one reduction block's views of it. bind_rows
  // positions every argument on row (c0, c1) of the range once; the
  // kernel at fast index j then costs one pointer offset per argument.
  const std::size_t fast = ext[static_cast<std::size_t>(dims - 1)];
  auto bind_rows = [&](auto& bound, std::size_t c0, std::size_t c1) {
    return std::apply(
        [&](auto&... b) {
          return std::make_tuple(detail::bind_row(b, c0, c1)...);
        },
        bound);
  };
  auto call_at = [&](const auto& rows, std::size_t j) {
    std::apply([&](const auto&... rw) { kernel(rw.at(j)...); }, rows);
  };
  // Fast indices [jb, je) of row `row` of the flattened rows x fast
  // space.
  auto run_row = [&](auto& bound, std::size_t row, std::size_t jb,
                     std::size_t je) {
    const std::size_t c0 = dims == 3 ? row / ext[1] : row;
    const auto rows = bind_rows(bound, c0, dims == 3 ? row - c0 * ext[1] : 0);
    for (std::size_t j = jb; j < je; ++j) call_at(rows, j);
  };
  // Any linear span [b, e), split at row ends; ascending order.
  auto walk = [&](auto& bound, std::size_t b, std::size_t e) {
    rt::autotune::for_each_row_segment(
        b, e, fast, [&](std::size_t row, std::size_t jb, std::size_t je) {
          run_row(bound, row, jb, je);
        });
  };

  if constexpr (has_red) {
    // Blocked reduction (core/reducer.hpp): rows are the slowest
    // dimension, so a LoopChain tile - a run of consecutive rows -
    // folds exactly the partials of the same rows of the whole loop.
    const std::size_t rows = dims == 1 ? 1 : ext[0];
    const ReduceBlocks blocks(rows, total / rows);
    rt::ScopedGrainScale per_block(kReduceBlock);
    auto launch = [&](std::size_t nblocks, const auto& run) {
      switch (ctx.opt.backend) {
        case Backend::Serial:
          for (std::size_t k = 0; k < nblocks; ++k) run(k);
          break;
        case Backend::Threads:
        case Backend::MPI:
        case Backend::MPIThreads:
          rt::ThreadPool::global().parallel_for(
              nblocks, [&](std::size_t kb, std::size_t ke) {
                for (std::size_t k = kb; k < ke; ++k) run(k);
              });
          break;
        case Backend::SyclFlat:
        case Backend::SyclNd:
          ctx.queue.parallel_for(
              meta.name, sycl::range<1>(nblocks),
              [&](sycl::item<1> it) { run(it.get_linear_id()); });
          break;
      }
    };
    run_blocked(binders, blocks.count(), launch,
                [&](auto& views, std::size_t k) {
                  walk(views, blocks.begin(k), blocks.end(k));
                });
  } else {
    // A SYCL work-item's one-point span, at the item's own coordinates;
    // the handler's flat lowering walks the items row by row.
    auto run_point = [&](std::size_t c0, std::size_t c1, std::size_t j) {
      call_at(bind_rows(binders, c0, c1), j);
    };
    switch (ctx.opt.backend) {
      case Backend::Serial:
        walk(binders, 0, total);
        break;
      case Backend::Threads:
      case Backend::MPI:
      case Backend::MPIThreads: {
        // MPI backends are semantically identical sweeps on shared memory;
        // their decomposition cost is carried by the recorded halo profile.
        if (dims >= 2 && cb > 0 && cb < fast) {
          rt::autotune::blocked_parallel_for(
              total / fast, fast, cb,
              [&](std::size_t row, std::size_t jb, std::size_t je) {
                run_row(binders, row, jb, je);
              });
        } else {
          rt::ThreadPool::global().parallel_for(
              total, [&](std::size_t b, std::size_t e) {
                walk(binders, b, e);
              });
        }
        break;
      }
      case Backend::SyclFlat: {
        if (dims == 1) {
          ctx.queue.parallel_for(meta.name, sycl::range<1>(ext[0]),
                                 [&](sycl::item<1> it) {
                                   run_point(0, 0, it[0]);
                                 });
        } else if (dims == 2) {
          ctx.queue.parallel_for(meta.name, sycl::range<2>(ext[0], ext[1]),
                                 [&](sycl::item<2> it) {
                                   run_point(it[0], 0, it[1]);
                                 });
        } else {
          ctx.queue.parallel_for(meta.name,
                                 sycl::range<3>(ext[0], ext[1], ext[2]),
                                 [&](sycl::item<3> it) {
                                   run_point(it[0], it[1], it[2]);
                                 });
        }
        break;
      }
      case Backend::SyclNd: {
        // Pad the global range to a multiple of the tuned local shape and
        // mask the overhang inside the kernel, as generated OPS SYCL does.
        // nd_local is stored slow..fast for 3D; align it with this loop's
        // dimensionality (a 2D loop uses the (mid, fast) entries, a 1D
        // loop the fast entry only). When the autotuner serves this loop
        // its decided shape replaces the hand-tuned Options::nd_local.
        const std::array<std::size_t, 3>& shape =
            sched_scope.phase() != rt::autotune::Phase::None &&
                    sched_scope.config().local
                ? *sched_scope.config().local
                : ctx.opt.nd_local;
        std::array<std::size_t, 3> local{1, 1, 1};
        for (int d = 0; d < dims; ++d)
          local[static_cast<std::size_t>(d)] = std::max<std::size_t>(
              1, shape[static_cast<std::size_t>(3 - dims + d)]);
        auto padded = ext;
        for (int d = 0; d < dims; ++d) {
          const auto l = local[static_cast<std::size_t>(d)];
          auto& p = padded[static_cast<std::size_t>(d)];
          p = (p + l - 1) / l * l;
        }
        auto body = [&](auto it) {
          if constexpr (std::is_same_v<decltype(it), sycl::nd_item<1>>) {
            const auto g0 = it.get_global_id(0);
            if (g0 < ext[0]) run_point(0, 0, g0);
          } else if constexpr (std::is_same_v<decltype(it), sycl::nd_item<2>>) {
            const auto g0 = it.get_global_id(0), g1 = it.get_global_id(1);
            if (g0 < ext[0] && g1 < ext[1])
              run_point(g0, 0, g1);
          } else {
            const auto g0 = it.get_global_id(0), g1 = it.get_global_id(1),
                       g2 = it.get_global_id(2);
            if (g0 < ext[0] && g1 < ext[1] && g2 < ext[2])
              run_point(g0, g1, g2);
          }
        };
        if (dims == 1) {
          ctx.queue.parallel_for(
              meta.name,
              sycl::nd_range<1>(sycl::range<1>(padded[0]),
                                sycl::range<1>(local[0])),
              [&](sycl::nd_item<1> it) { body(it); });
        } else if (dims == 2) {
          ctx.queue.parallel_for(
              meta.name,
              sycl::nd_range<2>(sycl::range<2>(padded[0], padded[1]),
                                sycl::range<2>(local[0], local[1])),
              [&](sycl::nd_item<2> it) { body(it); });
        } else {
          ctx.queue.parallel_for(
              meta.name,
              sycl::nd_range<3>(sycl::range<3>(padded[0], padded[1], padded[2]),
                                sycl::range<3>(local[0], local[1], local[2])),
              [&](sycl::nd_item<3> it) { body(it); });
        }
        break;
      }
    }
  }
}

}  // namespace syclport::ops
