#pragma once
/// \file dist.hpp
/// A genuinely distributed OPS backend over mini-MPI: every rank owns a
/// block of the grid with ghost layers, par_loops execute rank-locally,
/// reads through nonzero stencils trigger face halo exchanges first,
/// and global reductions combine across ranks - the owner-compute
/// execution model of OPS-MPI (paper §3), running on real messages
/// rather than the shared-memory shortcut the modeling backends use.
///
/// Scope: interior sweeps and global reductions over fields whose halo
/// depth covers the stencils used (the structure all of this study's
/// interior kernels share). Kernels receive the same ACC accessors as
/// the shared-memory backends, so kernel code is reused verbatim.

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/reducer.hpp"
#include "minimpi/cart.hpp"
#include "minimpi/comm.hpp"
#include "minimpi/halo.hpp"
#include "ops/arg.hpp"
#include "sycl/queue.hpp"

namespace syclport::ops::dist {

/// Per-rank execution context.
class DistContext {
 public:
  DistContext(mpi::Comm& comm, int dims)
      : comm_(&comm), cart_(comm.rank(), comm.size(), dims), dims_(dims) {}

  [[nodiscard]] mpi::Comm& comm() const { return *comm_; }
  [[nodiscard]] const mpi::CartDecomp& cart() const { return cart_; }
  [[nodiscard]] int dims() const { return dims_; }

  /// Rank-local out-of-order queue; par_loop_overlap submits the
  /// interior sweep through it so the sweep runs concurrently with the
  /// halo receives on this rank's thread.
  [[nodiscard]] sycl::queue& queue() { return queue_; }

 private:
  mpi::Comm* comm_;
  mpi::CartDecomp cart_;
  int dims_;
  sycl::queue queue_;
};

/// A distributed field: the rank-local block of a global grid, with
/// ghost layers deep enough for the stencils applied to it.
template <typename T>
class DistDat {
 public:
  DistDat(DistContext& ctx, std::array<std::size_t, 3> global, int halo)
      : ctx_(&ctx), global_(global), halo_(halo) {
    field_.dims = ctx.dims();
    field_.halo = halo;
    for (int d = 0; d < ctx.dims(); ++d) {
      auto [b, e] = ctx.cart().owned(d, global[static_cast<std::size_t>(d)]);
      begin_[static_cast<std::size_t>(d)] = b;
      field_.local[static_cast<std::size_t>(d)] = e - b;
    }
    field_.allocate();
  }

  /// Fill the owned interior from a function of *global* coordinates.
  void init(const std::function<T(std::size_t, std::size_t, std::size_t)>& f) {
    for_owned([&](std::size_t gi, std::size_t gj, std::size_t gk,
                  std::ptrdiff_t li, std::ptrdiff_t lj, std::ptrdiff_t lk) {
      field_.at(li, lj, lk) = f(gi, gj, gk);
    });
  }

  /// Iterate owned points with both global and local coordinates.
  template <typename Fn>
  void for_owned(Fn&& fn) {
    const auto n0 = field_.local[0];
    const auto n1 = ctx_->dims() >= 2 ? field_.local[1] : 1;
    const auto n2 = ctx_->dims() >= 3 ? field_.local[2] : 1;
    for (std::size_t i = 0; i < n0; ++i)
      for (std::size_t j = 0; j < n1; ++j)
        for (std::size_t k = 0; k < n2; ++k)
          fn(begin_[0] + i, begin_[1] + j, begin_[2] + k,
             static_cast<std::ptrdiff_t>(i), static_cast<std::ptrdiff_t>(j),
             static_cast<std::ptrdiff_t>(k));
  }

  /// Exchange ghost layers with the Cartesian neighbours (collective).
  void exchange_halos() {
    mpi::exchange_halos(ctx_->comm(), ctx_->cart(), field_);
  }

  [[nodiscard]] mpi::LocalField<T>& field() { return field_; }
  [[nodiscard]] DistContext& ctx() const { return *ctx_; }
  [[nodiscard]] int halo() const { return halo_; }
  [[nodiscard]] const std::array<std::size_t, 3>& global() const {
    return global_;
  }
  [[nodiscard]] const std::array<std::size_t, 3>& begin() const {
    return begin_;
  }

  /// Sum of the owned interior across all ranks (collective).
  [[nodiscard]] double global_sum() {
    double local = 0.0;
    for_owned([&](std::size_t, std::size_t, std::size_t, std::ptrdiff_t li,
                  std::ptrdiff_t lj, std::ptrdiff_t lk) {
      local += static_cast<double>(field_.at(li, lj, lk));
    });
    return ctx_->comm().allreduce(local, mpi::Op::Sum);
  }

 private:
  DistContext* ctx_;
  std::array<std::size_t, 3> global_;
  std::array<std::size_t, 3> begin_{0, 0, 0};
  int halo_;
  mpi::LocalField<T> field_;
};

template <typename T>
struct DistArg {
  DistDat<T>* dat;
  Stencil st;
  Acc acc;
};

template <typename T>
[[nodiscard]] DistArg<T> arg(DistDat<T>& d, Stencil st, Acc a) {
  if (st.max_radius() > d.halo())
    throw std::invalid_argument("dist::arg: stencil exceeds halo depth");
  return {&d, st, a};
}

template <typename T>
struct DistRedArg {
  T* target;
  RedOp op;
};

template <typename T>
[[nodiscard]] DistRedArg<T> reduce(T& target, RedOp op) {
  return {&target, op};
}

namespace detail {

using Fn3 =
    std::function<void(std::ptrdiff_t, std::ptrdiff_t, std::ptrdiff_t)>;

/// A half-open box [lo, hi) in rank-local interior coordinates
/// (slowest dimension first; unused dimensions span [0, 1)).
struct Box {
  std::array<std::ptrdiff_t, 3> lo{0, 0, 0};
  std::array<std::ptrdiff_t, 3> hi{1, 1, 1};
};

/// Type-erased hook so par_loop can find the iteration space (the first
/// dat argument) without caring about T.
struct IterSpace {
  std::function<void(const Fn3&)> iterate;
  std::function<void(const Box&, const Fn3&)> iterate_box;
  int dims = 0;
  std::array<std::size_t, 3> local{1, 1, 1};
};

template <typename T>
struct DatBinder {
  DistDat<T>* dat;
  bool needs_halo;
  Acc acc = Acc::RW;

  void prepare() const {
    if (needs_halo) dat->exchange_halos();
  }

  /// Overlap path: post this dat's halo sends now; the matching
  /// receive+unpack is deferred into `finishers`.
  void begin_halo(std::vector<std::function<void()>>& finishers) const {
    if (!needs_halo) return;
    auto ex = std::make_shared<mpi::HaloExchange<T>>(
        dat->ctx().comm(), dat->ctx().cart(), dat->field());
    finishers.push_back([ex] { ex->finish(); });
  }

  /// Declare this dat's storage in a command group's footprint, so
  /// interior commands of different ranks (different storage) stay
  /// independent in the scheduler's DAG.
  void declare(sycl::handler& h) const {
    // Acc::W is OPS write semantics: not read before written, so it
    // registers as discard_write (same conflict behaviour as write,
    // but marks a pure write stream for the executor).
    const auto mode = acc == Acc::R   ? sycl::access_mode::read
                      : acc == Acc::W ? sycl::access_mode::discard_write
                                      : sycl::access_mode::read_write;
    h.require(static_cast<const void*>(dat->field().data.data()), mode);
  }
  [[nodiscard]] ACC<T> make(std::ptrdiff_t li, std::ptrdiff_t lj,
                            std::ptrdiff_t lk) const {
    auto& f = dat->field();
    if (f.dims == 1) return ACC<T>(&f.at(li), 1, 0, 0);
    if (f.dims == 2) {
      const auto s_mid = static_cast<std::ptrdiff_t>(f.padded(1));
      return ACC<T>(&f.at(li, lj), 1, s_mid, 0);
    }
    const auto s_mid = static_cast<std::ptrdiff_t>(f.padded(2));
    const auto s_slow = s_mid * static_cast<std::ptrdiff_t>(f.padded(1));
    return ACC<T>(&f.at(li, lj, lk), 1, s_mid, s_slow);
  }
  void finish(DistContext&) const {}
  void offer_iter(IterSpace& is) const {
    if (is.iterate) return;
    DistDat<T>* d = dat;
    is.iterate = [d](const auto& fn) {
      d->for_owned([&](std::size_t, std::size_t, std::size_t,
                       std::ptrdiff_t li, std::ptrdiff_t lj,
                       std::ptrdiff_t lk) { fn(li, lj, lk); });
    };
    is.iterate_box = [](const Box& bx, const Fn3& fn) {
      for (std::ptrdiff_t i = bx.lo[0]; i < bx.hi[0]; ++i)
        for (std::ptrdiff_t j = bx.lo[1]; j < bx.hi[1]; ++j)
          for (std::ptrdiff_t k = bx.lo[2]; k < bx.hi[2]; ++k) fn(i, j, k);
    };
    is.dims = d->field().dims;
    is.local = d->field().local;
  }
};

/// A reduction's rank-local partial. The rank sweeps its points on one
/// thread at a time (the overlap path joins the interior command before
/// the shell), so the local is a single block of core/reducer.hpp; the
/// ranks then combine in rank order through Comm::allreduce.
template <typename T>
struct RedBinder {
  T* target;
  RedOp op;
  std::shared_ptr<T> local;

  RedBinder(T* t, RedOp o)
      : target(t), op(o), local(std::make_shared<T>(red_identity<T>(o))) {}
  void prepare() const {}
  void begin_halo(std::vector<std::function<void()>>&) const {}
  void declare(sycl::handler& h) const {
    h.require(static_cast<const void*>(local.get()),
              sycl::access_mode::read_write);
  }
  [[nodiscard]] Reducer<T> make(std::ptrdiff_t, std::ptrdiff_t,
                                std::ptrdiff_t) const {
    return Reducer<T>(local.get(), op);
  }
  void finish(DistContext& ctx) const {
    const T global = ctx.comm().allreduce(
        *local, op == RedOp::Sum   ? mpi::Op::Sum
                : op == RedOp::Min ? mpi::Op::Min
                                   : mpi::Op::Max);
    *target = red_apply(op, *target, global);
  }
  void offer_iter(IterSpace&) const {}
};

template <typename T>
DatBinder<T> make_binder(const DistArg<T>& a) {
  const bool reads_stencil =
      (a.acc == Acc::R || a.acc == Acc::RW) && a.st.max_radius() > 0;
  return {a.dat, reads_stencil, a.acc};
}

template <typename T>
RedBinder<T> make_binder(const DistRedArg<T>& a) {
  return RedBinder<T>(a.target, a.op);
}

/// Accumulate the boundary thickness the overlap split needs: the
/// widest read stencil per dimension. Stencil radii are fastest-first
/// while local coordinates are slowest-first, hence the flip.
template <typename T>
inline void accum_overlap(const DistArg<T>& a, int dims,
                          std::array<int, 3>& rad, bool& any_halo) {
  if (a.acc != Acc::R && a.acc != Acc::RW) return;
  const std::array<int, 3> r{a.st.radius_x, a.st.radius_y, a.st.radius_z};
  for (int d = 0; d < dims; ++d) {
    auto& slot = rad[static_cast<std::size_t>(dims - 1 - d)];
    slot = std::max(slot, r[static_cast<std::size_t>(d)]);
  }
  if (a.st.max_radius() > 0) any_halo = true;
}

template <typename T>
inline void accum_overlap(const DistRedArg<T>&, int, std::array<int, 3>&,
                          bool&) {}

}  // namespace detail

/// Distributed par_loop over the full interior of the global grid.
/// Collective: every rank must call it with the same arguments.
template <typename K, typename... Args>
void par_loop(DistContext& ctx, K&& kernel, Args... args) {
  auto binders = std::make_tuple(detail::make_binder(args)...);

  detail::IterSpace is;
  std::apply([&](const auto&... b) { (b.offer_iter(is), ...); }, binders);
  if (!is.iterate)
    throw std::invalid_argument("dist::par_loop: needs at least one dat arg");

  std::apply([](const auto&... b) { (b.prepare(), ...); }, binders);
  is.iterate([&](std::ptrdiff_t li, std::ptrdiff_t lj, std::ptrdiff_t lk) {
    std::apply([&](const auto&... b) { kernel(b.make(li, lj, lk)...); },
               binders);
  });
  std::apply([&](const auto&... b) { (b.finish(ctx), ...); }, binders);
}

/// Distributed par_loop with halo/compute overlap: the halo sends are
/// posted first, the sweep over points at stencil distance from the
/// block faces is submitted as an asynchronous command on the rank's
/// out-of-order queue, the receives are drained while it runs, and the
/// remaining boundary shell is swept once both have completed - the
/// classic overlapped structure of the OPS MPI backend. Point-for-point
/// identical to par_loop (each point computes from the same inputs);
/// cross-rank reductions may combine per-point contributions in a
/// different order.
///
/// Falls back to the blocking par_loop when there is nothing to
/// overlap (no stencil reads, or a single rank).
template <typename K, typename... Args>
void par_loop_overlap(DistContext& ctx, K kernel, Args... args) {
  auto binders = std::make_tuple(detail::make_binder(args)...);

  detail::IterSpace is;
  std::apply([&](const auto&... b) { (b.offer_iter(is), ...); }, binders);
  if (!is.iterate)
    throw std::invalid_argument(
        "dist::par_loop_overlap: needs at least one dat arg");

  std::array<int, 3> rad{0, 0, 0};
  bool any_halo = false;
  (detail::accum_overlap(args, is.dims, rad, any_halo), ...);
  if (!any_halo || ctx.comm().size() == 1) {
    par_loop(ctx, kernel, args...);
    return;
  }

  // Interior box: every point whose full read stencil lies in locally
  // owned (or physical-ghost) cells, i.e. at distance >= radius from
  // the block faces. The shell around it needs the exchanged halos.
  std::array<std::ptrdiff_t, 3> n{1, 1, 1};
  for (int d = 0; d < is.dims; ++d)
    n[static_cast<std::size_t>(d)] =
        static_cast<std::ptrdiff_t>(is.local[static_cast<std::size_t>(d)]);
  detail::Box interior;
  for (std::size_t d = 0; d < 3; ++d) {
    const auto r = static_cast<std::ptrdiff_t>(rad[d]);
    interior.lo[d] = std::min(r, n[d]);
    interior.hi[d] = std::max(n[d] - r, interior.lo[d]);
  }

  // 1. Post all halo sends (packs eagerly; receives deferred).
  std::vector<std::function<void()>> finishers;
  std::apply([&](const auto&... b) { (b.begin_halo(finishers), ...); },
             binders);

  auto sweep_interior = [&] {
    is.iterate_box(interior, [&](std::ptrdiff_t li, std::ptrdiff_t lj,
                                 std::ptrdiff_t lk) {
      std::apply([&](const auto&... b) { kernel(b.make(li, lj, lk)...); },
                 binders);
    });
  };

  // Overlap strategy: queue submission when the scheduler can run
  // commands concurrently (SYCLPORT_OVERLAP overrides the detection).
  const bool use_queue = sycl::detail::Scheduler::concurrency_available();

  if (use_queue) {
    // 2. Interior sweep as an asynchronous command. Footprints are
    // declared per dat, so ranks' interior commands are independent in
    // the scheduler's DAG and genuinely run concurrently.
    sycl::event ev = ctx.queue().submit([&](sycl::handler& h) {
      std::apply([&](const auto&... b) { (b.declare(h), ...); }, binders);
      h.single_task(
          [binders, kernel, iterate_box = is.iterate_box, interior]() {
            iterate_box(interior, [&](std::ptrdiff_t li, std::ptrdiff_t lj,
                                      std::ptrdiff_t lk) {
              std::apply(
                  [&](const auto&... b) { kernel(b.make(li, lj, lk)...); },
                  binders);
            });
          });
    });

    // 3. Drain the receives on the rank thread while the interior runs
    // - the unpack writes only ghost cells, disjoint from every
    // interior read at distance >= radius.
    for (auto& fin : finishers) fin();

    // 4. Join the interior command (rethrows kernel exceptions).
    ev.wait();
  } else {
    // Single hardware thread: a worker handoff buys no wall-clock
    // overlap, so keep the overlap ordering (sends in flight during the
    // interior sweep) but run the sweep on this thread.
    sweep_interior();
    for (auto& fin : finishers) fin();
  }

  // 5. Boundary shell, onion-peeled so every point runs exactly once:
  // for dimension d, the low/high slabs restrict earlier dimensions to
  // the interior band and leave later ones full.
  for (int d = 0; d < is.dims; ++d) {
    for (int side = 0; side < 2; ++side) {
      detail::Box slab;
      for (std::size_t dd = 0; dd < 3; ++dd) {
        if (static_cast<int>(dd) < d) {
          slab.lo[dd] = interior.lo[dd];
          slab.hi[dd] = interior.hi[dd];
        } else if (static_cast<int>(dd) == d) {
          slab.lo[dd] = side == 0 ? 0 : interior.hi[dd];
          slab.hi[dd] = side == 0 ? interior.lo[dd] : n[dd];
        } else {
          slab.lo[dd] = 0;
          slab.hi[dd] = n[dd];
        }
      }
      is.iterate_box(slab, [&](std::ptrdiff_t li, std::ptrdiff_t lj,
                               std::ptrdiff_t lk) {
        std::apply([&](const auto&... b) { kernel(b.make(li, lj, lk)...); },
                   binders);
      });
    }
  }

  // 6. Cross-rank reduction combines (collective).
  std::apply([&](const auto&... b) { (b.finish(ctx), ...); }, binders);
}

}  // namespace syclport::ops::dist
