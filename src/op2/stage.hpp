#pragma once
/// \file stage.hpp
/// The staged par_loop lowering (Strategy::Staged and every loop whose
/// dats left AoS). Instead of racing indirect increments (atomics) or
/// serializing colours, a loop runs in super-tiles:
///   Phase A - tiles of `stage_tile` elements run in parallel: indirect
///     read operands are gathered into contiguous per-element scratch,
///     non-AoS direct operands are transcoded into tile buffers, the
///     kernel sweeps the tile in ascending element order, and INC
///     contributions land in a per-tile scratch arena (race-free: the
///     arena is element-indexed, no two elements share a slot).
///   Phase B - the arena is scattered into the target dats with
///     *ordered accumulation*: updates to one target apply in element
///     order. The scan is parallelized by partitioning targets - every
///     worker walks the whole arena in order but applies only the
///     updates landing in its target range - so the result is
///     bit-identical to the serial eager schedule at any thread count.
///     Global reductions likewise land in element slots and fold in
///     index blocks (core/reducer.hpp) after the last super-tile.
/// A super-tile's arena (nthreads x a few tiles) stays cache-resident;
/// the hwmodel charges this scratch traffic to the L1 term on CPUs and
/// penalizes the partitioned re-scan on GPUs (device_model.cpp).
///
/// Restrictions: indirect non-INC args must be Acc::R (a staged scatter
/// of racy indirect writes would need its own ordering pass; no app
/// needs one), and all INC args must share one conflict map (the
/// par_loop contract).

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "op2/arg.hpp"
#include "op2/context.hpp"
#include "runtime/thread_pool.hpp"

namespace syclport::op2::detail {

template <typename T>
struct IncArg;  // defined in par_loop.hpp

// --- per-INC-arg scratch arena (lives across phase A/B of a super-tile)

template <typename T>
struct IncArena {
  std::vector<T> buf;  ///< slots x dim increments, element-indexed
};
struct NoArena {};

template <typename T>
IncArena<T> make_arena(const IncArg<T>& a, std::size_t slots, std::size_t) {
  return {std::vector<T>(slots * static_cast<std::size_t>(a.dat->dim()))};
}
template <typename T>
NoArena make_arena(const DirectArg<T>&, std::size_t, std::size_t) {
  return {};
}
template <typename T>
NoArena make_arena(const IndirectArg<T>&, std::size_t, std::size_t) {
  return {};
}
/// Global reductions stage through element slots over the whole loop
/// (core/reducer.hpp), folded in index blocks after the last tile.
template <typename T>
BlockedTarget<T> make_arena(const GblArg<T>& a, std::size_t, std::size_t n) {
  BlockedTarget<T> slots(a.target, a.op);
  slots.start(n);
  return slots;
}

// --- tile views: what the kernel sees during a phase-A tile sweep -----------

/// Direct argument: AoS dats are accessed in place (same addresses the
/// eager lowering hands out); other layouts stage through a tile buffer
/// gathered on entry (R/RW) and flushed on exit (W/RW).
template <typename T>
struct DirectTileView {
  Dat<T>* dat;
  std::size_t base, count;
  Acc acc;
  bool in_place;
  std::vector<T> buf;

  DirectTileView(const DirectArg<T>& a, std::size_t b, std::size_t e)
      : dat(a.dat), base(b), count(e - b), acc(a.acc),
        in_place(a.dat->layout() == Layout::AoS) {
    if (in_place) return;
    const auto dim = static_cast<std::size_t>(dat->dim());
    buf.resize(count * dim);
    if (acc != Acc::W) {
      for (std::size_t i = 0; i < count; ++i)
        for (std::size_t c = 0; c < dim; ++c)
          buf[i * dim + c] = dat->at(base + i, static_cast<int>(c));
    }
  }

  [[nodiscard]] T* make(std::size_t e, bool) {
    const auto dim = static_cast<std::size_t>(dat->dim());
    return in_place ? dat->storage() + e * dim : buf.data() + (e - base) * dim;
  }

  void flush() {
    if (in_place || acc == Acc::R) return;
    const auto dim = static_cast<std::size_t>(dat->dim());
    for (std::size_t i = 0; i < count; ++i)
      for (std::size_t c = 0; c < dim; ++c)
        dat->at(base + i, static_cast<int>(c)) = buf[i * dim + c];
  }
};

/// Indirect read argument: gathered into contiguous per-element scratch
/// regardless of the dat's layout - this is the "plan-local gather"
/// that turns the scattered reads into a vectorizable stream.
template <typename T>
struct IndirectTileView {
  std::size_t base;
  int dim;
  std::vector<T> buf;

  IndirectTileView(const IndirectArg<T>& a, std::size_t b, std::size_t e)
      : base(b), dim(a.dat->dim()) {
    if (a.acc != Acc::R)
      throw std::invalid_argument(
          "staged par_loop: indirect non-INC args must be Acc::R");
    const auto d = static_cast<std::size_t>(dim);
    buf.resize((e - b) * d);
    for (std::size_t i = 0; i < e - b; ++i) {
      const auto t = static_cast<std::size_t>(a.map->at(b + i, a.idx));
      for (std::size_t c = 0; c < d; ++c)
        buf[i * d + c] = a.dat->at(t, static_cast<int>(c));
    }
  }

  [[nodiscard]] const T* make(std::size_t e, bool) const {
    return buf.data() + (e - base) * static_cast<std::size_t>(dim);
  }
  void flush() {}
};

/// INC argument: contributions go to the element's arena slot (plain
/// adds - no two elements share a slot, so phase A never races).
template <typename T>
struct IncTileView {
  T* slot0;  ///< arena slot of element `base`
  int dim;
  std::size_t base, count;

  IncTileView(const IncArg<T>& a, IncArena<T>& arena, std::size_t arena_slot,
              std::size_t b, std::size_t e)
      : slot0(arena.buf.data() +
              arena_slot * static_cast<std::size_t>(a.dat->dim())),
        dim(a.dat->dim()), base(b), count(e - b) {
    std::fill(slot0, slot0 + count * static_cast<std::size_t>(dim), T{});
  }

  [[nodiscard]] Inc<T> make(std::size_t e, bool) const {
    return Inc<T>(slot0 + (e - base) * static_cast<std::size_t>(dim), false);
  }
  void flush() {}
};

template <typename T>
struct GblTileView {
  BlockedTarget<T>* slots;
  [[nodiscard]] Reducer<T> make(std::size_t e, bool) const {
    return slots->make(e);
  }
  void flush() {}
};

template <typename T>
DirectTileView<T> make_tile_view(const DirectArg<T>& a, NoArena&, std::size_t,
                                 std::size_t b, std::size_t e) {
  return DirectTileView<T>(a, b, e);
}
template <typename T>
IndirectTileView<T> make_tile_view(const IndirectArg<T>& a, NoArena&,
                                   std::size_t, std::size_t b, std::size_t e) {
  return IndirectTileView<T>(a, b, e);
}
template <typename T>
IncTileView<T> make_tile_view(const IncArg<T>& a, IncArena<T>& arena,
                              std::size_t arena_slot, std::size_t b,
                              std::size_t e) {
  return IncTileView<T>(a, arena, arena_slot, b, e);
}
template <typename T>
GblTileView<T> make_tile_view(const GblArg<T>&, BlockedTarget<T>& slots,
                              std::size_t, std::size_t, std::size_t) {
  return GblTileView<T>{&slots};
}

// --- phase B: ordered scatter of one element's increments -------------------

/// Apply element e's increments of one INC arg if its target lands in
/// [t_lo, t_hi). Reading the target id here (not in phase A) keeps the
/// arena layout trivially element-indexed.
template <typename T>
inline void scatter_inc_elem(const IncArg<T>& a, const IncArena<T>& arena,
                             std::size_t arena_slot, std::size_t e,
                             std::size_t t_lo, std::size_t t_hi) {
  const auto t = static_cast<std::size_t>(a.map->at(e, a.idx));
  if (t < t_lo || t >= t_hi) return;
  const auto dim = static_cast<std::size_t>(a.dat->dim());
  const T* src = arena.buf.data() + arena_slot * dim;
  for (std::size_t c = 0; c < dim; ++c)
    a.dat->at(t, static_cast<int>(c)) += src[c];
}
template <typename A, typename Arena>
inline void scatter_inc_elem(const A&, const Arena&, std::size_t, std::size_t,
                             std::size_t, std::size_t) {}

/// Number of target partitions phase B scans with. One partition per
/// worker; the arena re-read is shared-cache-resident, so extra
/// partitions cost little and buy full scatter parallelism.
[[nodiscard]] inline std::size_t stage_partitions(const Context& ctx,
                                                  std::size_t ntargets) {
  if (ctx.opt.exec == Exec::Serial) return 1;
  const std::size_t p = rt::ThreadPool::global().size();
  return std::max<std::size_t>(1, std::min(p, ntargets));
}

/// Run the staged lowering over n elements. `conflict_targets` is the
/// size of the INC conflict map's target set (0 when the loop has no
/// INC args - phase B is skipped entirely then).
template <typename K, typename... Args>
void staged_loop(Context& ctx, const char* name, std::size_t n,
                 std::size_t conflict_targets, K&& kernel,
                 std::tuple<Args...>& args) {
  const std::size_t tile = std::max<std::size_t>(1, ctx.opt.stage_tile);
  const std::size_t pool = std::max<std::size_t>(
      1, ctx.opt.exec == Exec::Serial ? 1 : rt::ThreadPool::global().size());
  // Tiles per super-tile: enough slack for the pool to balance, small
  // enough that every live arena stays in the shared cache.
  const std::size_t ktiles = std::max<std::size_t>(1, pool * 4);
  const std::size_t super = ktiles * tile;

  auto arenas = std::apply(
      [&](const auto&... a) {
        return std::make_tuple(make_arena(a, super, n)...);
      },
      args);

  constexpr auto idx = std::index_sequence_for<Args...>{};

  // Phase A body for one tile of the current super-tile.
  auto run_tile = [&]<std::size_t... I>(std::index_sequence<I...>,
                                        std::size_t sbase, std::size_t t) {
    const std::size_t b = sbase + t * tile;
    const std::size_t e_end = std::min(n, b + tile);
    if (b >= e_end) return;
    auto views = std::make_tuple(make_tile_view(
        std::get<I>(args), std::get<I>(arenas), t * tile, b, e_end)...);
    for (std::size_t e = b; e < e_end; ++e)
      std::apply([&](auto&... v) { kernel(v.make(e, false)...); }, views);
    std::apply([&](auto&... v) { (v.flush(), ...); }, views);
  };

  // Phase B body: one target partition scans the super-tile in order.
  auto scan_partition = [&]<std::size_t... I>(std::index_sequence<I...>,
                                              std::size_t sbase,
                                              std::size_t tiles_here,
                                              std::size_t t_lo,
                                              std::size_t t_hi) {
    for (std::size_t t = 0; t < tiles_here; ++t) {
      const std::size_t b = sbase + t * tile;
      const std::size_t e_end = std::min(n, b + tile);
      for (std::size_t e = b; e < e_end; ++e)
        (scatter_inc_elem(std::get<I>(args), std::get<I>(arenas),
                          t * tile + (e - b), e, t_lo, t_hi),
         ...);
    }
  };

  const std::size_t parts = stage_partitions(ctx, conflict_targets);
  const std::size_t t_chunk =
      parts == 0 ? 0 : (conflict_targets + parts - 1) / std::max<std::size_t>(1, parts);

  for (std::size_t sbase = 0; sbase < n; sbase += super) {
    const std::size_t tiles_here =
        std::min(ktiles, (n - sbase + tile - 1) / tile);

    switch (ctx.opt.exec) {
      case Exec::Serial:
        for (std::size_t t = 0; t < tiles_here; ++t) run_tile(idx, sbase, t);
        break;
      case Exec::Threads:
        rt::ThreadPool::global().parallel_for(
            tiles_here, [&](std::size_t lo, std::size_t hi) {
              for (std::size_t t = lo; t < hi; ++t) run_tile(idx, sbase, t);
            });
        break;
      case Exec::Sycl:
        ctx.queue.parallel_for(name, sycl::range<1>(tiles_here),
                               [&](sycl::item<1> it) {
                                 run_tile(idx, sbase, it.get_linear_id());
                               });
        ctx.queue.wait();
        break;
    }

    if (conflict_targets == 0) continue;
    switch (ctx.opt.exec) {
      case Exec::Serial:
        scan_partition(idx, sbase, tiles_here, 0, conflict_targets);
        break;
      case Exec::Threads:
        rt::ThreadPool::global().parallel_for(
            parts, [&](std::size_t lo, std::size_t hi) {
              for (std::size_t p = lo; p < hi; ++p)
                scan_partition(idx, sbase, tiles_here, p * t_chunk,
                               std::min(conflict_targets, (p + 1) * t_chunk));
            });
        break;
      case Exec::Sycl:
        ctx.queue.parallel_for(name, sycl::range<1>(parts),
                               [&](sycl::item<1> it) {
                                 const std::size_t p = it.get_linear_id();
                                 scan_partition(
                                     idx, sbase, tiles_here, p * t_chunk,
                                     std::min(conflict_targets,
                                              (p + 1) * t_chunk));
                               });
        ctx.queue.wait();
        break;
    }
  }
  std::apply([](const auto&... a) { (fold_elements(a), ...); }, arenas);
}

}  // namespace syclport::op2::detail
