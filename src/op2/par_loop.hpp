#pragma once
/// \file par_loop.hpp
/// The OP2 parallel-loop primitive for unstructured meshes. A par_loop
/// names a kernel over a set with direct, indirect, increment and
/// global arguments. Indirect increments race between elements sharing
/// a mapped target; the context's Strategy resolves them (paper §3):
///   - Atomics: one ascending sweep. Serial adds in place; Threads runs
///     the owner-ordered sweep (one element range per worker, each
///     adding in place to the targets it owns and deferring the rest to
///     scratch replayed in element order), bit-identical to Serial;
///     Sycl, the modelled GPU lowering, adds atomically;
///   - GlobalColor: one sweep per colour, plain adds;
///   - Hierarchical: one sweep per block colour; within a block,
///     intra-colour phases (separated by work-group barriers when
///     executing through SYCL).
/// Every invocation records a LoopProfile including measured gather
/// locality, the input to the hardware model's MG-CFD reproduction.

#include <algorithm>
#include <span>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "hwmodel/loop_profile.hpp"
#include "hwmodel/platform.hpp"
#include "op2/arg.hpp"
#include "op2/context.hpp"
#include "op2/renumber.hpp"
#include "op2/stage.hpp"
#include "runtime/thread_pool.hpp"
#include "sycl/launch_log.hpp"

namespace syclport::op2 {

struct Meta {
  const char* name = "(kernel)";
  double flops_per_elem = 0.0;
};

namespace detail {

// --- kernel-side binders -----------------------------------------------------

template <typename T>
struct DirectBinder {
  T* base;
  int dim;
  [[nodiscard]] T* make(std::size_t e, bool /*atomic*/) const {
    return base + e * static_cast<std::size_t>(dim);
  }
};

template <typename T>
struct IndirectBinder {
  T* base;
  int dim;
  const Map* map;
  int idx;
  [[nodiscard]] T* make(std::size_t e, bool /*atomic*/) const {
    return base +
           static_cast<std::size_t>(map->at(e, idx)) *
               static_cast<std::size_t>(dim);
  }
};

template <typename T>
struct IncBinder {
  T* base;
  int dim;
  const Map* map;
  int idx;
  [[nodiscard]] Inc<T> make(std::size_t e, bool atomic) const {
    return Inc<T>(base + static_cast<std::size_t>(map->at(e, idx)) *
                             static_cast<std::size_t>(dim),
                  atomic);
  }
};

template <typename T>
DirectBinder<T> make_binder(const DirectArg<T>& a, bool executing) {
  return {executing ? a.dat->elem(0) : nullptr, a.dat->dim()};
}
template <typename T>
IndirectBinder<T> make_binder(const IndirectArg<T>& a, bool executing) {
  if (a.acc == Acc::INC)
    throw std::invalid_argument("use arg_inc() for INC access");
  return {executing ? a.dat->elem(0) : nullptr, a.dat->dim(), a.map, a.idx};
}
/// Global reductions run through the blocks of core/reducer.hpp:
/// 1024-element blocks by element index on ascending sweeps, element
/// slots folded in the same blocks under colourings and staging.
template <typename T>
BlockedTarget<T> make_binder(const GblArg<T>& a, bool) {
  return BlockedTarget<T>(a.target, a.op);
}

template <typename A>
struct is_gbl_arg : std::false_type {};
template <typename T>
struct is_gbl_arg<GblArg<T>> : std::true_type {};

/// Ascending sweep over positions [0, count) of a loop with global
/// reductions: one task per reduction block, on the context's executor.
/// invoke(views, i) runs the kernel for position i.
template <typename... B, typename Invoke>
void blocked_sweep(Context& ctx, const char* name, std::tuple<B...>& binders,
                   std::size_t count, Invoke&& invoke) {
  const ReduceBlocks blocks(1, count);
  rt::ScopedGrainScale per_block(kReduceBlock);
  auto launch = [&](std::size_t nblocks, const auto& run) {
    switch (ctx.opt.exec) {
      case Exec::Serial:
        for (std::size_t k = 0; k < nblocks; ++k) run(k);
        break;
      case Exec::Threads:
        rt::ThreadPool::global().parallel_for(
            nblocks, [&](std::size_t kb, std::size_t ke) {
              for (std::size_t k = kb; k < ke; ++k) run(k);
            });
        break;
      case Exec::Sycl:
        ctx.queue.parallel_for(name, sycl::range<1>(nblocks),
                               [&](sycl::item<1> it) {
                                 run(it.get_linear_id());
                               });
        break;
    }
  };
  run_blocked(binders, blocks.count(), launch,
              [&](auto& views, std::size_t k) {
                for (std::size_t i = blocks.begin(k); i < blocks.end(k); ++i)
                  invoke(views, i);
              });
}

/// INC arguments get their own type so the kernel parameter is Inc<T>.
template <typename T>
struct IncArg {
  Dat<T>* dat;
  Map* map;
  int idx;
};
template <typename T>
IncBinder<T> make_binder(const IncArg<T>& a, bool executing) {
  return {executing ? a.dat->elem(0) : nullptr, a.dat->dim(), a.map, a.idx};
}

// --- owner-ordered sweep (Strategy::Atomics on Exec::Threads) ---------------

/// Scratch of one INC argument on the owner-ordered sweep: one slot of
/// dim components per increment whose target another range owns,
/// grouped by range. Slots start at -0.0, so the single add a slot
/// receives stores the increment's own bits (-0.0 + v == v).
template <typename T>
struct OwnerSlots {
  std::vector<T> buf;
  std::vector<T*> next;  ///< per range: the range's first slot
  const T* replayed;     ///< next slot to replay
};
struct NoSlots {};

template <typename B>
NoSlots owner_slots(const B&, const Plan&) {
  return {};
}
template <typename T>
OwnerSlots<T> owner_slots(const IncBinder<T>& b, const Plan& plan) {
  const auto dim = static_cast<std::size_t>(b.dim);
  const auto arity = static_cast<std::size_t>(b.map->arity());
  const auto col = static_cast<std::size_t>(b.idx);
  std::size_t total = 0;
  for (std::size_t r = 0; r < plan.ranges(); ++r)
    total += plan.deferred_slots[r * arity + col];
  OwnerSlots<T> s;
  s.buf.assign(total * dim, -T{});
  std::size_t at = 0;
  for (std::size_t r = 0; r < plan.ranges(); ++r) {
    s.next.push_back(s.buf.data() + at * dim);
    at += plan.deferred_slots[r * arity + col];
  }
  s.replayed = s.buf.data();
  return s;
}

/// Range r's view of an INC argument: targets r owns are added in
/// place, every other increment takes the range's next scratch slot.
template <typename T>
struct OwnedIncView {
  T* base;
  int dim;
  const Map* map;
  int idx;
  const int* owner;
  int range;
  T* next;

  [[nodiscard]] Inc<T> make(std::size_t e, bool /*atomic*/) {
    const auto t = static_cast<std::size_t>(map->at(e, idx));
    if (owner[t] == range)
      return Inc<T>(base + t * static_cast<std::size_t>(dim), false);
    T* slot = next;
    next += dim;
    return Inc<T>(slot, false);
  }
};

template <typename B>
[[nodiscard]] B& range_view(B& b, NoSlots&, const Plan&, std::size_t) {
  return b;
}
template <typename T>
[[nodiscard]] OwnedIncView<T> range_view(IncBinder<T>& b, OwnerSlots<T>& s,
                                         const Plan& plan, std::size_t r) {
  return {b.base, b.dim, b.map, b.idx, plan.owner.data(),
          static_cast<int>(r), s.next[r]};
}

/// Add element e's deferred increments of one INC argument (range r).
template <typename B>
void replay(const B&, NoSlots&, const Plan&, std::size_t, std::size_t) {}
template <typename T>
void replay(const IncBinder<T>& b, OwnerSlots<T>& s, const Plan& plan,
            std::size_t r, std::size_t e) {
  const auto t = static_cast<std::size_t>(b.map->at(e, b.idx));
  if (plan.owner[t] == static_cast<int>(r)) return;
  const auto dim = static_cast<std::size_t>(b.dim);
  T* dst = b.base + t * dim;
  for (std::size_t c = 0; c < dim; ++c) dst[c] += s.replayed[c];
  s.replayed += dim;
}

/// Pool ranges of an owner-ordered sweep: one per worker, or one when
/// this thread's launches run serially anyway.
[[nodiscard]] inline std::size_t owner_ranges() {
  return rt::serial_execution_forced() ? 1 : rt::ThreadPool::global().size();
}

/// The thread-pool lowering of Strategy::Atomics, bit-identical to the
/// Serial sweep. Each of the plan's ranges runs its elements in
/// ascending order on one task: increments of targets the range owns
/// are plain in-place adds (no other range adds to them), the rest land
/// in per-range scratch slots. The slots are then replayed in (range,
/// element, argument) order, so every target sees the Serial sequence
/// of adds - given the Inc contract (op2/arg.hpp). Ranges hold whole
/// reduction blocks, which global reductions run as on an ascending
/// blocked sweep.
template <typename K, typename... B>
void owner_sweep(const Plan& plan, std::tuple<B...>& binders, std::size_t n,
                 K& kernel) {
  auto slots = std::apply(
      [&](const auto&... b) { return std::make_tuple(owner_slots(b, plan)...); },
      binders);
  const ReduceBlocks blocks(1, n);
  std::apply([&](auto&... b) { (start_slots(b, blocks.count()), ...); },
             binders);

  auto run_range = [&]<std::size_t... I>(std::index_sequence<I...>,
                                         std::size_t r) {
    auto views = std::tuple<decltype(range_view(
        std::get<I>(binders), std::get<I>(slots), plan, r))...>(
        range_view(std::get<I>(binders), std::get<I>(slots), plan, r)...);
    const std::size_t e_end = plan.range_begin[r + 1];
    for (std::size_t k = plan.range_begin[r] / kReduceBlock;
         blocks.begin(k) < e_end; ++k) {
      auto bv = std::tuple<decltype(block_view(std::get<I>(views), k))...>(
          block_view(std::get<I>(views), k)...);
      for (std::size_t e = blocks.begin(k); e < blocks.end(k); ++e)
        kernel(std::get<I>(bv).make(e, false)...);
      (close_block(std::get<I>(bv)), ...);
    }
  };
  constexpr auto idx = std::index_sequence_for<B...>{};
  const std::size_t ranges = plan.ranges();
  rt::ScopedGrainScale per_range(n / ranges);
  rt::ThreadPool::global().parallel_for(
      ranges, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) run_range(idx, r);
      });
  std::apply([](const auto&... b) { (fold_blocks(b), ...); }, binders);

  auto replay_elem = [&]<std::size_t... I>(std::index_sequence<I...>,
                                           std::size_t r, std::size_t e) {
    (replay(std::get<I>(binders), std::get<I>(slots), plan, r, e), ...);
  };
  for (std::size_t r = 0; r < ranges; ++r)
    for (std::size_t i = plan.deferred_begin[r];
         i < plan.deferred_begin[r + 1]; ++i)
      replay_elem(idx, r, static_cast<std::size_t>(plan.deferred_elems[i]));
}

// --- profile accumulation -----------------------------------------------------

struct ArgInfo {
  const void* dat_id = nullptr;
  const Map* map = nullptr;  ///< null for direct args
  Acc acc = Acc::R;
  double unique_bytes = 0.0;
  int dim = 1;
  std::size_t elem_bytes = 8;
  bool is_gbl = false;
  Layout layout = Layout::AoS;  ///< the dat's physical layout
};

template <typename T>
ArgInfo arg_info(const DirectArg<T>& a) {
  return {a.dat, nullptr, a.acc, a.dat->bytes(), a.dat->dim(), sizeof(T),
          false, a.dat->layout()};
}
template <typename T>
ArgInfo arg_info(const IndirectArg<T>& a) {
  return {a.dat, a.map, a.acc,
          static_cast<double>(a.map->to().size()) * a.dat->dim() * sizeof(T),
          a.dat->dim(), sizeof(T), false, a.dat->layout()};
}
template <typename T>
ArgInfo arg_info(const IncArg<T>& a) {
  return {a.dat, a.map, Acc::INC,
          static_cast<double>(a.map->to().size()) * a.dat->dim() * sizeof(T),
          a.dat->dim(), sizeof(T), false, a.dat->layout()};
}
template <typename T>
ArgInfo arg_info(const GblArg<T>& a) {
  ArgInfo i;
  i.dat_id = a.target;
  i.is_gbl = true;
  return i;
}

template <typename T>
void note_gather_layout(const DirectArg<T>&, Layout&) {}
template <typename T>
void note_gather_layout(const IndirectArg<T>& a, Layout& l) {
  l = a.dat->layout();
}
template <typename T>
void note_gather_layout(const IncArg<T>& a, Layout& l) {
  l = a.dat->layout();
}
template <typename T>
void note_gather_layout(const GblArg<T>&, Layout&) {}

}  // namespace detail

template <typename T>
[[nodiscard]] detail::IncArg<T> arg_inc(Dat<T>& d, Map& m, int idx) {
  return {&d, &m, idx};
}

template <typename K, typename... Args>
void par_loop(Context& ctx, Meta meta, Set& set, K&& kernel, Args... args) {
  const std::size_t n = set.size();
  if (n == 0) return;

  // Collect type-erased argument facts for profiling + scheduling.
  std::vector<detail::ArgInfo> infos{detail::arg_info(args)...};
  const detail::ArgInfo* conflict = nullptr;
  for (const auto& i : infos)
    if (i.acc == Acc::INC) {
      if (conflict != nullptr && conflict->map != i.map)
        throw std::invalid_argument(
            "par_loop: INC args must share one conflict map");
      conflict = &i;
    }

  // Non-AoS operands cannot run through the eager binders (they hand
  // the kernel raw AoS pointers), so their loops route to the staged
  // lowering, which transcodes per tile. Conflict loops additionally
  // stage when the context (or SYCLPORT_INDIRECT) asks for it.
  bool non_aos = false;
  for (const auto& i : infos) non_aos |= i.layout != Layout::AoS;
  const Strategy strat =
      conflict != nullptr && non_aos ? Strategy::Staged : ctx.opt.strategy;
  const bool staged =
      non_aos || (conflict != nullptr && strat == Strategy::Staged);

  const Plan* plan =
      conflict != nullptr ? &ctx.plan_for(*conflict->map, strat)
                          : nullptr;

  if (ctx.opt.record) {
    hw::LoopProfile lp;
    lp.name = meta.name;
    lp.dims = 1;
    lp.extent = {n, 1, 1};
    lp.flops = meta.flops_per_elem * static_cast<double>(n);
    lp.n_arrays = 0;
    bool any_indirect = false;
    double max_line_factor = 1.0;
    std::vector<const void*> seen_dats;
    std::vector<const Map*> seen_maps;
    for (const auto& i : infos) {
      if (i.is_gbl) {
        lp.reduction = hw::ReductionKind::BuiltIn;
        continue;
      }
      if (std::find(seen_dats.begin(), seen_dats.end(), i.dat_id) !=
          seen_dats.end())
        continue;  // same dat through several map columns: count once
      seen_dats.push_back(i.dat_id);
      lp.n_arrays += 1;
      lp.elem_bytes = i.elem_bytes;
      lp.working_set += i.unique_bytes;
      const bool indirect = i.map != nullptr;
      any_indirect |= indirect;
      const bool reads = i.acc == Acc::R || i.acc == Acc::RW || i.acc == Acc::INC;
      const bool writes =
          i.acc == Acc::W || i.acc == Acc::RW || i.acc == Acc::INC;
      if (reads) {
        lp.bytes_read += i.unique_bytes;
        if (indirect) lp.bytes_read_indirect += i.unique_bytes;
      }
      if (writes) {
        lp.bytes_written += i.unique_bytes;
        if (indirect) lp.bytes_written_indirect += i.unique_bytes;
      }
      if (indirect) {
        if (std::find(seen_maps.begin(), seen_maps.end(), i.map) ==
            seen_maps.end()) {
          seen_maps.push_back(i.map);
          lp.map_bytes += i.map->bytes();
          lp.working_set += i.map->bytes();
        }
        const GatherStats& gs =
            ctx.gather_for(*i.map, i.dim, i.elem_bytes, strat, i.layout);
        max_line_factor = std::max(max_line_factor, gs.line_factor);
        for (std::size_t c = 0; c < gs.factor_at.size(); ++c)
          lp.gather_factor_at[c] =
              std::max(lp.gather_factor_at[c], gs.factor_at[c]);
      }
    }
    lp.gather_line_factor = max_line_factor;
    if (staged) {
      // Scratch traffic of the staging: every staged operand (gather
      // buffer, INC arena, non-AoS direct buffer) is written once and
      // read back once per element.
      lp.staged = true;
      for (const auto& i : infos) {
        if (i.is_gbl) continue;
        if (i.map != nullptr || i.layout != Layout::AoS)
          lp.staged_bytes += 2.0 * static_cast<double>(n) *
                             static_cast<double>(i.dim) *
                             static_cast<double>(i.elem_bytes);
      }
    }
    if (conflict != nullptr) {
      lp.cls = hw::KernelClass::EdgeFlux;
      // Staged: one gather/compute pass plus one ordered scatter pass,
      // and no atomic increments - the races resolve in scratch.
      lp.launches = strat == Strategy::Staged ? 2 : plan->launches();
      if (strat == Strategy::Atomics) {
        std::size_t incs = 0;
        for (const auto& i : infos)
          if (i.acc == Acc::INC)
            incs += n * static_cast<std::size_t>(i.dim);
        lp.atomic_updates = incs;
      }
    } else if (any_indirect) {
      lp.cls = hw::KernelClass::MGTransfer;
    } else {
      lp.cls = lp.reduction != hw::ReductionKind::None
                   ? hw::KernelClass::Reduction
                   : hw::KernelClass::VertexUpdate;
    }
    ctx.profiles.push_back(std::move(lp));
  }
  if (!ctx.executing()) return;

  // Per-loop locality decision record: strategy/layout/ordering plus
  // the measured cold gather line factor next to the model's
  // LLC-capacity prediction (study report / ablation_layout table).
  auto log_decision = [&] {
    if (conflict == nullptr || !sycl::launch_log::instance().enabled())
      return;
    Layout lay = Layout::AoS;
    (detail::note_gather_layout(args, lay), ...);
    const GatherStats& gs = ctx.gather_for(
        *conflict->map, conflict->dim, conflict->elem_bytes, strat, lay);
    sycl::locality_record rec;
    rec.loop = meta.name;
    rec.strategy = std::string(to_string(strat));
    rec.layout = std::string(to_string(lay));
    const bool ren = conflict->map->to().renumbered();
    if (const auto o = ordering_from_env(); o.has_value() && ren)
      rec.ordering = std::string(to_string(*o));
    else
      rec.ordering = ren ? "custom" : "identity";
    rec.measured_gather = gs.line_factor;
    rec.predicted_gather = hw::interp_gather_curve(
        gs.factor_at, hw::nearest_host_platform().llc.bytes * 0.5);
    sycl::launch_log::instance().append_locality(std::move(rec));
  };

  if (staged) {
    auto targs = std::forward_as_tuple(args...);
    detail::staged_loop(
        ctx, meta.name, n,
        conflict != nullptr ? conflict->map->to().size() : std::size_t{0},
        kernel, targs);
    log_decision();
    return;
  }
  log_decision();

  auto binders = std::make_tuple(detail::make_binder(args, true)...);
  if (conflict != nullptr && strat == Strategy::Atomics &&
      ctx.opt.exec == Exec::Threads) {
    detail::owner_sweep(ctx.plan_for(*conflict->map, Strategy::Atomics,
                                     detail::owner_ranges()),
                        binders, n, kernel);
    return;
  }
  // Serial sweeps add in element order already; only the modelled SYCL
  // lowering keeps atomic increments.
  const bool atomic = conflict != nullptr && strat == Strategy::Atomics &&
                      ctx.opt.exec == Exec::Sycl;
  auto invoke = [&](std::size_t e) {
    std::apply([&](auto&... b) { kernel(b.make(e, atomic)...); }, binders);
  };

  // Parallel sweep over an index list (or the identity when null).
  auto sweep = [&](const std::vector<int>* elems, std::size_t count) {
    auto elem_at = [&](std::size_t i) {
      return elems != nullptr ? static_cast<std::size_t>((*elems)[i]) : i;
    };
    switch (ctx.opt.exec) {
      case Exec::Serial:
        for (std::size_t i = 0; i < count; ++i) invoke(elem_at(i));
        break;
      case Exec::Threads: {
        rt::ThreadPool::global().parallel_for(
            count, [&](std::size_t b, std::size_t e) {
              for (std::size_t i = b; i < e; ++i) invoke(elem_at(i));
            });
        break;
      }
      case Exec::Sycl:
        ctx.queue.parallel_for(meta.name, sycl::range<1>(count),
                               [&](sycl::item<1> it) {
                                 invoke(elem_at(it.get_linear_id()));
                               });
        break;
    }
  };

  constexpr bool has_gbl = (detail::is_gbl_arg<Args>::value || ...);
  if (conflict == nullptr || strat == Strategy::Atomics ||
      strat == Strategy::None) {
    if constexpr (has_gbl) {
      detail::blocked_sweep(
          ctx, meta.name, binders, n, [&](auto& views, std::size_t e) {
            std::apply([&](auto&... b) { kernel(b.make(e, atomic)...); },
                       views);
          });
    } else {
      sweep(nullptr, n);
    }
    return;
  }

  // Coloured sweeps visit elements out of index order: reductions go
  // through element slots, folded in index blocks once all colours ran.
  std::apply([n](auto&... b) { (start_slots(b, n), ...); }, binders);

  if (strat == Strategy::GlobalColor) {
    for (const auto& elems : plan->elements_by_colour)
      sweep(&elems, elems.size());
    std::apply([](const auto&... b) { (fold_elements(b), ...); }, binders);
    return;
  }

  // Hierarchical: blocks of one colour run in parallel; inside a block,
  // intra-colour phases execute in order.
  const auto run_block_serial = [&](int blk) {
    const std::size_t b = static_cast<std::size_t>(blk) * plan->block_size;
    const std::size_t e_end = std::min(n, b + plan->block_size);
    for (int c = 0; c < plan->max_intra_colours; ++c)
      for (std::size_t e = b; e < e_end; ++e)
        if (plan->intra_colour[e] == c) invoke(e);
  };
  for (const auto& blocks : plan->blocks_by_colour) {
    switch (ctx.opt.exec) {
      case Exec::Serial:
        for (int blk : blocks) run_block_serial(blk);
        break;
      case Exec::Threads:
        rt::ThreadPool::global().parallel_for(
            blocks.size(), [&](std::size_t lo, std::size_t hi) {
              for (std::size_t i = lo; i < hi; ++i)
                run_block_serial(blocks[i]);
            });
        break;
      case Exec::Sycl: {
        // One work-group per block; barriers separate intra-colours -
        // the GPU hierarchical execution of Figure 1 (right).
        const std::size_t wg = std::max<std::size_t>(1, ctx.opt.wg);
        const Plan* pl = plan;
        const std::vector<int>* blks = &blocks;
        const std::size_t total = n;
        ctx.queue.parallel_for(
            meta.name,
            sycl::nd_range<1>(sycl::range<1>(blocks.size() * wg),
                              sycl::range<1>(wg)),
            [&, pl, blks, total](sycl::nd_item<1> it) {
              const int blk = (*blks)[it.get_group(0)];
              const std::size_t b =
                  static_cast<std::size_t>(blk) * pl->block_size;
              const std::size_t e_end = std::min(total, b + pl->block_size);
              for (int c = 0; c < pl->max_intra_colours; ++c) {
                for (std::size_t e = b + it.get_local_id(0); e < e_end;
                     e += wg)
                  if (pl->intra_colour[e] == c) invoke(e);
                it.barrier();
              }
            });
        break;
      }
    }
  }
  std::apply([](const auto&... b) { (fold_elements(b), ...); }, binders);
}

}  // namespace syclport::op2
