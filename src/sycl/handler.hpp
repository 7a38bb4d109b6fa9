#pragma once
/// \file handler.hpp
/// miniSYCL command-group handler: the executor behind parallel_for.
///
/// - parallel_for(range)    : "flat" launch; work-items execute with no
///   group structure. The work-group shape the real runtime would pick
///   is *not* chosen here - it is modeled later by the compiler
///   heuristics in hwmodel, which is precisely the flat-formulation
///   effect (paper §3).
/// - parallel_for(nd_range) : explicit work-group shape; groups are
///   scheduled over the thread pool and work-items may use barriers and
///   local memory (fiber-backed, see runtime/fiber.hpp).
/// - reductions             : SYCL 2020 reduction objects, implemented
///   with per-block (flat) or per-group (nd_range) partials folded in
///   index order (core/reducer.hpp), so the result is bit-identical at
///   any schedule, grain and worker count.
///
/// The handler runs in one of two modes (docs/queue.md):
/// - immediate: kernels execute inline at the point of the
///   parallel_for call, preceded by a conservative wait on conflicting
///   in-flight commands. Zero-allocation - this is the seed behaviour
///   and the hot path of the queue shortcuts and in_order queues.
/// - deferred: kernels are *recorded* (captured by value) together
///   with the accessor footprint; queue::submit turns the recording
///   into a scheduler Command so independent command groups execute
///   concurrently. nd_range validation still happens at record time,
///   so ill-formed launches throw synchronously in both modes.

#include <atomic>
#include <concepts>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/reducer.hpp"
#include "core/timing.hpp"
#include "runtime/fiber.hpp"
#include "runtime/mem/stream.hpp"
#include "runtime/row_walk.hpp"
#include "runtime/thread_pool.hpp"
#include "sycl/access.hpp"
#include "sycl/detail/local_arena.hpp"
#include "sycl/detail/scheduler.hpp"
#include "sycl/device.hpp"
#include "sycl/event.hpp"
#include "sycl/exception.hpp"
#include "sycl/item.hpp"
#include "sycl/launch_log.hpp"
#include "sycl/range.hpp"
#include "sycl/reduction.hpp"

namespace sycl {

class queue;

namespace detail {

template <int Dims>
[[nodiscard]] inline std::array<std::size_t, 3> to3(const range<Dims>& r) {
  std::array<std::size_t, 3> out{1, 1, 1};
  for (int d = 0; d < Dims; ++d) out[static_cast<std::size_t>(d)] = r[d];
  return out;
}

template <typename K, int Dims>
inline void invoke_flat(const K& k, const id<Dims>& i, const range<Dims>& r) {
  if constexpr (std::invocable<const K&, item<Dims>>) {
    k(item<Dims>(i, r));
  } else {
    static_assert(std::invocable<const K&, id<Dims>>,
                  "kernel must accept sycl::item or sycl::id");
    k(i);
  }
}

inline void log_launch(const char* name, int dims,
                       std::array<std::size_t, 3> global,
                       std::optional<std::array<std::size_t, 3>> local,
                       bool barrier, bool reduction, double secs,
                       syclport::rt::LaunchStats stats,
                       bool streaming = false) {
  auto& lg = launch_log::instance();
  if (!lg.enabled()) return;
  launch_record rec;
  rec.kernel_name = name;
  rec.dims = dims;
  rec.global = global;
  rec.local = local;
  rec.used_barrier = barrier;
  rec.reduction = reduction;
  rec.host_seconds = secs;
  rec.executor = stats;
  rec.streaming = streaming;
  lg.append(std::move(rec));
}

/// f(id) for the ids of row `row` of `r` (the row-major rows of its
/// fast dimension) with fast index in [jb, je): the row is
/// delinearized once, then the fast index steps in ascending order.
template <int Dims, typename F>
inline void for_row_ids(const range<Dims>& r, std::size_t row, std::size_t jb,
                        std::size_t je, F&& f) {
  id<Dims> i = delinearize(row * r[Dims - 1] + jb, r);
  for (std::size_t j = jb; j < je; ++j) {
    i[Dims - 1] = j;
    f(i);
  }
}

// --- kernel execution bodies, shared by both handler modes -----------------

template <int Dims, typename K>
void exec_flat(const device&, const char* name, const range<Dims>& r,
               const K& k, bool streaming = false) {
  // Streaming launch: every written accessor is discard_write, i.e. a
  // pure write stream (BabelStream-style fills/copies). Pin the static
  // schedule so the worker-to-range map matches the first-touch page
  // placement the mem subsystem established at allocation.
  std::optional<syclport::rt::ScopedLaunchParams> pin;
  if (streaming)
    pin.emplace(syclport::rt::Schedule::Static, std::nullopt);
  syclport::WallTimer t;
  const std::size_t fast = r[Dims - 1];
  auto seg = [&](std::size_t row, std::size_t jb, std::size_t je) {
    for_row_ids(r, row, jb, je,
                [&](const id<Dims>& i) { invoke_flat(k, i, r); });
  };
  // Templated fast path: the lambda is dispatched inline by the pool,
  // no std::function is constructed per launch or per chunk.
  syclport::rt::ThreadPool::global().parallel_for(
      r.size(), [&](std::size_t b, std::size_t e) {
        syclport::rt::for_each_row_segment(b, e, fast, seg);
      });
  log_launch(name, Dims, to3(r), std::nullopt, false, false, t.seconds(),
             syclport::rt::ThreadPool::last_stats(), streaming);
}

template <int Dims, typename T, typename Op, typename K>
void exec_flat_reduce(const device&, const char* name, const range<Dims>& r,
                      const reduction_descriptor<T, Op>& red, const K& k) {
  // The index blocks of core/reducer.hpp: each block accumulates its
  // points in ascending order, and the partials fold in block order -
  // the result is independent of schedule, grain and worker count.
  syclport::WallTimer t;
  const std::size_t rows = Dims == 1 || r.size() == 0 ? 1 : r[0];
  const syclport::ReduceBlocks blocks(rows, r.size() / rows);
  std::vector<T> parts(blocks.count(), red.identity);
  {
    syclport::rt::ScopedGrainScale per_block(syclport::kReduceBlock);
    syclport::rt::ThreadPool::global().parallel_for(
        blocks.count(), [&](std::size_t kb, std::size_t ke) {
          for (std::size_t blk = kb; blk < ke; ++blk) {
            reducer<T, Op> part(red.identity, red.op);
            syclport::rt::for_each_row_segment(
                blocks.begin(blk), blocks.end(blk), r[Dims - 1],
                [&](std::size_t row, std::size_t jb, std::size_t je) {
                  for_row_ids(r, row, jb, je, [&](const id<Dims>& i) {
                    if constexpr (std::invocable<const K&, item<Dims>,
                                                 reducer<T, Op>&>) {
                      k(item<Dims>(i, r), part);
                    } else {
                      k(i, part);
                    }
                  });
                });
            parts[blk] = part.value();
          }
        });
  }
  syclport::fold_partials(*red.target, parts, red.op);
  log_launch(name, Dims, to3(r), std::nullopt, false, true, t.seconds(),
             syclport::rt::ThreadPool::last_stats());
}

/// Runs work-group `g` of an nd_range launch through
/// run_barrier_group, calling f(nd_item) for each of its work-items.
/// Item 0 and any fiber items build their nd_item from the local
/// linear id. The barrier-free tail walks the group's local rows in
/// ascending linear order with for_row_ids: it delinearizes once per
/// row, then steps the fast local index. Returns true if the group used
/// barriers.
template <int Dims, typename F>
bool run_nd_group(const nd_range<Dims>& ndr, std::size_t sg_size,
                  std::size_t g, F&& f) {
  const range<Dims> groups = ndr.get_group_range();
  const range<Dims> local = ndr.get_local_range();
  const range<Dims> global = ndr.get_global_range();
  const id<Dims> gid = delinearize(g, groups);
  id<Dims> origin;  // global id of the group's local id 0
  for (int d = 0; d < Dims; ++d) origin[d] = gid[d] * local[d];
  auto run = [&](const id<Dims>& lid, std::size_t li) {
    id<Dims> glob;
    for (int d = 0; d < Dims; ++d) glob[d] = origin[d] + lid[d];
    f(nd_item<Dims>(glob, lid, group<Dims>(gid, groups, local, li), global,
                    sg_size));
  };
  const std::size_t fast = local[Dims - 1];
  return syclport::rt::run_barrier_group(
      local.size(),
      [&](std::size_t li) { run(delinearize(li, local), li); },
      [&](std::size_t b, std::size_t e) {
        syclport::rt::for_each_row_segment(
            b, e, fast, [&](std::size_t row, std::size_t jb, std::size_t je) {
              std::size_t li = row * fast + jb;
              for_row_ids(local, row, jb, je,
                          [&](const id<Dims>& lid) { run(lid, li++); });
            });
      });
}

template <int Dims, typename K>
void exec_nd(const device& dev, const char* name, const nd_range<Dims>& ndr,
             const K& k) {
  syclport::WallTimer t;
  const std::size_t sg_size = dev.profile().sub_group_size;
  std::atomic<bool> used_barrier{false};
  syclport::rt::ThreadPool::global().run_chunks(
      ndr.get_group_range().size(), [&](std::size_t g) {
        local_reset();
        if (run_nd_group(ndr, sg_size, g, k))
          used_barrier.store(true, std::memory_order_relaxed);
      });
  log_launch(name, Dims, to3(ndr.get_global_range()),
             to3(ndr.get_local_range()), used_barrier.load(), false,
             t.seconds(), syclport::rt::ThreadPool::last_stats());
}

template <int Dims, typename T, typename Op, typename K>
void exec_nd_reduce(const device& dev, const char* name,
                    const nd_range<Dims>& ndr,
                    const reduction_descriptor<T, Op>& red, const K& k) {
  syclport::WallTimer t;
  const std::size_t sg_size = dev.profile().sub_group_size;
  // One partial per work-group, folded in group linear id order; a
  // barrier-free group accumulates its items in local linear order.
  std::vector<T> parts(ndr.get_group_range().size(), red.identity);
  std::atomic<bool> used_barrier{false};
  syclport::rt::ThreadPool::global().run_chunks(
      parts.size(), [&](std::size_t g) {
        local_reset();
        reducer<T, Op> part(red.identity, red.op);
        if (run_nd_group(ndr, sg_size, g,
                         [&](const nd_item<Dims>& it) { k(it, part); }))
          used_barrier.store(true, std::memory_order_relaxed);
        parts[g] = part.value();
      });
  syclport::fold_partials(*red.target, parts, red.op);
  log_launch(name, Dims, to3(ndr.get_global_range()),
             to3(ndr.get_local_range()), used_barrier.load(), true,
             t.seconds(), syclport::rt::ThreadPool::last_stats());
}

template <typename K>
void exec_single(const device&, const K& k) {
  syclport::WallTimer t;
  k();
  log_launch("(single_task)", 1, {1, 1, 1},
             std::array<std::size_t, 3>{1, 1, 1}, false, false, t.seconds(),
             syclport::rt::LaunchStats{});
}

}  // namespace detail

class handler {
 public:
  explicit handler(const device& dev, bool deferred = false)
      : dev_(dev), deferred_(deferred) {
    // Deferred command groups record straight into a pooled Command
    // node: in steady state the actions/footprint vectors below are
    // recycled capacity, so a submit allocates nothing for bookkeeping.
    if (deferred_) cmd_ = detail::acquire_command();
  }

  // --- flat parallel_for -------------------------------------------------
  template <int Dims, typename K>
  void parallel_for(range<Dims> r, const K& k) {
    parallel_for("(unnamed)", r, k);
  }

  template <int Dims, typename K>
  void parallel_for(const char* name, range<Dims> r, const K& k) {
    // The streaming decision is made here, once the command group's
    // accessors have all registered (they are constructed before the
    // parallel_for call inside the CGF).
    const bool streaming = discard_only_writes();
    if (!deferred_) {
      sync_immediate();
      detail::exec_flat(dev_, name, r, k, streaming);
      return;
    }
    record(name, [dev = dev_, name, r, k, streaming] {
      detail::exec_flat(dev, name, r, k, streaming);
    });
  }

  // --- flat parallel_for with one reduction --------------------------------
  template <int Dims, typename T, typename Op, typename K>
  void parallel_for(range<Dims> r, reduction_descriptor<T, Op> red,
                    const K& k) {
    parallel_for("(unnamed)", r, red, k);
  }

  template <int Dims, typename T, typename Op, typename K>
  void parallel_for(const char* name, range<Dims> r,
                    reduction_descriptor<T, Op> red, const K& k) {
    if (!deferred_) {
      sync_immediate();
      detail::exec_flat_reduce(dev_, name, r, red, k);
      return;
    }
    register_access(red.target, access_mode::read_write);
    record(name, [dev = dev_, name, r, red, k] {
      detail::exec_flat_reduce(dev, name, r, red, k);
    });
  }

  // --- nd_range parallel_for ----------------------------------------------
  template <int Dims, typename K>
  void parallel_for(nd_range<Dims> ndr, const K& k) {
    parallel_for("(unnamed)", ndr, k);
  }

  template <int Dims, typename K>
  void parallel_for(const char* name, nd_range<Dims> ndr, const K& k) {
    check_nd_range(ndr);
    if (!deferred_) {
      sync_immediate();
      detail::exec_nd(dev_, name, ndr, k);
      return;
    }
    record(name, [dev = dev_, name, ndr, k] {
      detail::exec_nd(dev, name, ndr, k);
    });
  }

  // --- nd_range parallel_for with one reduction ----------------------------
  template <int Dims, typename T, typename Op, typename K>
  void parallel_for(nd_range<Dims> ndr, reduction_descriptor<T, Op> red,
                    const K& k) {
    parallel_for("(unnamed)", ndr, red, k);
  }

  template <int Dims, typename T, typename Op, typename K>
  void parallel_for(const char* name, nd_range<Dims> ndr,
                    reduction_descriptor<T, Op> red, const K& k) {
    check_nd_range(ndr);
    if (!deferred_) {
      sync_immediate();
      detail::exec_nd_reduce(dev_, name, ndr, red, k);
      return;
    }
    register_access(red.target, access_mode::read_write);
    record(name, [dev = dev_, name, ndr, red, k] {
      detail::exec_nd_reduce(dev, name, ndr, red, k);
    });
  }

  // --- single task ----------------------------------------------------------
  template <typename K>
  void single_task(const K& k) {
    if (!deferred_) {
      sync_immediate();
      detail::exec_single(dev_, k);
      return;
    }
    record("(single_task)", [dev = dev_, k] { detail::exec_single(dev, k); });
  }

  // --- explicit memory operations (SYCL 2020 handler::fill/copy) ----------
  /// Fill the accessor's range through the streaming-store path:
  /// non-temporal stores fanned out over the pool under a static
  /// schedule. The accessor's constructor already registered the
  /// footprint (use write_only + no_init to also skip the buffer's
  /// lazy zero fill).
  template <typename Acc, typename T>
    requires requires(const Acc& a) {
      a.get_pointer();
      a.get_range();
    }
  void fill(Acc acc, const T& value) {
    using Elem = std::remove_reference_t<decltype(*acc.get_pointer())>;
    Elem* ptr = acc.get_pointer();
    const std::size_t n = acc.get_range().size();
    const Elem v = static_cast<Elem>(value);
    if (!deferred_) {
      sync_immediate();
      syclport::rt::mem::parallel_fill(ptr, n, v);
      return;
    }
    record("(fill)", [ptr, n, v] { syclport::rt::mem::parallel_fill(ptr, n, v); });
  }

  /// Accessor-to-accessor copy (dst must be at least src-sized), again
  /// through the streaming-store path.
  template <typename SrcAcc, typename DstAcc>
    requires requires(const SrcAcc& s, const DstAcc& d) {
      s.get_pointer();
      d.get_pointer();
    }
  void copy(SrcAcc src, DstAcc dst) {
    using Elem = std::remove_reference_t<decltype(*src.get_pointer())>;
    const Elem* sp = src.get_pointer();
    Elem* dp = dst.get_pointer();
    const std::size_t bytes = src.get_range().size() * sizeof(Elem);
    if (!deferred_) {
      sync_immediate();
      syclport::rt::mem::parallel_copy(dp, sp, bytes);
      return;
    }
    record("(copy)", [dp, sp, bytes] {
      syclport::rt::mem::parallel_copy(dp, sp, bytes);
    });
  }

  /// Host-to-accessor copy.
  template <typename T, typename DstAcc>
    requires requires(const DstAcc& d) { d.get_pointer(); }
  void copy(const T* src, DstAcc dst) {
    register_access(src, access_mode::read);
    T* dp = dst.get_pointer();
    const std::size_t bytes = dst.get_range().size() * sizeof(T);
    if (!deferred_) {
      sync_immediate();
      syclport::rt::mem::parallel_copy(dp, src, bytes);
      return;
    }
    record("(copy)", [dp, src, bytes] {
      syclport::rt::mem::parallel_copy(dp, src, bytes);
    });
  }

  /// Accessor-to-host copy.
  template <typename SrcAcc, typename T>
    requires requires(const SrcAcc& s) { s.get_pointer(); }
  void copy(SrcAcc src, T* dst) {
    register_access(dst, access_mode::write);
    const T* sp = src.get_pointer();
    const std::size_t bytes = src.get_range().size() * sizeof(T);
    if (!deferred_) {
      sync_immediate();
      syclport::rt::mem::parallel_copy(dst, sp, bytes);
      return;
    }
    record("(copy)", [dst, sp, bytes] {
      syclport::rt::mem::parallel_copy(dst, sp, bytes);
    });
  }

  /// Accessor registration: records (base pointer, access_mode) in the
  /// command group's footprint, from which queue::submit derives
  /// RAW/WAR/WAW edges. Buffer accessors call this from their
  /// constructors; SYCL code may also call it explicitly.
  template <typename Acc>
  void require(const Acc& acc) {
    register_access(acc.get_pointer(), acc.mode());
  }

  /// Footprint declaration for raw (USM / wrapped host) memory, which
  /// has no accessor to speak for it. A command group that declares
  /// the pointers it touches goes into the scheduler's DAG, ordered only
  /// against commands on the same pointers, instead of draining the
  /// queue and running inline.
  void require(const void* ptr, access_mode mode) {
    register_access(ptr, mode);
  }

  /// Explicit command ordering, as in SYCL 2020. On the immediate path
  /// the event is simply waited for here.
  void depends_on(const event& e) {
    if (!deferred_) {
      if (e.command()) detail::Scheduler::instance().wait_command(e.command());
      return;
    }
    if (e.command()) cmd_->explicit_deps.push_back(e.command());
    explicit_deps_ = true;
  }

 private:
  friend class queue;

  template <int Dims>
  void check_nd_range(const nd_range<Dims>& ndr) const {
    if (ndr.get_local_range().size() > dev_.max_work_group_size())
      throw exception(errc::nd_range_error,
                      "work-group size exceeds device limit");
  }

  void register_access(const void* ptr, access_mode mode) {
    if (ptr == nullptr) return;
    auto& accs = deferred_ ? cmd_->accesses : accesses_;
    for (auto& a : accs) {
      if (a.ptr != ptr) continue;
      // Mixed modes on one pointer collapse to read_write - the
      // conservative superset (it also voids any discard promise).
      if (a.mode != mode) a.mode = access_mode::read_write;
      return;
    }
    accs.push_back({ptr, mode});
  }

  /// True when the footprint writes at least one accessor and every
  /// written accessor is discard_write: a pure write stream with no
  /// dependence on prior contents, eligible for the streaming launch
  /// path in exec_flat.
  [[nodiscard]] bool discard_only_writes() const {
    const auto& accs = deferred_ ? cmd_->accesses : accesses_;
    bool any = false;
    for (const auto& a : accs) {
      if (a.mode == access_mode::discard_write)
        any = true;
      else if (a.mode != access_mode::read)
        return false;
    }
    return any;
  }

  /// Conservative pre-step of immediate execution: block until no
  /// in-flight command conflicts with this command group's footprint
  /// (with no footprint declared, until the scheduler is idle).
  void sync_immediate() const {
    auto& s = detail::Scheduler::instance();
    if (s.active()) s.wait_conflicts(accesses_);
  }

  template <typename Fn>
  void record(const char* name, Fn&& fn) {
    if (!name_) name_ = name;
    cmd_->actions.push_back(std::forward<Fn>(fn));
  }

  device dev_;
  bool deferred_ = false;
  bool explicit_deps_ = false;  ///< depends_on was called (even if retired)
  const char* name_ = nullptr;  ///< first recorded kernel name
  /// Deferred mode only: the pooled command this group records into
  /// (actions, footprint, explicit deps). Null on the immediate path,
  /// which stays allocation-free.
  std::shared_ptr<detail::Command> cmd_;
  /// Immediate mode only: footprint for the conservative pre-wait.
  std::vector<detail::AccessRecord> accesses_;
};

}  // namespace sycl
