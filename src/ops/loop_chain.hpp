#pragma once
/// \file loop_chain.hpp
/// Lazy dataflow capture with cross-loop fusion - the OPS
/// "loop-chaining / tiling" optimization (Reguly et al., the lever
/// behind the fusion headroom bench/ablation_fusion quantifies),
/// extended from eager overlapped tiling to a captured dataflow graph.
///
/// Loops are enqueued instead of executed. execute() then
///  1. builds a producer->consumer graph from the captured accessor
///     footprints (ops/dataflow.hpp - the par_loop-level mirror of the
///     OoO scheduler's RAW/WAR/WAW derivation),
///  2. partitions the chain into fusable segments: split at WAR edges,
///     after reductions, and around in-place stencil reads,
///  3. runs each segment as one fused sweep, tile-by-tile along the
///     slowest dimension. Tile k of loop i is expanded by the summed
///     slow radii of the later loops in its segment (ghost-zone /
///     overlapped tiling), so every value a later loop reads inside the
///     tile was produced in the same tile. Chain-internal intermediates
///     then stay cache-resident instead of making DRAM round trips.
///
/// In-place (Acc::RW) dats are legal: the chain double-buffers the rows
/// a loop executes - saving each row right before its first execution
/// and restoring it before any ghost re-execution - which keeps
/// read-modify-write updates idempotent under overlap recompute.
/// Pointwise RW only; a nonzero-radius RW read isolates its loop into
/// an unfused singleton segment (see dataflow.hpp for why).
///
/// hwmodel picks the deepest LLC-resident tile per segment
/// (memory_model::chain_tile_rows). tile == 0 runs the unfused
/// reference schedule, which is bit-exact with the fused one by
/// construction. Per-chain eliminated bytes are reported through
/// sycl::launch_log (fusion_record) and surfaced in the study report.

#include <algorithm>
#include <climits>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "hwmodel/memory_model.hpp"
#include "hwmodel/platform.hpp"
#include "ops/dataflow.hpp"
#include "ops/par_loop.hpp"
#include "sycl/launch_log.hpp"

namespace syclport::ops {

class LoopChain {
 public:
  LoopChain(Context& ctx, Block& block) : ctx_(&ctx), block_(&block) {}

  /// Queue one full-interior loop (Range::all).
  template <typename K, typename... Args>
  void enqueue(Meta meta, K kernel, Args... args) {
    enqueue(meta, Range::all(*block_), kernel, args...);
  }

  /// Queue one loop over an explicit range. Boundary loops (restricted
  /// or halo-extending ranges) are legal: the dataflow partitioner
  /// decides what can be overlap-tiled with what. Kernel + args are
  /// captured by value; execution is deferred to execute(). The loop's
  /// profile is recorded now, in capture order, so a fused chain is
  /// profile-wise the same logical schedule as the unfused one.
  template <typename K, typename... Args>
  void enqueue(Meta meta, Range r, K kernel, Args... args) {
    Queued q;
    q.node.name = meta.name;
    q.node.lo = r.lo;
    q.node.hi = r.hi;
    (collect(q, r, args), ...);

    if (ctx_->opt.record) {
      // par_loop records and returns without running in ModelOnly.
      const Mode saved = ctx_->opt.mode;
      ctx_->opt.mode = Mode::ModelOnly;
      par_loop(*ctx_, meta, *block_, r, kernel, args...);
      ctx_->opt.mode = saved;
    }

    Context* ctx = ctx_;
    Block* block = block_;
    q.run = [ctx, block, meta, r, kernel, args...](long lo, long hi) {
      Range rr = r;
      rr.lo[0] = std::max(rr.lo[0], lo);
      rr.hi[0] = std::min(rr.hi[0], hi);
      // Execute directly without re-recording: the profile was taken at
      // enqueue, and a tiled chain is one logical schedule, not
      // tiles x loops entries.
      const bool rec = ctx->opt.record;
      ctx->opt.record = false;
      par_loop(*ctx, meta, *block, rr, kernel, args...);
      ctx->opt.record = rec;
    };
    queued_.push_back(std::move(q));
  }

  /// Number of queued loops.
  [[nodiscard]] std::size_t size() const { return queued_.size(); }

  /// Run everything captured, then clear the queue - also on a kernel
  /// throw mid-chain, so the chain object stays reusable after an
  /// exception.
  ///
  /// tile_opt: explicit slow-dimension tile depth; 0 forces the unfused
  /// reference schedule. nullopt = hwmodel picks the deepest
  /// cache-resident tile per segment.
  void execute(std::optional<std::size_t> tile_opt = std::nullopt) {
    if (queued_.empty()) return;
    struct ClearGuard {
      std::vector<Queued>* q;
      ~ClearGuard() { q->clear(); }
    } guard{&queued_};
    last_ = Telemetry{};

    const long extent = static_cast<long>(block_->size(0));
    const int dims = std::clamp(block_->dims(), 1, 3);
    std::vector<dataflow::Node> nodes;
    nodes.reserve(queued_.size());
    for (const Queued& q : queued_) nodes.push_back(q.node);
    const std::vector<std::size_t> cuts = dataflow::partition(nodes, dims);
    const char* chain_name = dataflow::intern_chain_name(nodes);
    const hw::Platform& host = hw::nearest_host_platform();

    const bool live = ctx_->executing();
    for (std::size_t k = 0; k + 1 < cuts.size(); ++k)
      run_segment(nodes, cuts[k], cuts[k + 1], extent, tile_opt, host, live);
    last_.loops = nodes.size();
    last_.segments = cuts.size() - 1;

    if (sycl::launch_log::instance().enabled()) {
      sycl::fusion_record rec;
      rec.chain = chain_name;
      rec.loops = last_.loops;
      rec.segments = last_.segments;
      rec.tile = last_.tile;
      rec.fused = last_.fused;
      rec.fusable_bytes = last_.fusable_bytes;
      rec.eliminated_bytes = last_.eliminated_bytes;
      rec.rw_copy_bytes = last_.rw_copy_bytes;
      sycl::launch_log::instance().append_fusion(std::move(rec));
    }
  }

  // Telemetry of the most recent execute().
  [[nodiscard]] std::size_t last_segments() const { return last_.segments; }
  [[nodiscard]] std::size_t last_tile() const { return last_.tile; }
  [[nodiscard]] bool last_fused() const { return last_.fused; }
  /// Name-level internal producer->consumer bound (bytes) of the chain.
  [[nodiscard]] double last_fusable_bytes() const {
    return last_.fusable_bytes;
  }
  /// Modeled DRAM bytes the executed schedule eliminated.
  [[nodiscard]] double last_eliminated_bytes() const {
    return last_.eliminated_bytes;
  }
  /// RW double-buffer save/restore traffic the fused schedule paid.
  [[nodiscard]] double last_rw_copy_bytes() const {
    return last_.rw_copy_bytes;
  }

 private:
  struct Queued {
    dataflow::Node node;
    std::function<void(long, long)> run;
    /// Row save/restore closures, one per RW dat arg: (lo, hi, save)
    /// copies interior slow rows [lo, hi) between the live dat and its
    /// lazily allocated shadow, returning the bytes copied.
    std::vector<std::function<double(long, long, bool)>> rw;

    double rw_rows(long lo, long hi, bool save) {
      double copied = 0.0;
      if (lo < hi)
        for (auto& f : rw) copied += f(lo, hi, save);
      return copied;
    }
  };

  struct Telemetry {
    std::size_t loops = 0;
    std::size_t segments = 0;
    std::size_t tile = 0;
    bool fused = false;
    double fusable_bytes = 0.0;
    double eliminated_bytes = 0.0;
    double rw_copy_bytes = 0.0;
  };

  template <typename T>
  void collect(Queued& q, const Range& r, const DatArg<T>& a) {
    const int dims = std::clamp(block_->dims(), 1, 3);
    // Stencil radii mapped onto the slow..fast Range layout (x fastest).
    std::array<long, 3> rad{0, 0, 0};
    rad[static_cast<std::size_t>(dims - 1)] = a.st.radius_x;
    if (dims >= 2) rad[static_cast<std::size_t>(dims - 2)] = a.st.radius_y;
    if (dims >= 3) rad[0] = a.st.radius_z;

    double pts = 1.0;
    for (int d = 0; d < dims; ++d) {
      const auto i = static_cast<std::size_t>(d);
      pts *= static_cast<double>(std::max(0L, r.hi[i] - r.lo[i]));
    }
    const double bytes = pts * a.dat->ncomp() * sizeof(T);

    if (a.acc == Acc::R || a.acc == Acc::RW) {
      dataflow::AccessBox box;
      box.dat = a.dat;
      box.bytes = bytes;
      box.read = true;
      box.lo = r.lo;
      box.hi = r.hi;
      for (int d = 0; d < dims; ++d) {
        const auto i = static_cast<std::size_t>(d);
        box.lo[i] -= rad[i];
        box.hi[i] += rad[i];
      }
      q.node.acc.push_back(box);
      q.node.radius_slow =
          std::max(q.node.radius_slow, static_cast<int>(rad[0]));
    }
    if (a.acc == Acc::W || a.acc == Acc::RW) {
      dataflow::AccessBox box;
      box.dat = a.dat;
      box.bytes = bytes;
      box.write = true;
      box.lo = r.lo;
      box.hi = r.hi;
      q.node.acc.push_back(box);
    }
    if (a.acc == Acc::RW) {
      q.node.rw_max_radius =
          std::max(q.node.rw_max_radius, a.st.max_radius());
      Dat<T>* d = a.dat;
      auto shadow = std::make_shared<std::vector<T>>();
      q.rw.push_back([d, shadow](long lo, long hi, bool save) -> double {
        if (!d->allocated() || lo >= hi) return 0.0;
        const auto ss = static_cast<std::size_t>(d->stride_slow());
        const std::size_t total = d->alloc_bytes() / sizeof(T);
        if (shadow->empty()) shadow->resize(total);
        const long nslab = static_cast<long>(total / ss);
        const long halo = d->halo();
        double copied = 0.0;
        for (long row = lo; row < hi; ++row) {
          const long slab = row + halo;
          if (slab < 0 || slab >= nslab) continue;
          T* live = d->storage() + static_cast<std::size_t>(slab) * ss;
          T* shad = shadow->data() + static_cast<std::size_t>(slab) * ss;
          if (save)
            std::copy(live, live + ss, shad);
          else
            std::copy(shad, shad + ss, live);
          copied += static_cast<double>(ss * sizeof(T));
        }
        return copied;
      });
    }
  }
  template <typename T>
  void collect(Queued& q, const Range&, const RedArg<T>&) {
    q.node.reduction = true;
  }

  void run_segment(const std::vector<dataflow::Node>& nodes, std::size_t b,
                   std::size_t e, long extent,
                   std::optional<std::size_t> forced_tile,
                   const hw::Platform& host, bool live) {
    const std::size_t n = e - b;
    const int dims = std::clamp(block_->dims(), 1, 3);
    const double fusable = dataflow::internal_edge_bytes(nodes, b, e, dims);
    last_.fusable_bytes += fusable;

    // Ghost expansion: suffix slow radii of the later loops.
    std::vector<long> expand(n, 0);
    long suffix = 0;  // expand[0] once the loop ends (0 when n <= 1)
    for (std::size_t i = n; i-- > 1;) {
      suffix += nodes[b + i].radius_slow;
      expand[i - 1] = suffix;
    }
    const long ghost = 2 * suffix;

    // Slab working set per slow row across the segment's distinct dats.
    double row_bytes = 0.0;
    {
      std::vector<std::pair<const void*, double>> per_dat;
      for (std::size_t i = b; i < e; ++i) {
        const double rows = static_cast<double>(
            std::max(1L, nodes[i].hi[0] - nodes[i].lo[0]));
        for (const dataflow::AccessBox& a : nodes[i].acc) {
          const double rb = a.bytes / rows;
          bool found = false;
          for (auto& [id, v] : per_dat)
            if (id == a.dat) {
              v = std::max(v, rb);
              found = true;
            }
          if (!found) per_dat.emplace_back(a.dat, rb);
        }
      }
      for (const auto& [id, v] : per_dat) row_bytes += v;
    }

    // A 1D loop's only dimension is the tiled one, so tiles would cut
    // its reduction blocks (core/reducer.hpp) and change the fold; a
    // 1D segment closed by a reduction runs untiled.
    const bool cuts_blocks = dims == 1 && nodes[e - 1].reduction;
    std::size_t tile = 0;
    if (!cuts_blocks) {
      if (forced_tile)
        tile = *forced_tile;
      else if (n > 1 && fusable > 0.0)
        tile = hw::chain_tile_rows(host, row_bytes, extent, ghost);
    }

    if (tile == 0 || static_cast<long>(tile) >= extent) {
      if (live)
        for (std::size_t i = b; i < e; ++i)
          queued_[i].run(nodes[i].lo[0], nodes[i].hi[0]);
      return;
    }

    last_.fused = true;
    last_.tile = std::max(last_.tile, tile);
    last_.eliminated_bytes +=
        fusable * hw::chain_tile_residency(host, row_bytes, tile, ghost);
    if (!live) return;

    std::vector<long> done_hi(n, LONG_MIN);
    for (long t0 = 0; t0 < extent; t0 += static_cast<long>(tile)) {
      const long t1 = std::min(extent, t0 + static_cast<long>(tile));
      for (std::size_t i = 0; i < n; ++i) {
        Queued& q = queued_[b + i];
        const long rlo = nodes[b + i].lo[0];
        const long rhi = nodes[b + i].hi[0];
        // First/last tile absorb rows outside [0, extent): boundary
        // loops touch halo rows the tile walk itself never visits.
        const long lo =
            t0 == 0 ? rlo : std::max(rlo, t0 - expand[i]);
        const long hi =
            t1 == extent ? rhi : std::min(rhi, t1 + expand[i]);
        if (lo >= hi) continue;
        // Zero expansion means this loop's tiles partition its rows
        // exactly - no ghost re-execution, so no double-buffering.
        if (!q.rw.empty() && expand[i] > 0) {
          // Double-buffer: restore already-executed rows about to be
          // ghost-re-executed, save fresh rows before their first
          // execution (capturing the state this loop first sees).
          const long done = done_hi[i];
          const long redo_hi = done == LONG_MIN ? lo : std::min(done, hi);
          last_.rw_copy_bytes += q.rw_rows(lo, redo_hi, false);
          last_.rw_copy_bytes += q.rw_rows(std::max(lo, redo_hi), hi, true);
        }
        q.run(lo, hi);
        done_hi[i] = std::max(done_hi[i], hi);
      }
    }
  }

  Context* ctx_;
  Block* block_;
  std::vector<Queued> queued_;
  Telemetry last_;
};

}  // namespace syclport::ops
