#pragma once
/// \file loop_chain.hpp
/// Lazy dataflow capture for OP2: the unstructured-mesh counterpart of
/// ops::LoopChain. Captured par_loops over the same set whose arguments
/// are all direct (or global reductions) fuse element-wise: one sweep
/// runs every kernel back to back per element, so chain-internal
/// intermediates stay register/L1-resident instead of making a DRAM
/// round trip per loop. Element-wise fusion of direct loops is always
/// legal - every access of element e touches only e's own values, so
/// per-element program order preserves RAW/WAR/WAW exactly. Global
/// reductions of a fused sweep accumulate per element and fold in index
/// blocks (core/reducer.hpp), so the result is independent of the
/// thread count and schedule.
///
/// Segments split where fusion stops being element-local:
///  - any indirect or INC argument (values of mapped neighbours may be
///    written by other elements mid-sweep; these loops run through the
///    full par_loop machinery with their colouring strategy);
///  - a set change between consecutive loops.
///
/// Per-chain eliminated bytes are reported through sycl::launch_log
/// under the chain-composition name ("(chain:...)", as the structured
/// chain names its chains).

#include <cstddef>
#include <functional>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "op2/par_loop.hpp"
#include "ops/dataflow.hpp"
#include "sycl/launch_log.hpp"

namespace syclport::op2 {

class LoopChain {
 public:
  explicit LoopChain(Context& ctx) : ctx_(&ctx) {}

  /// Queue one loop. Kernel + args are captured by value; execution is
  /// deferred to execute(). The loop's profile is recorded now, in
  /// capture order, so a fused chain is profile-wise the same logical
  /// schedule as the unfused one.
  template <typename K, typename... Args>
  void enqueue(Meta meta, Set& set, K kernel, Args... args) {
    Queued q;
    q.set = &set;
    q.node.name = meta.name;
    q.node.hi = {static_cast<long>(set.size()), 1, 1};
    (classify(q, args), ...);

    if (ctx_->opt.record) {
      // par_loop records and returns without running in ModelOnly.
      const Mode saved = ctx_->opt.mode;
      ctx_->opt.mode = Mode::ModelOnly;
      par_loop(*ctx_, meta, set, kernel, args...);
      ctx_->opt.mode = saved;
    }

    Context* ctx = ctx_;
    Set* set_p = &set;
    q.run_full = [ctx, meta, set_p, kernel, args...] {
      const bool rec = ctx->opt.record;
      ctx->opt.record = false;
      par_loop(*ctx, meta, *set_p, kernel, args...);
      ctx->opt.record = rec;
    };
    q.make_invoke = [kernel, args...](std::size_t n) {
      auto binders = std::make_shared<
          std::tuple<decltype(detail::make_binder(args, true))...>>(
          detail::make_binder(args, true)...);
      std::apply([n](auto&... b) { (start_slots(b, n), ...); }, *binders);
      return FusedLoop{
          [binders, kernel](std::size_t e) {
            std::apply([&](auto&... b) { kernel(b.make(e, false)...); },
                       *binders);
          },
          [binders] {
            std::apply([](const auto&... b) { (fold_elements(b), ...); },
                       *binders);
          }};
    };
    queued_.push_back(std::move(q));
  }

  /// Number of queued loops.
  [[nodiscard]] std::size_t size() const { return queued_.size(); }

  /// Run everything captured, then clear the queue - also on a kernel
  /// throw mid-chain.
  void execute() {
    if (queued_.empty()) return;
    struct ClearGuard {
      std::vector<Queued>* q;
      ~ClearGuard() { q->clear(); }
    } guard{&queued_};
    last_ = Telemetry{};

    std::vector<ops::dataflow::Node> nodes;
    nodes.reserve(queued_.size());
    for (const Queued& q : queued_) nodes.push_back(q.node);
    const char* chain_name = ops::dataflow::intern_chain_name(nodes);

    // Segment boundaries: element-locality ends at any unfusable loop
    // or set change.
    std::vector<std::size_t> cuts{0};
    for (std::size_t j = 1; j < queued_.size(); ++j)
      if (!queued_[j].fusable || !queued_[j - 1].fusable ||
          queued_[j].set != queued_[j - 1].set)
        cuts.push_back(j);
    cuts.push_back(queued_.size());

    const bool live = ctx_->executing();
    for (std::size_t k = 0; k + 1 < cuts.size(); ++k)
      run_segment(nodes, cuts[k], cuts[k + 1], chain_name, live);
    last_.loops = nodes.size();
    last_.segments = cuts.size() - 1;

    if (::sycl::launch_log::instance().enabled()) {
      ::sycl::fusion_record rec;
      rec.chain = chain_name;
      rec.loops = last_.loops;
      rec.segments = last_.segments;
      rec.tile = 0;
      rec.fused = last_.fused;
      rec.fusable_bytes = last_.fusable_bytes;
      rec.eliminated_bytes = last_.eliminated_bytes;
      ::sycl::launch_log::instance().append_fusion(std::move(rec));
    }
  }

  // Telemetry of the most recent execute().
  [[nodiscard]] std::size_t last_segments() const { return last_.segments; }
  [[nodiscard]] bool last_fused() const { return last_.fused; }
  /// Name-level internal producer->consumer bound (bytes) of the chain.
  [[nodiscard]] double last_fusable_bytes() const {
    return last_.fusable_bytes;
  }
  /// Modeled DRAM bytes the executed schedule eliminated.
  [[nodiscard]] double last_eliminated_bytes() const {
    return last_.eliminated_bytes;
  }

 private:
  /// One loop of a fused sweep: the per-element kernel call, and the
  /// fold of its reductions' element slots once the sweep is done.
  struct FusedLoop {
    std::function<void(std::size_t)> invoke;
    std::function<void()> finish;
  };

  struct Queued {
    Set* set = nullptr;
    bool fusable = true;
    ops::dataflow::Node node;
    std::function<void()> run_full;
    /// Deferred binder construction for an n-element sweep: dat base
    /// pointers are resolved at execute time, not capture time.
    std::function<FusedLoop(std::size_t n)> make_invoke;
  };

  struct Telemetry {
    std::size_t loops = 0;
    std::size_t segments = 0;
    bool fused = false;
    double fusable_bytes = 0.0;
    double eliminated_bytes = 0.0;
  };

  template <typename T>
  void classify(Queued& q, const DirectArg<T>& a) {
    ops::dataflow::AccessBox box;
    box.dat = a.dat;
    box.hi = q.node.hi;
    box.bytes = a.dat->bytes();
    box.read = a.acc == Acc::R || a.acc == Acc::RW;
    box.write = a.acc == Acc::W || a.acc == Acc::RW;
    q.node.acc.push_back(box);
  }
  template <typename T>
  void classify(Queued& q, const IndirectArg<T>&) {
    q.fusable = false;
  }
  template <typename T>
  void classify(Queued& q, const detail::IncArg<T>&) {
    q.fusable = false;
  }
  template <typename T>
  void classify(Queued& q, const GblArg<T>&) {
    q.node.reduction = true;
  }

  void run_segment(const std::vector<ops::dataflow::Node>& nodes,
                   std::size_t b, std::size_t e, const char* chain_name,
                   bool live) {
    const double fusable_bytes =
        ops::dataflow::internal_edge_bytes(nodes, b, e, 1);
    last_.fusable_bytes += fusable_bytes;

    if (e - b < 2 || !queued_[b].fusable) {
      if (live)
        for (std::size_t i = b; i < e; ++i) queued_[i].run_full();
      return;
    }

    last_.fused = true;
    // Element-wise fusion keeps intermediates element-private, i.e.
    // register/L1-resident: the whole internal bound is eliminated.
    last_.eliminated_bytes += fusable_bytes;
    if (!live) return;

    const std::size_t n = queued_[b].set->size();
    std::vector<FusedLoop> inv;
    inv.reserve(e - b);
    for (std::size_t i = b; i < e; ++i)
      inv.push_back(queued_[i].make_invoke(n));
    auto invoke_all = [&](std::size_t el) {
      for (const auto& f : inv) f.invoke(el);
    };
    switch (ctx_->opt.exec) {
      case Exec::Serial:
        for (std::size_t el = 0; el < n; ++el) invoke_all(el);
        break;
      case Exec::Threads:
        rt::ThreadPool::global().parallel_for(
            n, [&](std::size_t lo, std::size_t hi) {
              for (std::size_t el = lo; el < hi; ++el) invoke_all(el);
            });
        break;
      case Exec::Sycl:
        ctx_->queue.parallel_for(chain_name, ::sycl::range<1>(n),
                                 [&](::sycl::item<1> it) {
                                   invoke_all(it.get_linear_id());
                                 });
        break;
    }
    for (const auto& f : inv) f.finish();
  }

  Context* ctx_;
  std::vector<Queued> queued_;
  Telemetry last_;
};

}  // namespace syclport::op2
