#pragma once
/// \file reducer.hpp
/// Deterministic blocked reductions, shared by every executed
/// reduction: OPS and OP2 par_loops on every backend and the miniSYCL
/// reduction launches.
///
/// A reduction is split into *index blocks* that depend only on the
/// iteration space, never on the thread count, schedule, grain, steals
/// or backend:
///  - a block never crosses a slowest-dimension index (LoopChain tiles
///    split only that dimension), and the inner points of one slow
///    index are cut into runs of kReduceBlock;
///  - a 1D space is cut into runs of kReduceBlock.
/// Each block accumulates, in ascending index order, into a private
/// slot through a plain (non-atomic) Reducer. The block partials are
/// then folded into the target in block-index order as a left fold, so
/// a loop split along its slowest dimension into consecutive pieces
/// (a tiled chain segment) folds the same sequence of partials as the
/// whole loop, and yields the same bits.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

namespace syclport {

enum class RedOp : std::uint8_t { Sum, Min, Max };

/// Neutral element of `op`.
template <typename T>
[[nodiscard]] constexpr T red_identity(RedOp op) {
  switch (op) {
    case RedOp::Min: return std::numeric_limits<T>::max();
    case RedOp::Max: return std::numeric_limits<T>::lowest();
    default: return T{};
  }
}

/// a (op) b.
template <typename T>
[[nodiscard]] constexpr T red_apply(RedOp op, T a, T b) {
  switch (op) {
    case RedOp::Min: return b < a ? b : a;
    case RedOp::Max: return a < b ? b : a;
    default: return a + b;
  }
}

/// Kernel-side handle onto one private accumulator. Plain loads and
/// stores: only the thread running the block (or element) that owns
/// the slot ever touches it.
template <typename T>
class Reducer {
 public:
  Reducer(T* slot, RedOp op) : t_(slot), op_(op) {}

  void combine(T v) const { *t_ = red_apply(op_, *t_, v); }
  void operator+=(T v) const { combine(v); }

 private:
  T* t_;
  RedOp op_;
};

/// Points per reduction block along the inner (non-slowest) dimensions.
inline constexpr std::size_t kReduceBlock = 1024;

/// Block geometry of a row-major iteration space of `rows` slow
/// indices x `inner` points each (rows = 1 for a 1D space). Block k
/// covers the linear indices [begin(k), end(k)).
class ReduceBlocks {
 public:
  ReduceBlocks(std::size_t rows, std::size_t inner)
      : inner_(inner),
        per_row_((inner + kReduceBlock - 1) / kReduceBlock),
        count_(rows * per_row_) {}

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] std::size_t begin(std::size_t k) const {
    return k / per_row_ * inner_ + k % per_row_ * kReduceBlock;
  }
  [[nodiscard]] std::size_t end(std::size_t k) const {
    return k / per_row_ * inner_ +
           std::min(inner_, (k % per_row_ + 1) * kReduceBlock);
  }

 private:
  std::size_t inner_, per_row_, count_;
};

/// Left-fold `parts` into `target` in index order.
template <typename T, typename Combine>
void fold_partials(T& target, const std::vector<T>& parts, Combine op) {
  for (const T& p : parts) target = op(target, p);
}

/// Per-block view of a reduction target: the block's private
/// accumulator, stored to the block's partial slot on close.
template <typename T>
struct RedBlock {
  T* slot;
  RedOp op;
  T acc;

  template <typename... I>
  [[nodiscard]] Reducer<T> make(I...) {
    return Reducer<T>(&acc, op);
  }
};

/// One reduction target of a par_loop: owns the partial slots, indexed
/// by block (run_blocked) or, for lowerings that visit elements in a
/// non-ascending order, by element (start_slots/fold_elements).
template <typename T>
class BlockedTarget {
 public:
  BlockedTarget(T* target, RedOp op) : target_(target), op_(op) {}

  void start(std::size_t slots) {
    parts_.assign(slots, red_identity<T>(op_));
  }
  [[nodiscard]] RedBlock<T> block(std::size_t k) {
    return {&parts_[k], op_, red_identity<T>(op_)};
  }
  /// Fold per-block partials into the target, in block order.
  void fold() const {
    fold_partials(*target_, parts_,
                  [o = op_](T a, T b) { return red_apply(o, a, b); });
  }

  /// Element-slot mode: element e accumulates into slot e.
  template <typename... I>
  [[nodiscard]] Reducer<T> make(std::size_t e, I...) {
    return Reducer<T>(&parts_[e], op_);
  }
  /// Fold element slots in ascending runs of kReduceBlock - the bits of
  /// a blocked ascending sweep that combines once per element.
  void fold_elements() const {
    const ReduceBlocks blocks(1, parts_.size());
    for (std::size_t k = 0; k < blocks.count(); ++k) {
      T acc = red_identity<T>(op_);
      for (std::size_t e = blocks.begin(k); e < blocks.end(k); ++e)
        acc = red_apply(op_, acc, parts_[e]);
      *target_ = red_apply(op_, *target_, acc);
    }
  }

 private:
  T* target_;
  RedOp op_;
  std::vector<T> parts_;
};

// Per-binder hooks of run_blocked: binders that carry no reduction
// pass through unchanged (by reference).
template <typename B>
void start_slots(B&, std::size_t) {}
template <typename T>
void start_slots(BlockedTarget<T>& b, std::size_t slots) {
  b.start(slots);
}
template <typename B>
[[nodiscard]] B& block_view(B& b, std::size_t) {
  return b;
}
template <typename T>
[[nodiscard]] RedBlock<T> block_view(BlockedTarget<T>& b, std::size_t k) {
  return b.block(k);
}
template <typename B>
void close_block(B&) {}
template <typename T>
void close_block(RedBlock<T>& v) {
  *v.slot = v.acc;
}
template <typename B>
void fold_blocks(const B&) {}
template <typename T>
void fold_blocks(const BlockedTarget<T>& b) {
  b.fold();
}

// Element-slot mode for lowerings whose sweep order is not ascending
// (OP2 colourings, staged tiles): start_slots(b, n) gives every element
// a slot, so any order and any thread mapping is race-free and yields
// the same bits.
template <typename B>
void fold_elements(const B&) {}
template <typename T>
void fold_elements(const BlockedTarget<T>& b) {
  b.fold_elements();
}

/// Run one blocked reduction. `launch(nblocks, run)` must call
/// run(k) exactly once for every block k in [0, nblocks), on any
/// thread, in any order. run(k) hands `body(views, k)` the per-block
/// views of `binders` - every BlockedTarget becomes a fresh RedBlock,
/// other binders are passed by reference - and stores each block's
/// partial. Once launch returns, every target folds its partials in
/// block order.
template <typename... B, typename Launch, typename Body>
void run_blocked(std::tuple<B...>& binders, std::size_t nblocks,
                 Launch&& launch, Body&& body) {
  std::apply([&](auto&... b) { (start_slots(b, nblocks), ...); }, binders);
  launch(nblocks, [&](std::size_t k) {
    auto views = std::apply(
        [k](auto&... b) {
          return std::tuple<decltype(block_view(b, k))...>(block_view(b, k)...);
        },
        binders);
    body(views, k);
    std::apply([](auto&... v) { (close_block(v), ...); }, views);
  });
  std::apply([](const auto&... b) { (fold_blocks(b), ...); }, binders);
}

}  // namespace syclport
