#pragma once
/// \file arg.hpp
/// par_loop arguments and the kernel-side views:
///  - DatArg / arg(): a dat with its stencil and access mode;
///  - RedArg / reduce(): a global reduction target;
///  - ACC<T>: the positioned accessor kernels index with relative
///    offsets, fastest dimension first: acc(dx[,dy[,dz]]) and the
///    multi-component form acc(c, dx[,dy[,dz]]);
///  - Reducer<T>: the kernel-side combiner, a plain handle onto one
///    reduction block's private accumulator (core/reducer.hpp).

#include <cstddef>

#include "core/reducer.hpp"
#include "ops/dat.hpp"
#include "ops/stencil.hpp"

namespace syclport::ops {

/// Access modes, as in OPS (INC only used for global reductions here;
/// structured kernels write only their own point).
enum class Acc : std::uint8_t { R, W, RW };

using syclport::Reducer;
using syclport::RedOp;

template <typename T>
struct DatArg {
  Dat<T>* dat;
  Stencil st;
  Acc acc;
};

template <typename T>
[[nodiscard]] DatArg<T> arg(Dat<T>& d, Stencil st, Acc a) {
  return {&d, st, a};
}

template <typename T>
struct RedArg {
  T* target;
  RedOp op;
};

template <typename T>
[[nodiscard]] RedArg<T> reduce(T& target, RedOp op) {
  return {&target, op};
}

/// Kernel-side accessor positioned at the current iteration point.
template <typename T>
class ACC {
 public:
  ACC(T* p, std::ptrdiff_t sx, std::ptrdiff_t sy, std::ptrdiff_t sz)
      : p_(p), sx_(sx), sy_(sy), sz_(sz) {}

  // Single-component relative access (fastest offset first).
  [[nodiscard]] T& operator()(int dx) const { return p_[dx * sx_]; }
  [[nodiscard]] T& operator()(int dx, int dy) const {
    return p_[dx * sx_ + dy * sy_];
  }
  [[nodiscard]] T& operator()(int dx, int dy, int dz) const {
    return p_[dx * sx_ + dy * sy_ + dz * sz_];
  }

  // Multi-component access: component index first.
  [[nodiscard]] T& comp(int c, int dx) const { return p_[c + dx * sx_]; }
  [[nodiscard]] T& comp(int c, int dx, int dy) const {
    return p_[c + dx * sx_ + dy * sy_];
  }
  [[nodiscard]] T& comp(int c, int dx, int dy, int dz) const {
    return p_[c + dx * sx_ + dy * sy_ + dz * sz_];
  }

 private:
  T* p_;
  std::ptrdiff_t sx_, sy_, sz_;
};

}  // namespace syclport::ops
