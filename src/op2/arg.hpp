#pragma once
/// \file arg.hpp
/// OP2 par_loop arguments and kernel-side views:
///  - arg_direct(dat, acc): the element's own values, as (const) T*;
///  - arg_indirect(dat, map, idx, acc): values of the idx-th mapped
///    element; INC access hands the kernel an Inc<T> proxy whose
///    addition is atomic or plain depending on the active lowering;
///  - arg_gbl(target, op): global reduction, as Reducer<T>.

#include <atomic>

#include "core/reducer.hpp"
#include "op2/dat.hpp"
#include "op2/set.hpp"

namespace syclport::op2 {

enum class Acc : std::uint8_t { R, W, RW, INC };

using syclport::Reducer;
using syclport::RedOp;

template <typename T>
struct DirectArg {
  Dat<T>* dat;
  Acc acc;
};

template <typename T>
[[nodiscard]] DirectArg<T> arg_direct(Dat<T>& d, Acc a) {
  return {&d, a};
}

template <typename T>
struct IndirectArg {
  Dat<T>* dat;
  Map* map;
  int idx;  ///< which map column selects the target element
  Acc acc;
};

template <typename T>
[[nodiscard]] IndirectArg<T> arg_indirect(Dat<T>& d, Map& m, int idx, Acc a) {
  return {&d, &m, idx, a};
}

template <typename T>
struct GblArg {
  T* target;
  RedOp op;
};

template <typename T>
[[nodiscard]] GblArg<T> arg_gbl(T& target, RedOp op) {
  return {&target, op};
}

/// Kernel-side view of an INC argument: accumulates into the mapped
/// element's components, or into a scratch slot the lowering replays
/// later, atomically when the lowering requires it.
///
/// Contract: a kernel call adds to each component at most once, and
/// when two INC arguments of one call reach the same target it adds to
/// them in argument order. Loops that keep to it give the same bits on
/// every executor, schedule and pool size (docs/unstructured.md).
template <typename T>
class Inc {
 public:
  Inc(T* p, bool atomic) : p_(p), atomic_(atomic) {}

  void add(int c, T v) const {
    if (atomic_) {
      std::atomic_ref<T>(p_[c]).fetch_add(v, std::memory_order_relaxed);
    } else {
      p_[c] += v;
    }
  }

 private:
  T* p_;
  bool atomic_;
};

}  // namespace syclport::op2
