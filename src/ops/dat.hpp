#pragma once
/// \file dat.hpp
/// OPS dat: a (possibly multi-component) field over a block, stored
/// with halo/ghost layers on every side. Layout is row-major over
/// (slow, mid, fast) with components innermost (AoS). In ModelOnly
/// contexts no storage is allocated - the dat only contributes its
/// footprint metadata to the schedule.
///
/// Storage is an rt::mem::Array: pooled allocation, parallel
/// streaming-zero initialization (first-touched by the workers that
/// will stream the field), huge pages above the threshold.

#include <array>
#include <cassert>
#include <cstddef>
#include <string>

#include "ops/block.hpp"
#include "runtime/mem/array.hpp"

namespace syclport::ops {

template <typename T>
class Dat {
 public:
  Dat(Block& block, std::string name, int ncomp = 1, int halo = 2)
      : block_(&block),
        name_(std::move(name)),
        ncomp_(ncomp),
        halo_(halo) {
    const int dims = block.dims();
    const auto h = static_cast<std::size_t>(halo_);
    std::array<std::size_t, 3> padded{1, 1, 1};
    for (int d = 0; d < dims; ++d)
      padded[static_cast<std::size_t>(d)] = block.size(d) + 2 * h;
    // The mid stride spans one row of the fastest dimension; the slow
    // stride a (mid x fast) plane in 3D, and equals the mid stride for
    // lower dims, where it already is the slowest spatial stride.
    const std::size_t fast_extent = dims == 1   ? padded[0]
                                    : dims == 2 ? padded[1]
                                                : padded[2];
    s_mid_ = static_cast<std::ptrdiff_t>(fast_extent) * ncomp_;
    s_slow_ = dims < 3 ? s_mid_
                       : s_mid_ * static_cast<std::ptrdiff_t>(padded[1]);
    origin_off_ = halo_ * (dims == 1   ? stride_fast()
                           : dims == 2 ? s_mid_ + stride_fast()
                                       : s_slow_ + s_mid_ + stride_fast());
    if (block.ctx().executing())
      data_ = rt::mem::Array<T>(padded[0] * padded[1] * padded[2] *
                                static_cast<std::size_t>(ncomp_));
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Block& block() const { return *block_; }
  [[nodiscard]] int ncomp() const { return ncomp_; }
  [[nodiscard]] int halo() const { return halo_; }
  [[nodiscard]] bool allocated() const { return !data_.empty(); }

  /// Element strides (in T units): fastest spatial step, mid, slow.
  [[nodiscard]] std::ptrdiff_t stride_fast() const { return ncomp_; }
  [[nodiscard]] std::ptrdiff_t stride_mid() const { return s_mid_; }
  [[nodiscard]] std::ptrdiff_t stride_slow() const { return s_slow_; }

  /// Pointer to the interior origin (all halo offsets applied).
  [[nodiscard]] T* origin() {
    assert(allocated());
    return data_.data() + origin_off_;
  }

  /// Interior-relative element access (slow, mid, fast ordering per the
  /// block; pass only as many indices as the block has dims). Host-side
  /// convenience for initialization and checks.
  [[nodiscard]] T& at(std::ptrdiff_t a, std::ptrdiff_t b = 0,
                      std::ptrdiff_t c = 0, int comp = 0) {
    const int dims = block_->dims();
    T* o = origin();
    if (dims == 1) return o[a * stride_fast() + comp];
    if (dims == 2) return o[a * stride_mid() + b * stride_fast() + comp];
    return o[a * stride_slow() + b * stride_mid() + c * stride_fast() + comp];
  }

  /// Bytes of one interior footprint sweep (no halo): the OPS transfer
  /// unit for this dat.
  [[nodiscard]] double interior_bytes() const {
    return static_cast<double>(block_->points()) * ncomp_ * sizeof(T);
  }

  /// Total allocated bytes including halos (0 when not allocated).
  [[nodiscard]] std::size_t alloc_bytes() const {
    return data_.size() * sizeof(T);
  }

  /// Raw storage base (halos included) - the region ops::checkpoint()
  /// snapshots and restore() rewrites. Null when not allocated.
  [[nodiscard]] T* storage() noexcept { return data_.data(); }
  [[nodiscard]] const T* storage() const noexcept { return data_.data(); }

  /// Fill the entire allocation (halos included) via the parallel
  /// streaming-store path.
  void fill(T v) { data_.fill(v); }

  /// Sum over the interior (validation checksums), in storage order:
  /// each interior row is one contiguous run of fast x ncomp values.
  [[nodiscard]] double interior_sum() {
    const int dims = block_->dims();
    const auto n0 = dims >= 2 ? static_cast<std::ptrdiff_t>(block_->size(0)) : 1;
    const auto n1 = dims >= 3 ? static_cast<std::ptrdiff_t>(block_->size(1)) : 1;
    const std::size_t fast = dims == 1   ? block_->size(0)
                             : dims == 2 ? block_->size(1)
                                         : block_->size(2);
    const std::size_t run = fast * static_cast<std::size_t>(ncomp_);
    const std::ptrdiff_t s0 = dims == 3 ? s_slow_ : s_mid_;
    const T* o = origin();
    double s = 0.0;
    for (std::ptrdiff_t a = 0; a < n0; ++a)
      for (std::ptrdiff_t b = 0; b < n1; ++b) {
        const T* row = o + a * s0 + b * s_mid_;
        for (std::size_t i = 0; i < run; ++i) s += static_cast<double>(row[i]);
      }
    return s;
  }

 private:
  Block* block_;
  std::string name_;
  int ncomp_;
  int halo_;
  std::ptrdiff_t s_mid_ = 0, s_slow_ = 0;  ///< see stride_mid/stride_slow
  std::ptrdiff_t origin_off_ = 0;         ///< interior origin in data_
  rt::mem::Array<T> data_;
};

}  // namespace syclport::ops
