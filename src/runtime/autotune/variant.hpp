#pragma once
/// \file autotune/variant.hpp
/// Parametrized kernel variants: the register-tile / vector-width /
/// unroll menu the kRegTile/kVecWidth/kUnroll axes race, and the
/// template runner that executes one of them.
///
/// The paper's BabelStream/CloverLeaf gaps vs native show that
/// launch-level knobs (schedule, grain, work-group shape) leave 10-30%
/// on the table: CPUs want vectorized, register-blocked inner loops,
/// GPUs want ILP from unrolling. Lawson et al. recover this portably
/// with highly parametrized SYCL kernels - template-instantiated
/// variants selected per platform. This header is that layer for the
/// miniSYCL/OPS/OP2 hot paths:
///
///   - VariantParams names one point of the (reg_tile, vec_width,
///     unroll) space; the canonical executable menu (kVariantMenu) is
///     the closed set of template instantiations every dispatch site
///     compiles, so the search can only hand out variants that exist.
///   - run_span<RT, VW, U> executes an index span with a constant-trip
///     nest: RT register-tile rows x U unrolled steps x a VW-wide
///     innermost loop (the code shape sycl::vec<double, VW> lowers to
///     on CPUs), with the *program order per element kept ascending*.
///     The nest only shapes the loop the optimizer sees; nothing here
///     makes the compiler vectorize the VW loop - that is up to the
///     kernel body it inlines.
///   - Multi-dimensional callers (OPS par_loop, the miniSYCL flat
///     lowerings) run it over the fast index of one row segment
///     (for_each_row_segment / blocked_parallel_for), never across a
///     row end, so the kernel's view is positioned once per row and
///     each step is one fast-index increment. OP2 runs it over element
///     spans.
///   - run_span_variant dispatches a runtime VariantParams onto the
///     menu instantiation.
///
/// Bit-exactness contract: every variant visits the span's indices in
/// strictly ascending order, so a reduction block (core/reducer.hpp)
/// accumulates in the same order as the unparametrized reference loop,
/// and every variant yields the same bits. Variants only change how the
/// iterations are *structured* (tile/unroll/vector shape visible to the
/// optimizer), never the order they are observed in. The kCacheBlock axis, which does
/// reorder traversal, is therefore a separate axis that only
/// independent-point (non-reduction) sites declare.

#include <algorithm>
#include <array>
#include <cstddef>
#include <string>

#include "runtime/thread_pool.hpp"

namespace syclport::rt::autotune {

/// One kernel-variant shape: how many consecutive linear indices one
/// "macro iteration" covers and how they are structured. {1,1,1} is the
/// unparametrized reference.
struct VariantParams {
  int reg_tile = 1;   ///< register-tile rows per macro iteration
  int vec_width = 1;  ///< innermost constant-trip width (sycl::vec hint)
  int unroll = 1;     ///< unrolled steps between the two

  [[nodiscard]] constexpr int span() const noexcept {
    return reg_tile * vec_width * unroll;
  }
  [[nodiscard]] constexpr bool operator==(const VariantParams&) const =
      default;
};

/// The closed set of compiled instantiations. Dispatch sites
/// instantiate exactly these; candidate generation intersects the
/// priors cross-product with this menu, so an illegal or unknown combo
/// can never be handed out. Ordered reference-first, then single-axis
/// escalations, then mixed shapes.
inline constexpr std::array<VariantParams, 15> kVariantMenu{{
    {1, 1, 1},
    {2, 1, 1},
    {4, 1, 1},
    {1, 2, 1},
    {1, 4, 1},
    {1, 8, 1},
    {2, 2, 1},
    {2, 4, 1},
    {4, 2, 1},
    {4, 4, 1},
    {1, 1, 2},
    {1, 1, 4},
    {2, 1, 2},
    {1, 2, 2},
    {1, 4, 2},
}};

/// Menu index of `vp`, or -1 when it is not an executable variant.
[[nodiscard]] constexpr int variant_menu_index(
    const VariantParams& vp) noexcept {
  for (std::size_t i = 0; i < kVariantMenu.size(); ++i)
    if (kVariantMenu[i] == vp) return static_cast<int>(i);
  return -1;
}

/// Compact id recorded per launch (launch_log) and in the bench CSVs:
/// "rt2v4u1", plus "cb<n>" when a cache block is active. The reference
/// {1,1,1} with no blocking renders as "ref".
[[nodiscard]] inline std::string variant_id(const VariantParams& vp,
                                            std::size_t cache_block = 0) {
  if (vp == VariantParams{} && cache_block == 0) return "ref";
  std::string s = "rt" + std::to_string(vp.reg_tile) + "v" +
                  std::to_string(vp.vec_width) + "u" +
                  std::to_string(vp.unroll);
  if (cache_block > 0) s += "cb" + std::to_string(cache_block);
  return s;
}

namespace detail {

#if defined(__clang__)
#define SYCLPORT_VARIANT_UNROLL _Pragma("unroll")
#elif defined(__GNUC__)
#define SYCLPORT_VARIANT_UNROLL _Pragma("GCC unroll 8")
#else
#define SYCLPORT_VARIANT_UNROLL
#endif

/// Execute f(lin) for lin in [b, e) as RT x U macro steps over a
/// VW-wide constant-trip innermost loop, plus a scalar tail. Indices
/// are visited in strictly ascending order (see the header contract).
template <int RT, int VW, int U, typename F>
inline void run_span(std::size_t b, std::size_t e, F&& f) {
  constexpr std::size_t kStep = static_cast<std::size_t>(RT * VW * U);
  std::size_t lin = b;
  if constexpr (kStep > 1) {
    for (; lin + kStep <= e; lin += kStep) {
      SYCLPORT_VARIANT_UNROLL
      for (int r = 0; r < RT; ++r) {
        SYCLPORT_VARIANT_UNROLL
        for (int u = 0; u < U; ++u) {
          const std::size_t base =
              lin + static_cast<std::size_t>((r * U + u) * VW);
          SYCLPORT_VARIANT_UNROLL
          for (int v = 0; v < VW; ++v)
            f(base + static_cast<std::size_t>(v));
        }
      }
    }
  }
  for (; lin < e; ++lin) f(lin);
}

}  // namespace detail

/// Dispatch a runtime variant onto its menu instantiation. Unknown
/// shapes (a tampered cache entry that survived parsing, a foreign
/// donor) fall back to the reference loop - never UB, never a skipped
/// index.
template <typename F>
inline void run_span_variant(const VariantParams& vp, std::size_t b,
                             std::size_t e, F&& f) {
  switch (variant_menu_index(vp)) {
    case 1: detail::run_span<2, 1, 1>(b, e, f); return;
    case 2: detail::run_span<4, 1, 1>(b, e, f); return;
    case 3: detail::run_span<1, 2, 1>(b, e, f); return;
    case 4: detail::run_span<1, 4, 1>(b, e, f); return;
    case 5: detail::run_span<1, 8, 1>(b, e, f); return;
    case 6: detail::run_span<2, 2, 1>(b, e, f); return;
    case 7: detail::run_span<2, 4, 1>(b, e, f); return;
    case 8: detail::run_span<4, 2, 1>(b, e, f); return;
    case 9: detail::run_span<4, 4, 1>(b, e, f); return;
    case 10: detail::run_span<1, 1, 2>(b, e, f); return;
    case 11: detail::run_span<1, 1, 4>(b, e, f); return;
    case 12: detail::run_span<2, 1, 2>(b, e, f); return;
    case 13: detail::run_span<1, 2, 2>(b, e, f); return;
    case 14: detail::run_span<1, 4, 2>(b, e, f); return;
    default: detail::run_span<1, 1, 1>(b, e, f); return;
  }
}

/// Split the linear span [b, e) of a row-major space with `fast`
/// points per row at row ends, and call seg(row, jb, je) for each
/// piece - row `row`, fast indices [jb, je) - in ascending order. The
/// span is delinearized once; later pieces start at the next row's
/// j = 0, so the pieces cover exactly the indices of [b, e).
template <typename F>
inline void for_each_row_segment(std::size_t b, std::size_t e,
                                 std::size_t fast, F&& seg) {
  if (b >= e) return;
  std::size_t row = b / fast;
  std::size_t j = b - row * fast;
  while (b < e) {
    const std::size_t je = std::min(fast, j + (e - b));
    seg(row, j, je);
    b += je - j;
    ++row;
    j = 0;
  }
}

/// Cache-blocked traversal of a rows x fast iteration space through the
/// thread pool (the kCacheBlock axis): parallelize over rows, and
/// inside each row chunk walk the fast dimension in blocks of `cb`
/// items so each block of every streamed array is still cache-resident
/// when the next row revisits it. Each block of a row is handed to
/// seg(row, jb, je) - the same row-segment callback for_each_row_segment
/// drives, so a caller runs its variant over [jb, je) either way.
/// Visits every (row, j) exactly once but *reorders* the fast dimension
/// across rows - callers only take this path for independent-point
/// (non-reduction) kernels.
///
/// The active grain was tuned in items of the flat space; the row loop
/// rescales it so a chunk still covers about the same work.
template <typename F>
inline void blocked_parallel_for(std::size_t rows, std::size_t fast,
                                 std::size_t cb, F&& seg) {
  ScopedGrainScale scope(fast);
  ThreadPool::global().parallel_for(
      rows, [&](std::size_t rb, std::size_t re) {
        for (std::size_t jb = 0; jb < fast; jb += cb) {
          const std::size_t je = std::min(fast, jb + cb);
          for (std::size_t i = rb; i < re; ++i) seg(i, jb, je);
        }
      });
}

}  // namespace syclport::rt::autotune
