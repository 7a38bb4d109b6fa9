#pragma once
/// \file autotune/row_walk.hpp
/// The row walker every multi-dimensional flat lowering (OPS par_loop,
/// the miniSYCL flat lowerings) calls its kernel through: a linear span
/// of a row-major iteration space is split at fast-dimension row ends,
/// each piece is handed to a row-segment callback seg(row, jb, je), and
/// the caller runs one plain ascending loop over [jb, je). The kernel's
/// view is positioned once per row and each step is one fast-index
/// increment.
///
/// for_each_row_segment keeps the span's indices in ascending order, so
/// a reduction block (core/reducer.hpp) accumulates in the same order
/// whatever the span boundaries. blocked_parallel_for (the kCacheBlock
/// axis) reorders traversal across rows, so only independent-point
/// (non-reduction) sites declare that axis.

#include <algorithm>
#include <cstddef>

#include "runtime/thread_pool.hpp"

namespace syclport::rt::autotune {

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
/// drives. Visits every (row, j) exactly once but *reorders* the fast
/// dimension across rows - callers only take this path for
/// independent-point (non-reduction) kernels.
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
