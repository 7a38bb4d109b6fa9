#pragma once
/// \file row_walk.hpp
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
/// whatever the span boundaries.

#include <algorithm>
#include <cstddef>

namespace syclport::rt {

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

}  // namespace syclport::rt
