#pragma once
/// \file plan.hpp
/// OP2 execution plans: the colouring data structures that resolve
/// indirect-increment races (paper §3, Figure 1).
///  - global colouring: elements coloured so no two elements of one
///    colour share a mapped target; one parallel sweep per colour.
///  - hierarchical colouring: elements grouped into blocks of
///    consecutive ids; blocks coloured against shared targets; within
///    each block elements get intra-block colours. On GPUs a block is a
///    work-group (with barriers between intra-colours).
///  - atomics on the thread pool: an ownership table. Elements are cut
///    into contiguous ranges, one per worker; each target belongs to
///    the lowest range that reaches it, and every other range defers
///    its increments of that target to scratch slots replayed in order
///    after the sweep (docs/unstructured.md).
/// Plans are computed once per (map, strategy, block size, ranges) and
/// cached.

#include <cstddef>
#include <vector>

#include "core/types.hpp"
#include "op2/set.hpp"

namespace syclport::op2 {

struct Plan {
  Strategy strategy = Strategy::Atomics;
  std::size_t nelems = 0;

  // --- global colouring ---------------------------------------------------
  std::vector<int> colour;             ///< colour per element
  int ncolours = 0;
  /// Elements grouped by colour: elements_by_colour[c] lists ids.
  std::vector<std::vector<int>> elements_by_colour;

  // --- hierarchical colouring ----------------------------------------------
  std::size_t block_size = 0;
  std::size_t nblocks = 0;
  std::vector<int> block_colour;       ///< colour per block
  int nblock_colours = 0;
  std::vector<std::vector<int>> blocks_by_colour;
  std::vector<int> intra_colour;       ///< colour of element within its block
  int max_intra_colours = 0;

  // --- atomics: owner-ordered ranges ---------------------------------------
  /// Range r covers elements [range_begin[r], range_begin[r + 1]); every
  /// bound is a multiple of kReduceBlock (or nelems), so a range holds
  /// whole reduction blocks. Empty when built without ranges.
  std::vector<std::size_t> range_begin;
  /// owner[t]: the lowest range reaching target t through any map column.
  std::vector<int> owner;
  /// deferred_slots[r * arity + i]: elements of range r whose column-i
  /// target another range owns, i.e. range r's scratch slots per INC
  /// argument on column i.
  std::vector<std::size_t> deferred_slots;
  /// Elements with at least one deferred column, ascending; range r's
  /// are deferred_elems[deferred_begin[r] .. deferred_begin[r + 1]).
  std::vector<int> deferred_elems;
  std::vector<std::size_t> deferred_begin;

  [[nodiscard]] std::size_t ranges() const {
    return range_begin.empty() ? 0 : range_begin.size() - 1;
  }

  /// Parallel sweeps this plan splits a loop into (kernel launches).
  [[nodiscard]] std::size_t launches() const {
    switch (strategy) {
      case Strategy::GlobalColor: return static_cast<std::size_t>(ncolours);
      case Strategy::Hierarchical:
        return static_cast<std::size_t>(nblock_colours);
      default: return 1;
    }
  }
};

/// Build a plan resolving conflicts through `map` (two elements conflict
/// when they share any mapped target). `block_size` is used by the
/// hierarchical strategy only; `ranges` > 0 gives an Atomics plan the
/// ownership table of that many ranges.
[[nodiscard]] Plan build_plan(const Map& map, Strategy strategy,
                              std::size_t block_size = 256,
                              std::size_t ranges = 0);

/// Verify plan invariants (used by property tests): no two same-colour
/// elements (global) or same-colour blocks (hierarchical) share a
/// target, and within a block no two same-intra-colour elements do.
[[nodiscard]] bool validate_plan(const Plan& plan, const Map& map);

}  // namespace syclport::op2
