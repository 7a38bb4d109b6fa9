#pragma once
/// \file locality.hpp
/// Measured gather locality. The paper explains MG-CFD's strategy
/// ranking through cache-line behaviour: on the MI250X the atomics
/// version reads ~3500 bytes per 64-thread wave (91% L2 hits), global
/// colouring ~39000 bytes/wave (58%), hierarchical ~8600 (83%) - §4.3.
/// This module measures the same quantity on the *actual* mesh and
/// execution order: walk the order in sub_group-wide waves, count the
/// unique cache lines the indirect accesses of each wave touch, and
/// derive the line-traffic inflation factor the device model applies to
/// indirect bytes.

#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/types.hpp"
#include "hwmodel/loop_profile.hpp"
#include "op2/layout.hpp"
#include "op2/set.hpp"

namespace syclport::op2 {

struct GatherStats {
  double avg_bytes_per_wave = 0.0;  ///< unique lines x line size, averaged
  double ideal_bytes_per_wave = 0.0;///< unique targets x payload, averaged
  /// Total line traffic / unique data footprint - the multiplier on
  /// compulsory indirect traffic (>= 1), assuming a cold cache.
  double line_factor = 1.0;
  /// The same multiplier assuming an LRU window of
  /// hw::kGatherCachePoints[i] bytes (reuse-distance profile).
  std::array<double, hw::kGatherCachePoints.size()> factor_at{
      1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
};

/// Measure gather locality of accessing `dat_dim` x `elem_bytes` values
/// through every entry of `map`, executing elements in `order`, in
/// waves of `wave` work-items, with `line_bytes` transactions. `layout`
/// is the physical placement of the gathered dat: the byte addresses a
/// target's components occupy - and hence the lines a wave touches -
/// differ per layout (AoS packs a target in one or two lines; SoA
/// spreads it across dim distant lines but shares each line among
/// neighbouring targets).
[[nodiscard]] GatherStats measure_gather(const Map& map, int dat_dim,
                                         std::size_t elem_bytes,
                                         const std::vector<int>& order,
                                         std::size_t wave = 64,
                                         double line_bytes = 64.0,
                                         Layout layout = Layout::AoS);

/// 64-bit hash of a map's entries (its connectivity, not its address):
/// equal for separately built identical meshes, different after a
/// renumbering or any other edit through Map::at.
[[nodiscard]] std::uint64_t map_content_hash(const Map& map);

/// Everything gather statistics are a function of: the map's content
/// and shape, the plan that orders its elements, and the access shape.
struct GatherKey {
  std::uint64_t map_hash = 0;
  std::size_t from_size = 0;
  std::size_t to_size = 0;
  int arity = 0;
  Strategy strategy = Strategy::Atomics;
  std::size_t block_size = 0;
  int dim = 0;
  std::size_t elem_bytes = 0;
  Layout layout = Layout::AoS;
  std::size_t wave = 0;
  auto operator<=>(const GatherKey&) const = default;
};

/// Process-wide memo of gather statistics: the stats recorded for
/// `key`, calling `measure` only when no thread has recorded them yet.
/// Thread-safe; entries live for the process.
[[nodiscard]] GatherStats memo_gather(
    const GatherKey& key, const std::function<GatherStats()>& measure);

/// Number of entries in the memo_gather table.
[[nodiscard]] std::size_t gather_memo_entries();

/// The execution order a plan induces (identity for atomics, colour-
/// grouped for global colouring, block-colour-grouped for hierarchical).
[[nodiscard]] std::vector<int> execution_order(const struct Plan& plan);

}  // namespace syclport::op2
