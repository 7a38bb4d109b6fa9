#pragma once
/// \file layout.hpp
/// Physical data layouts for OP2 dats. A dat is logically (element x
/// component); the layout axis picks where each (e, c) value lives:
///   - AoS:   e*dim + c          - contiguous per element, the gather-
///            friendly layout GPU indirect reads want (one line per
///            element payload);
///   - SoA:   c*n + e            - contiguous per component, the layout
///            vectorizing CPU sweeps want (unit-stride lanes);
///   - AoSoA: block-of-W elements per component - SoA lanes inside an
///            AoS super-element, padded to a multiple of W (the
///            compromise layout of Lawson-style parametrized kernels).
/// SYCLPORT_LAYOUT sets the process default; op2::Options::layout
/// overrides it for the dats an app creates.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace syclport::op2 {

enum class Layout : std::uint8_t { AoS, SoA, AoSoA };

/// AoSoA inner block width (elements per sub-block). Eight doubles is
/// one cache line: a full line per component sub-block keeps the padded
/// layout line-aligned for the gather model.
inline constexpr std::size_t kAoSoAWidth = 8;

[[nodiscard]] constexpr std::string_view to_string(Layout l) noexcept {
  switch (l) {
    case Layout::AoS: return "aos";
    case Layout::SoA: return "soa";
    case Layout::AoSoA: return "aosoa";
  }
  return "?";
}

[[nodiscard]] constexpr std::optional<Layout> parse_layout(
    std::string_view s) noexcept {
  if (s == "aos") return Layout::AoS;
  if (s == "soa") return Layout::SoA;
  if (s == "aosoa") return Layout::AoSoA;
  return std::nullopt;
}

/// Physical storage slots for n elements of `dim` components (AoSoA
/// pads the element count to a multiple of kAoSoAWidth).
[[nodiscard]] constexpr std::size_t layout_slots(Layout l, std::size_t n,
                                                 std::size_t dim) noexcept {
  if (l == Layout::AoSoA)
    return ((n + kAoSoAWidth - 1) / kAoSoAWidth) * kAoSoAWidth * dim;
  return n * dim;
}

/// Physical slot of logical value (e, c) under layout `l` with `n`
/// logical elements.
[[nodiscard]] constexpr std::size_t layout_index(Layout l, std::size_t e,
                                                 std::size_t c, std::size_t n,
                                                 std::size_t dim) noexcept {
  switch (l) {
    case Layout::AoS: return e * dim + c;
    case Layout::SoA: return c * n + e;
    case Layout::AoSoA:
      return (e / kAoSoAWidth) * (kAoSoAWidth * dim) + c * kAoSoAWidth +
             e % kAoSoAWidth;
  }
  return e * dim + c;
}

/// Process-default layout for newly created dats: SYCLPORT_LAYOUT when
/// set and valid, AoS otherwise (the seed behaviour).
[[nodiscard]] Layout default_layout();

}  // namespace syclport::op2
