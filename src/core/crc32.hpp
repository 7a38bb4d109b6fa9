#pragma once
/// \file crc32.hpp
/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320): the integrity
/// tag used by every resilience path that persists or transports bytes
/// - checkpoint files and mini-MPI payloads under
/// fault injection. Header-only, table-driven, no dependencies; speed
/// is irrelevant at the sizes involved (metadata and halo strips), the
/// shared implementation is what matters: every layer tags and checks
/// bytes the same way.

#include <array>
#include <cstddef>
#include <cstdint>

namespace syclport {

namespace detail {
[[nodiscard]] constexpr std::array<std::uint32_t, 256> crc32_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    t[i] = c;
  }
  return t;
}
inline constexpr std::array<std::uint32_t, 256> kCrc32Table = crc32_table();
}  // namespace detail

/// Incrementally extend a CRC-32 (`crc` starts at 0 for a fresh
/// stream; feed successive chunks through the returned value).
[[nodiscard]] inline std::uint32_t crc32_update(std::uint32_t crc,
                                                const void* data,
                                                std::size_t bytes) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < bytes; ++i)
    c = detail::kCrc32Table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

/// One-shot CRC-32 of a byte range.
[[nodiscard]] inline std::uint32_t crc32(const void* data,
                                         std::size_t bytes) noexcept {
  return crc32_update(0, data, bytes);
}

}  // namespace syclport
