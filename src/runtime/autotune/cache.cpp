#include "runtime/autotune/cache.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/crc32.hpp"
#include "runtime/fault/checkpoint.hpp"
#include "runtime/fault/fault.hpp"

namespace syclport::rt::autotune {

namespace {

/// Current on-disk format version. v2 added the content checksum; v3
/// added the per-entry `fp` field (transfer-learning donor provenance)
/// and new Config axes; v4 added the layout/indirect axes (op2
/// unstructured tuning); v5 dropped the kernel-variant tokens, so
/// older files - and anything newer/foreign - are rejected wholesale,
/// which the caller treats as a cold cache: retuning is always safe,
/// trusting a stale or damaged winner is not.
constexpr int kCacheVersion = 5;

/// Extract the value of `"field": "..."` from one line; nullopt when
/// the field is absent. Values never contain quotes (keys and configs
/// are built from identifier-ish characters only).
[[nodiscard]] std::optional<std::string> quoted_field(const std::string& line,
                                                      std::string_view field) {
  std::string probe = "\"";
  probe += field;
  probe += "\": \"";
  const auto at = line.find(probe);
  if (at == std::string::npos) return std::nullopt;
  const auto begin = at + probe.size();
  const auto end = line.find('"', begin);
  if (end == std::string::npos) return std::nullopt;
  return line.substr(begin, end - begin);
}

/// CRC-32 over the *semantic* content - fingerprint plus every
/// (key, config, fp) triple in order - rather than the raw bytes.
/// Formatting and individually-dropped unparseable lines do not perturb
/// it, but truncation, a damaged winner, or a tampered entry all do.
[[nodiscard]] std::uint32_t content_crc(const CacheData& data) {
  std::uint32_t c =
      crc32_update(0, data.fingerprint.data(), data.fingerprint.size());
  for (const auto& e : data.entries) {
    c = crc32_update(c, e.key.data(), e.key.size());
    c = crc32_update(c, "=", 1);
    const std::string text = e.config.to_string();
    c = crc32_update(c, text.data(), text.size());
    c = crc32_update(c, "=", 1);
    c = crc32_update(c, e.fp.data(), e.fp.size());
    c = crc32_update(c, "\n", 1);
  }
  return c;
}

[[nodiscard]] std::string crc_hex(std::uint32_t crc) {
  char buf[9];
  std::snprintf(buf, sizeof buf, "%08x", crc);
  return buf;
}

}  // namespace

bool write_cache(const std::string& path, const CacheData& data) {
  std::ostringstream out;
  out << "{ \"syclport_tune_cache\": " << kCacheVersion << ",\n";
  out << "  \"fingerprint\": \"" << data.fingerprint << "\",\n";
  out << "  \"crc\": \"" << crc_hex(content_crc(data)) << "\",\n";
  out << "  \"kernels\": [\n";
  for (std::size_t i = 0; i < data.entries.size(); ++i) {
    const auto& e = data.entries[i];
    out << "    { \"key\": \"" << e.key << "\", \"config\": \""
        << e.config.to_string() << "\", \"fp\": \"" << e.fp << "\" }"
        << (i + 1 < data.entries.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return fault::write_file_atomic(path, out.str());
}

void merge_entries(CacheData& data, const CacheData& other) {
  for (const auto& e : other.entries) {
    const std::string& fp = e.fp.empty() ? other.fingerprint : e.fp;
    const bool have = std::any_of(
        data.entries.begin(), data.entries.end(),
        [&](const CacheData::Entry& mine) {
          return mine.key == e.key &&
                 (mine.fp.empty() ? data.fingerprint : mine.fp) == fp;
        });
    if (!have) data.entries.push_back({e.key, e.config, fp});
  }
}

bool write_cache_merged(const std::string& path, const CacheData& data) {
  CacheData merged = data;
  if (const auto existing = read_cache(path)) merge_entries(merged, *existing);
  return write_cache(path, merged);
}

std::optional<CacheData> read_cache(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string text = std::move(buf).str();

  // cache.corrupt: flip one deterministic bit of the in-memory image
  // before parsing - the validation below must reject the file and the
  // caller must silently fall back to retuning.
  if (fault::armed() && !text.empty())
    if (const auto r = fault::roll(fault::Site::CacheCorrupt); r.fire)
      text[r.value % text.size()] ^=
          static_cast<char>(1u << ((r.value >> 8) % 8));

  CacheData data;
  int version = 0;
  std::optional<std::uint32_t> stored_crc;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    constexpr std::string_view version_probe = "\"syclport_tune_cache\": ";
    if (const auto at = line.find(version_probe); at != std::string::npos) {
      const char* b = line.data() + at + version_probe.size();
      std::from_chars(b, line.data() + line.size(), version);
      continue;
    }
    if (auto crc = quoted_field(line, "crc")) {
      std::uint32_t v = 0;
      const auto [p, ec] =
          std::from_chars(crc->data(), crc->data() + crc->size(), v, 16);
      if (ec == std::errc{} && p == crc->data() + crc->size())
        stored_crc = v;
      continue;
    }
    if (auto fp = quoted_field(line, "fingerprint")) {
      data.fingerprint = std::move(*fp);
      continue;
    }
    const auto key = quoted_field(line, "key");
    if (!key) continue;
    const auto cfg_text = quoted_field(line, "config");
    if (!cfg_text) continue;
    const auto fp = quoted_field(line, "fp");
    if (auto cfg = Config::parse(*cfg_text))
      data.entries.push_back(
          {std::move(*key), std::move(*cfg), fp ? std::move(*fp) : ""});
  }
  // Reject anything that is not a well-formed current-version file with
  // a matching content checksum: v1 leftovers, foreign files, truncated
  // or bit-flipped writes. The caller retunes from scratch - slower,
  // never wrong.
  if (version != kCacheVersion || !stored_crc ||
      *stored_crc != content_crc(data)) {
    if (fault::armed()) fault::note_recovered(fault::Site::CacheCorrupt);
    return std::nullopt;
  }
  return data;
}

}  // namespace syclport::rt::autotune
