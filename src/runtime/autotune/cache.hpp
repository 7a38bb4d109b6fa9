#pragma once
/// \file autotune/cache.hpp
/// Persistent tuning cache: winning configurations keyed by kernel
/// identity, guarded by a device fingerprint. The file is flat,
/// line-oriented JSON (one kernel entry per line) so it is both
/// readable as JSON and parseable with nothing but line scans - no
/// JSON library in the runtime. docs/tuning.md specifies the format.

#include <optional>
#include <string>
#include <vector>

#include "runtime/autotune/config.hpp"

namespace syclport::rt::autotune {

struct CacheData {
  std::string fingerprint;  ///< machine that wrote the file
  /// One tuned kernel. `fp` is the fingerprint the winner was measured
  /// on - normally the file's own, but v3 files keep entries from other
  /// machines too (a shared cache on a heterogeneous cluster), and the
  /// transfer-learning seeder uses `fp` to rank donors by platform
  /// distance. Empty fp means "same as the file fingerprint".
  struct Entry {
    std::string key;
    Config config;
    std::string fp;
  };
  std::vector<Entry> entries;
};

/// Write `data` to `path` (atomically: a *uniquely named* temp file +
/// rename, the same publication path the checkpoint layer uses). Two
/// concurrent writers of the same path therefore never interleave
/// bytes in a shared side file - every published image is complete and
/// internally consistent; the last rename wins. Returns false on I/O
/// failure.
bool write_cache(const std::string& path, const CacheData& data);

/// Fold into `data` every entry of `other` whose (key, fp) identity
/// `data` does not already carry - the merge-on-load half of the
/// concurrent-rewrite story: a writer re-reads the file just before
/// rewriting it so winners persisted by another process (or another
/// thread) since its own load survive the rewrite. `data`'s
/// own entries always win a (key, fp) collision - they are this
/// writer's freshest measurements. Entries of `other` with an empty fp
/// inherit `other.fingerprint` first.
void merge_entries(CacheData& data, const CacheData& other);

/// write_cache with merge-on-load: reads `path` (ignoring unreadable /
/// invalid files), merges surviving foreign entries into a copy of
/// `data`, and publishes the union atomically.
bool write_cache_merged(const std::string& path, const CacheData& data);

/// Read `path`. nullopt when the file is missing, not the current
/// format version, or fails its content checksum (truncated, bit-
/// flipped, or tampered files are rejected wholesale - the caller
/// retunes rather than trust a damaged winner). Entries with
/// unparseable configs are dropped individually without perturbing the
/// checksum. Fingerprint checking is the caller's job (a mismatch is a
/// valid file for some other machine).
[[nodiscard]] std::optional<CacheData> read_cache(const std::string& path);

}  // namespace syclport::rt::autotune
