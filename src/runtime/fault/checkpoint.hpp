#pragma once
/// \file checkpoint.hpp
/// Type-erased checkpoint/restart core behind ops::checkpoint() and
/// op2::checkpoint(): a Snapshot registers named host-memory regions
/// (dat storage, time-step scalars) and round-trips them through a
/// CRC-tagged binary file written atomically (temp + rename), so a
/// checkpoint interrupted by the very faults it guards against never
/// replaces a good predecessor with a torn file.
///
/// Restore is all-or-nothing: the file is read and *fully* validated -
/// magic, version, per-region CRC, whole-file CRC, and an exact match
/// between the file's regions and the registered ones - before a
/// single registered byte is touched. A corrupt or mismatched
/// checkpoint therefore throws checkpoint_error and leaves the
/// application state exactly as it was (docs/resilience.md specifies
/// the format).

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace syclport::rt::fault {

/// A temp-file name next to `path` that no concurrent writer of the
/// same `path` shares: `path + ".tmp.<pid>.<seq>"`. Checkpoint writes
/// stage through this, so two processes - or two threads - rewriting the
/// same file never interleave bytes in a shared side file; each rename
/// publishes one complete image and the last rename wins.
[[nodiscard]] std::string unique_temp_path(const std::string& path);

/// Write `bytes` to `path` atomically: staged to a unique_temp_path()
/// side file, flushed, then renamed over `path`. Returns false (and
/// removes the side file) on any I/O failure; `path` then still holds
/// its previous content.
bool write_file_atomic(const std::string& path, std::string_view bytes);

/// Raised by Snapshot::save/restore: names the file and why it was
/// rejected (I/O failure, bad magic/version, CRC mismatch, region
/// mismatch). A failed restore guarantees no registered region was
/// modified.
class checkpoint_error : public std::runtime_error {
 public:
  checkpoint_error(std::string path_arg, const std::string& reason)
      : std::runtime_error("checkpoint '" + path_arg + "': " + reason),
        path(std::move(path_arg)) {}
  std::string path;
};

class Snapshot {
 public:
  /// Register a region. `data` must stay valid for the Snapshot's
  /// lifetime; names must be unique (the restore match is by name).
  void add(std::string name, void* data, std::size_t bytes);

  [[nodiscard]] std::size_t regions() const noexcept {
    return regions_.size();
  }
  [[nodiscard]] std::size_t total_bytes() const noexcept;

  /// Write every registered region to `path`: serialized to a side
  /// file, flushed, then renamed over `path`, so concurrent crashes
  /// leave either the old checkpoint or the new one - never a torn
  /// mix. Throws checkpoint_error on I/O failure.
  void save(const std::string& path) const;

  /// Validate `path` completely, then copy its payloads into the
  /// registered regions. Throws checkpoint_error (before any region is
  /// written) when the file is missing, truncated, corrupt, of a
  /// foreign version, or its regions do not exactly match the
  /// registered names and sizes.
  void restore(const std::string& path);

 private:
  struct Region {
    std::string name;
    void* data = nullptr;
    std::size_t bytes = 0;
  };
  std::vector<Region> regions_;
};

}  // namespace syclport::rt::fault
