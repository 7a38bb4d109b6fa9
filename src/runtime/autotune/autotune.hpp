#pragma once
/// \file autotune/autotune.hpp
/// Online per-kernel autotuner with a persistent, device-fingerprinted
/// tuning cache.
///
/// The paper's conclusion (§4.4) is that no single schedule /
/// work-group shape / overlap strategy is performance portable - the
/// winner differs per kernel and per platform. The runtime has carried
/// all of those knobs since PR 1/PR 2, but as static env vars. This
/// module searches them instead: each launch site is identified by a
/// stable key (Site), its first N launches explore a candidate set
/// seeded from hwmodel priors using successive halving (each surviving
/// candidate gets twice the measurements of the previous round; the
/// slower half is dropped between rounds), and the winner is locked in
/// and persisted keyed by a device fingerprint, so warm runs skip the
/// search entirely.
///
/// Modes (SYCLPORT_TUNE): `off` (default - every path behaves exactly
/// as before), `on` (tune, consult + update the cache file), `force`
/// (re-explore even with a valid cache, then overwrite it). The cache
/// path is SYCLPORT_TUNE_CACHE (default `.syclport_tune.json`).
/// ops/op2 `Options::tune` overrides the env per loop via ScopedTune.
///
/// Thread safety: all tuner state sits behind one mutex; decide() and
/// report() are called from app threads and scheduler workers alike
/// (exploration under the out-of-order queue is exercised by
/// tests/test_autotune.cpp and the TSan preset). The disabled path
/// costs one relaxed atomic load plus a thread-local check.

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/autotune/cache.hpp"
#include "runtime/autotune/config.hpp"
#include "runtime/thread_pool.hpp"

namespace syclport::rt::autotune {

class Autotuner {
 public:
  enum class Mode : std::uint8_t { Off, On, Force };

  /// The process-wide tuner: mode and cache path from the environment,
  /// fingerprint measured lazily on first tuned launch.
  static Autotuner& instance();

  /// Standalone instance for tests/benches (explicit fingerprint, no
  /// env coupling). An empty cache_path disables persistence.
  Autotuner(Mode mode, std::string fingerprint, std::string cache_path);

  /// True when launches should consult the tuner: the thread-local
  /// ScopedTune override if present, else mode != Off.
  [[nodiscard]] bool enabled() const noexcept;
  [[nodiscard]] Mode mode() const noexcept { return mode_; }

  /// What decide() handed out, fed back through report().
  struct Decision {
    Phase phase = Phase::None;
    Config config;
    std::uint32_t key_id = 0;
    std::uint32_t candidate = 0;
    /// Transfer provenance: the key (and, for a cross-machine donor,
    /// `@fingerprint`) of the already-tuned site that seeded this
    /// site's search pool; nullptr for an unseeded (full) search.
    /// Points at tuner-owned storage stable until reset().
    const char* seeded_from = nullptr;
  };

  /// Pick the configuration that should serve the next launch of
  /// `site`: the cached/locked-in winner (Exploiting) or the next
  /// search candidate (Exploring).
  [[nodiscard]] Decision decide(const Site& site);

  /// Report the measured wall seconds of a launch served by `d`.
  /// Exploiting reports refresh the winner's stats only; exploring
  /// reports drive the successive-halving race.
  void report(const Decision& d, double seconds);

  /// Winner for `site`, once the race finished (or a cache hit).
  [[nodiscard]] std::optional<Config> best(const Site& site) const;
  [[nodiscard]] bool converged(const Site& site) const;

  /// Total launches served by search candidates (not winners) since
  /// construction/reset - the bench's convergence-cost metric.
  [[nodiscard]] std::uint64_t explored_launches() const;

  /// Seed the candidate-ordering priors (hwmodel/tuning_priors.cpp).
  /// Affects kernels first seen after the call.
  void set_priors(const Priors& p);

  /// Cross-site transfer learning (SYCLPORT_TUNE_TRANSFER, default on):
  /// a cold site seeds its successive-halving pool from the nearest
  /// already-tuned site - same axis set, closest footprint class,
  /// closest platform by fingerprint distance - instead of racing the
  /// full cross product. Force mode always runs the full search.
  void set_transfer(bool on) noexcept { transfer_ = on; }
  [[nodiscard]] bool transfer() const noexcept { return transfer_; }

  /// Which site seeded `site`'s search ("" when it ran a full search or
  /// was served from the cache) - the provenance launch_log records.
  [[nodiscard]] std::string seeded_from(const Site& site) const;

  /// Persist every decided kernel now. Called automatically whenever a
  /// race finishes; exposed for tests.
  bool save() const;

  /// Drop all in-memory state, then adopt the given mode/fingerprint/
  /// cache path and reload the cache - a warm process start without
  /// restarting the process (bench/ablation_autotune, tests).
  void reset(Mode mode, std::string fingerprint, std::string cache_path);

  [[nodiscard]] const std::string& cache_path() const { return cache_path_; }
  /// Fingerprint in use (measures the device on first call if the
  /// instance was constructed with an empty one).
  [[nodiscard]] const std::string& fingerprint();

 private:
  struct Candidate {
    Config cfg;
    double best_s = 1e30;  ///< min measured seconds across all rounds
    int runs = 0;          ///< completed runs in the current round
    int assigned = 0;      ///< decisions handed out in the current round
  };

  struct KeyState {
    std::string key;
    std::vector<Candidate> all;  ///< stable storage; Decision::candidate
                                 ///< indexes it even across rounds
    std::vector<std::uint32_t> alive;  ///< indices into `all` still racing
    int runs_per_cand = 1;
    bool decided = false;
    bool from_cache = false;
    Config best;
    double best_s = 1e30;
    /// Transfer provenance: donor key (+ `@fp` for a foreign machine)
    /// whose winner seeded this site's pool; empty for a full search.
    std::string seeded_from;
  };

  void ensure_loaded_locked();
  void advance_round_locked(KeyState& st);
  bool save_locked() const;
  /// Nearest already-tuned donor for the cold site `key` (nullopt when
  /// transfer is off or nothing compatible is tuned yet).
  struct Donor {
    Config config;
    std::string provenance;
  };
  [[nodiscard]] std::optional<Donor> find_donor_locked(
      const std::string& key) const;

  mutable std::mutex mu_;
  Mode mode_ = Mode::Off;
  std::string fingerprint_;  ///< empty = measure lazily
  std::string cache_path_;
  bool loaded_ = false;
  bool transfer_ = true;
  Priors priors_;
  std::vector<std::unique_ptr<KeyState>> states_;
  std::unordered_map<std::string, std::uint32_t> index_;
  std::vector<CacheData::Entry> cached_;  ///< from the file
  std::uint64_t explored_ = 0;
};

/// Thread-local enable override, the ops/op2 `Options::tune`
/// passthrough: true/false pins tuning on/off for launches issued from
/// this thread while the scope lives; nullopt leaves the env-derived
/// mode in charge. Nests; restores the previous override.
class ScopedTune {
 public:
  explicit ScopedTune(std::optional<bool> enable) noexcept;
  ~ScopedTune();
  ScopedTune(const ScopedTune&) = delete;
  ScopedTune& operator=(const ScopedTune&) = delete;

 private:
  std::optional<bool> saved_;
};

/// Phase/config of the innermost tuning scope active on this thread
/// (Phase::None / nullptr outside any). launch_log reads these to
/// record which configuration served each launch.
[[nodiscard]] Phase current_phase() noexcept;
[[nodiscard]] const Config* current_config() noexcept;
/// Transfer-seed provenance of the innermost tuning scope (nullptr when
/// the site's search was not seeded, or outside any scope).
[[nodiscard]] const char* current_seed() noexcept;

/// Field-wise log-space distance between two device fingerprints
/// (fingerprint.hpp format): 0 for identical machines, growing with
/// every doubling of cores / cache sizes / triad bandwidth that
/// separates the two. Unparseable fingerprints compare maximally far.
[[nodiscard]] double fingerprint_distance(std::string_view a,
                                          std::string_view b) noexcept;

/// The tuned replacement for rt::ScopedLaunchParams on every hot path.
///
/// Applies, for the lifetime of the scope, the launch parameters that
/// should serve this launch: explicit caller overrides always win
/// (and remove the schedule/grain axis from the search); otherwise,
/// when tuning is enabled and no tuning scope is already active on
/// this thread, the tuner's decision for the site. The destructor
/// reports the measured wall time of the scope back to the tuner
/// (skipped when unwinding an exception). When tuning is off this is
/// exactly a ScopedLaunchParams.
class TunedLaunchParams {
 public:
  explicit TunedLaunchParams(const Site& site,
                             std::optional<Schedule> schedule = std::nullopt,
                             std::optional<std::size_t> grain = std::nullopt);
  ~TunedLaunchParams();
  TunedLaunchParams(const TunedLaunchParams&) = delete;
  TunedLaunchParams& operator=(const TunedLaunchParams&) = delete;

  /// Phase::None when this scope ended up as a plain ScopedLaunchParams.
  [[nodiscard]] Phase phase() const noexcept { return decision_.phase; }
  /// The decided configuration (meaningful when phase() != None);
  /// callers read the axes they declared (local shape, overlap, tile).
  [[nodiscard]] const Config& config() const noexcept {
    return decision_.config;
  }

 private:
  LaunchParams saved_;
  Autotuner::Decision decision_;
  bool owns_scope_ = false;
  /// First-touch override state (kFirstTouch axis): previous value of
  /// the rt::mem thread-local, restored by the destructor.
  std::optional<bool> saved_ft_;
  bool ft_set_ = false;
  int uncaught_ = 0;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace syclport::rt::autotune
