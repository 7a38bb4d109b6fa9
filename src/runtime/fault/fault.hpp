#pragma once
/// \file fault.hpp
/// Seeded, deterministic fault injection for every runtime layer.
///
/// The study's credibility rests on long bandwidth-bound runs surviving
/// thousands of launches across the executor, the out-of-order
/// scheduler and the pooled memory subsystem. This module makes their
/// failure story *testable*: a `Plan` (seeded PRNG plus per-site
/// triggers, parsed from `SYCLPORT_FAULT=seed:spec`) decides,
/// reproducibly, which occurrence of which instrumented site
/// misbehaves. The sites cover:
///
///   mem.alloc     allocation failure (simulated upstream bad_alloc)
///   mem.arena     arena-cap pressure (pool bypassed for the request)
///   pool.stall    executor worker stall / late start
///   sched.delay   delayed command completion in the OoO scheduler
///   sched.reorder ready-queue reordering (DAG edges still honoured)
///   sched.throw   kernel-thrown exception inside a command
///
/// Spec grammar (docs/resilience.md):
///   SYCLPORT_FAULT = <seed> ':' <entry> (',' <entry>)*
///   entry          = <site> '=' <trigger> [ 'x' <cap> ]
///   trigger        = <probability in [0,1]> | '@'<n> | '%'<n>
/// `<site>` is one of the names above or a `<group>.*` wildcard;
/// `@n` fires exactly the n-th occurrence, `%n` every n-th, a
/// probability fires each occurrence independently; `x<cap>` bounds the
/// total injections of the entry (so recovery proofs converge).
/// A malformed value warns once (rt::env) and disarms the layer.
///
/// Determinism: every site keys on a per-site occurrence counter, so
/// the n-th occurrence always gets the same decision for a given seed
/// even when thread timing shuffles which call is n-th.
///
/// Zero cost when unset: every instrumented site guards on `armed()`,
/// a single relaxed atomic-bool load (verified against
/// bench/ablation_scheduler parity by bench/ablation_fault).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace syclport::rt::fault {

/// Instrumented sites (stable order: spec names above map 1:1).
enum class Site : std::uint8_t {
  MemAlloc,
  MemArena,
  PoolStall,
  SchedDelay,
  SchedReorder,
  SchedThrow,
};
inline constexpr std::size_t kSiteCount = 6;

[[nodiscard]] const char* to_string(Site s) noexcept;
[[nodiscard]] std::optional<Site> site_from_string(std::string_view name);

namespace detail {
/// Armed flag. Sites read it through armed() below; configure()/clear()
/// write it. Relaxed is enough: arming happens before the faulted work
/// starts (static init or test setup), and a stale read only means one
/// more/fewer un-injected call.
extern std::atomic<bool> g_armed;
}  // namespace detail

/// Fast-path guard: true iff a fault plan is installed. Instrumented
/// sites must check this before anything else so an unset
/// SYCLPORT_FAULT costs one predictable branch.
[[nodiscard]] inline bool armed() noexcept {
  return detail::g_armed.load(std::memory_order_relaxed);
}

/// One injection decision. `value` is a deterministic 64-bit draw the
/// site may use to derive magnitudes (delay lengths) so those are
/// reproducible too.
struct Roll {
  bool fire = false;
  std::uint64_t value = 0;
};

/// Decision for the next occurrence of `site` (advances the site's
/// occurrence counter). Never fires when disarmed or the site has no
/// trigger; respects the entry's injection cap.
[[nodiscard]] Roll roll(Site site) noexcept;

/// Sleep for a short, bounded, deterministic interval derived from a
/// Roll's value: `value % (max_us - min_us) + min_us` microseconds.
/// Used by the stall/delay sites.
void inject_sleep(std::uint64_t value, std::uint64_t min_us,
                  std::uint64_t max_us) noexcept;

/// Record a successful recovery from an injected (or real) fault at
/// `site` - the pool falling back to a direct allocation, or serving a
/// request past arena pressure.
void note_recovered(Site site) noexcept;

/// Cumulative injection/recovery telemetry (relaxed counters).
struct FaultStats {
  std::uint64_t injected[kSiteCount] = {};
  std::uint64_t recovered[kSiteCount] = {};

  [[nodiscard]] std::uint64_t injected_at(Site s) const noexcept {
    return injected[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::uint64_t recovered_at(Site s) const noexcept {
    return recovered[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::uint64_t total_injected() const noexcept {
    std::uint64_t t = 0;
    for (auto v : injected) t += v;
    return t;
  }
  [[nodiscard]] std::uint64_t total_recovered() const noexcept {
    std::uint64_t t = 0;
    for (auto v : recovered) t += v;
    return t;
  }
};

[[nodiscard]] FaultStats stats();
void reset_stats_for_testing();

/// Install a plan from a "seed:spec" string (the SYCLPORT_FAULT
/// syntax). Returns false (and warns through rt::env, leaving the
/// layer disarmed) on a malformed spec. An empty string disarms.
bool configure(std::string_view spec);

/// Disarm and drop the installed plan (tests).
void clear();

/// The seed of the installed plan (0 when disarmed) - chaos harnesses
/// echo it so a failing randomized run is reproducible.
[[nodiscard]] std::uint64_t seed() noexcept;

/// The exception type injected by sched.throw: a deliberately
/// recoverable kernel failure, distinguishable from genuine bugs.
class fault_injected_error : public std::runtime_error {
 public:
  explicit fault_injected_error(const std::string& what_arg)
      : std::runtime_error(what_arg) {}
};

/// Thrown by a watchdog-armed synchronization point
/// (SYCLPORT_WATCHDOG_MS) instead of deadlocking on a command that
/// never retires.
class watchdog_error : public std::runtime_error {
 public:
  watchdog_error(const std::string& what_arg, std::size_t stuck)
      : std::runtime_error(what_arg), stuck_commands(stuck) {}
  std::size_t stuck_commands = 0;
};

}  // namespace syclport::rt::fault
