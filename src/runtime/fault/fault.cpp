#include "runtime/fault/fault.hpp"

#include <array>
#include <charconv>
#include <chrono>
#include <mutex>
#include <thread>

#include "runtime/env.hpp"

namespace syclport::rt::fault {

namespace {

constexpr std::array<std::string_view, kSiteCount> kSiteNames = {
    "mem.alloc",    "mem.arena",   "pool.stall",  "sched.delay",
    "sched.reorder", "sched.throw", "comm.drop",   "comm.dup",
    "comm.corrupt", "comm.delay"};

/// How one site's entry decides whether an occurrence fires.
struct Trigger {
  enum class Kind : std::uint8_t { Off, Prob, Nth, EveryNth };
  Kind kind = Kind::Off;
  double prob = 0.0;      ///< Kind::Prob
  std::uint64_t n = 0;    ///< Kind::Nth / Kind::EveryNth
  std::uint64_t cap = 0;  ///< max injections of this entry; 0 = unbounded
};

/// The installed plan plus its mutable counters. Everything behind one
/// mutex: rolls happen only in chaos runs, where a lock beats the
/// subtlety of lock-free counters; the disarmed fast path never gets
/// here.
struct PlanState {
  std::uint64_t seed = 0;
  std::array<Trigger, kSiteCount> triggers{};
  std::array<std::uint64_t, kSiteCount> occurrence{};
  std::array<std::uint64_t, kSiteCount> injected{};
  std::array<std::uint64_t, kSiteCount> recovered{};
};

std::mutex& g_mu() {
  static std::mutex mu;
  return mu;
}

PlanState& g_plan() {
  static PlanState p;
  return p;
}

[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Deterministic draw for (seed, site, stream, occurrence).
[[nodiscard]] std::uint64_t draw(std::uint64_t seed, Site site,
                                 std::uint64_t stream,
                                 std::uint64_t occurrence) noexcept {
  std::uint64_t h = splitmix64(seed ^ 0xA5A5A5A5A5A5A5A5ull);
  h = splitmix64(h ^ (static_cast<std::uint64_t>(site) + 1));
  h = splitmix64(h ^ stream);
  h = splitmix64(h ^ occurrence);
  return h;
}

[[nodiscard]] bool parse_u64(std::string_view s, std::uint64_t& out) {
  if (s.empty()) return false;
  const auto* end = s.data() + s.size();
  const auto [p, ec] = std::from_chars(s.data(), end, out);
  return ec == std::errc() && p == end;
}

[[nodiscard]] bool parse_prob(std::string_view s, double& out) {
  if (s.empty()) return false;
  // from_chars(double) is not universally available; hand-roll the tiny
  // decimal subset the grammar allows: [0-9]*('.'[0-9]*)?
  double value = 0.0;
  std::size_t i = 0;
  bool digits = false;
  for (; i < s.size() && s[i] >= '0' && s[i] <= '9'; ++i) {
    value = value * 10.0 + (s[i] - '0');
    digits = true;
  }
  if (i < s.size() && s[i] == '.') {
    ++i;
    double scale = 0.1;
    for (; i < s.size() && s[i] >= '0' && s[i] <= '9'; ++i, scale *= 0.1) {
      value += (s[i] - '0') * scale;
      digits = true;
    }
  }
  if (!digits || i != s.size() || value < 0.0 || value > 1.0) return false;
  out = value;
  return true;
}

/// Parse one `site=trigger[xCap]` entry into `plan`. Returns false on
/// any syntax error.
[[nodiscard]] bool parse_entry(std::string_view entry, PlanState& plan) {
  const auto eq = entry.find('=');
  if (eq == std::string_view::npos) return false;
  const std::string_view name = entry.substr(0, eq);
  std::string_view rhs = entry.substr(eq + 1);

  Trigger t;
  // Optional trailing injection cap: ...xN (x cannot appear in the
  // trigger itself: probabilities are digits and dots, @n / %n digits).
  if (const auto xat = rhs.rfind('x'); xat != std::string_view::npos) {
    if (!parse_u64(rhs.substr(xat + 1), t.cap) || t.cap == 0) return false;
    rhs = rhs.substr(0, xat);
  }
  if (!rhs.empty() && rhs.front() == '@') {
    if (!parse_u64(rhs.substr(1), t.n) || t.n == 0) return false;
    t.kind = Trigger::Kind::Nth;
  } else if (!rhs.empty() && rhs.front() == '%') {
    if (!parse_u64(rhs.substr(1), t.n) || t.n == 0) return false;
    t.kind = Trigger::Kind::EveryNth;
  } else {
    if (!parse_prob(rhs, t.prob)) return false;
    t.kind = t.prob > 0.0 ? Trigger::Kind::Prob : Trigger::Kind::Off;
  }

  // `<group>.*` fans the trigger out over every site of the group.
  if (name.size() > 2 && name.ends_with(".*")) {
    const std::string_view group = name.substr(0, name.size() - 1);  // "g."
    bool any = false;
    for (std::size_t s = 0; s < kSiteCount; ++s)
      if (kSiteNames[s].starts_with(group)) {
        plan.triggers[s] = t;
        any = true;
      }
    return any;
  }
  const auto site = site_from_string(name);
  if (!site) return false;
  plan.triggers[static_cast<std::size_t>(*site)] = t;
  return true;
}

[[nodiscard]] bool parse_spec(std::string_view spec, PlanState& plan) {
  const auto colon = spec.find(':');
  if (colon == std::string_view::npos) return false;
  if (!parse_u64(spec.substr(0, colon), plan.seed)) return false;
  std::string_view rest = spec.substr(colon + 1);
  if (rest.empty()) return false;
  while (!rest.empty()) {
    const auto comma = rest.find(',');
    const std::string_view entry =
        comma == std::string_view::npos ? rest : rest.substr(0, comma);
    if (!parse_entry(entry, plan)) return false;
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
  }
  return true;
}

[[nodiscard]] Roll decide_locked(PlanState& plan, Site site,
                                 std::uint64_t stream,
                                 std::uint64_t occurrence) noexcept {
  const auto s = static_cast<std::size_t>(site);
  const Trigger& t = plan.triggers[s];
  Roll r;
  r.value = draw(plan.seed, site, stream, occurrence);
  switch (t.kind) {
    case Trigger::Kind::Off:
      return r;
    case Trigger::Kind::Prob:
      r.fire = static_cast<double>(r.value >> 11) * 0x1.0p-53 < t.prob;
      break;
    case Trigger::Kind::Nth:
      r.fire = occurrence == t.n;
      break;
    case Trigger::Kind::EveryNth:
      r.fire = occurrence % t.n == 0;
      break;
  }
  if (r.fire) {
    if (t.cap != 0 && plan.injected[s] >= t.cap) {
      r.fire = false;
    } else {
      ++plan.injected[s];
    }
  }
  return r;
}

/// Parse SYCLPORT_FAULT once at process start, before any site can be
/// reached from main(). A disarmed parse failure is deliberate: chaos
/// must be opt-in and all-or-nothing, never a half-applied spec.
[[maybe_unused]] const bool g_env_init = [] {
  if (const auto v = env::get("SYCLPORT_FAULT")) {
    if (!configure(*v))
      env::warn_invalid("SYCLPORT_FAULT", *v,
                        "seed:site=prob|@n|%n[xcap][,...]");
  }
  return true;
}();

}  // namespace

namespace detail {
std::atomic<bool> g_armed{false};
}  // namespace detail

const char* to_string(Site s) noexcept {
  return kSiteNames[static_cast<std::size_t>(s)].data();
}

std::optional<Site> site_from_string(std::string_view name) {
  for (std::size_t i = 0; i < kSiteCount; ++i)
    if (kSiteNames[i] == name) return static_cast<Site>(i);
  return std::nullopt;
}

Roll roll(Site site) noexcept {
  if (!armed()) return {};
  std::lock_guard lock(g_mu());
  PlanState& plan = g_plan();
  const auto s = static_cast<std::size_t>(site);
  return decide_locked(plan, site, /*stream=*/0, ++plan.occurrence[s]);
}

Roll roll_stream(Site site, std::uint64_t stream,
                 std::uint64_t occurrence) noexcept {
  if (!armed()) return {};
  std::lock_guard lock(g_mu());
  return decide_locked(g_plan(), site, stream, occurrence);
}

void inject_sleep(std::uint64_t value, std::uint64_t min_us,
                  std::uint64_t max_us) noexcept {
  const std::uint64_t span = max_us > min_us ? max_us - min_us : 1;
  std::this_thread::sleep_for(
      std::chrono::microseconds(min_us + value % span));
}

void note_recovered(Site site) noexcept {
  std::lock_guard lock(g_mu());
  ++g_plan().recovered[static_cast<std::size_t>(site)];
}

FaultStats stats() {
  std::lock_guard lock(g_mu());
  const PlanState& plan = g_plan();
  FaultStats out;
  for (std::size_t i = 0; i < kSiteCount; ++i) {
    out.injected[i] = plan.injected[i];
    out.recovered[i] = plan.recovered[i];
  }
  return out;
}

void reset_stats_for_testing() {
  std::lock_guard lock(g_mu());
  PlanState& plan = g_plan();
  plan.occurrence.fill(0);
  plan.injected.fill(0);
  plan.recovered.fill(0);
}

bool configure(std::string_view spec) {
  if (spec.empty()) {
    clear();
    return true;
  }
  PlanState next;
  if (!parse_spec(spec, next)) return false;
  {
    std::lock_guard lock(g_mu());
    g_plan() = next;
  }
  detail::g_armed.store(true, std::memory_order_relaxed);
  return true;
}

void clear() {
  detail::g_armed.store(false, std::memory_order_relaxed);
  std::lock_guard lock(g_mu());
  g_plan() = PlanState{};
}

std::uint64_t seed() noexcept {
  if (!armed()) return 0;
  std::lock_guard lock(g_mu());
  return g_plan().seed;
}

}  // namespace syclport::rt::fault
