#include "runtime/autotune/autotune.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/factorize.hpp"
#include "runtime/autotune/cache.hpp"
#include "runtime/autotune/fingerprint.hpp"
#include "runtime/env.hpp"
#include "runtime/mem/mem.hpp"

namespace syclport::rt::autotune {

namespace {

/// Successive halving: each round the surviving candidates get twice
/// the measurements, capped here (min-of-8 is a stable statistic for
/// microsecond launches without stretching exploration).
constexpr int kMaxRunsPerCandidate = 8;

/// Innermost tuning scope on this thread (launch_log reads it; nested
/// TunedLaunchParams become passthrough while one is active).
struct ActiveScope {
  Phase phase = Phase::None;
  const Config* cfg = nullptr;
  const char* seed = nullptr;  ///< transfer provenance, tuner-owned
};
thread_local ActiveScope t_scope;

/// ScopedTune override (ops/op2 Options::tune passthrough).
thread_local std::optional<bool> t_tune_override;

[[nodiscard]] Autotuner::Mode mode_from_env() {
  static constexpr std::string_view allowed[] = {"off", "on", "force"};
  if (const auto i = env::get_choice("SYCLPORT_TUNE", allowed))
    return static_cast<Autotuner::Mode>(*i);
  return Autotuner::Mode::Off;
}

[[nodiscard]] std::string cache_path_from_env() {
  if (const auto p = env::get("SYCLPORT_TUNE_CACHE")) return std::string(*p);
  return ".syclport_tune.json";
}

[[nodiscard]] bool transfer_from_env() {
  static constexpr std::string_view allowed[] = {"off", "on"};
  if (const auto i = env::get_choice("SYCLPORT_TUNE_TRANSFER", allowed))
    return *i == 1;
  return true;
}

void append_token(std::string& out, const char* key, const std::string& val) {
  if (!out.empty()) out += ' ';
  out += key;
  out += '=';
  out += val;
}

// --- candidate generation ---------------------------------------------------

/// nd_range local-shape candidates: for each prior work-group total, a
/// fastest-dimension-only shape (coalescing-friendly) and a
/// near-balanced factorization (core/factorize; cache-block-friendly),
/// deduplicated and clamped to the device ceiling. Shapes are stored
/// slowest-first in the trailing `dims` entries, the ops nd_local
/// layout.
[[nodiscard]] std::vector<std::array<std::size_t, 3>> shape_candidates(
    const Site& site, const Priors& priors) {
  std::vector<std::array<std::size_t, 3>> out;
  auto push = [&](std::array<std::size_t, 3> s) {
    if (std::find(out.begin(), out.end(), s) == out.end()) out.push_back(s);
  };
  for (std::size_t total : priors.wg_totals) {
    total = std::clamp<std::size_t>(total, 1, site.max_wg);
    std::array<std::size_t, 3> flat{1, 1, 1};
    flat[2] = total;
    push(flat);
    if (site.dims > 1) {
      const auto f = syclport::balanced_factors(static_cast<int>(total),
                                                site.dims);
      std::array<std::size_t, 3> bal{1, 1, 1};
      // balanced_factors fills [0, dims); map ascending onto the
      // trailing entries so the largest factor lands fastest.
      std::array<int, 3> sorted = f;
      for (int i = 1; i < site.dims; ++i)  // tiny fixed-size sort
        for (int j = i; j > 0 && sorted[static_cast<std::size_t>(j - 1)] >
                                     sorted[static_cast<std::size_t>(j)];
             --j)
          std::swap(sorted[static_cast<std::size_t>(j - 1)],
                    sorted[static_cast<std::size_t>(j)]);
      for (int d = 0; d < site.dims; ++d)
        bal[static_cast<std::size_t>(3 - site.dims + d)] =
            static_cast<std::size_t>(sorted[static_cast<std::size_t>(d)]);
      push(bal);
    }
  }
  return out;
}

[[nodiscard]] std::vector<Config> make_candidates(const Site& site,
                                                  const Priors& priors) {
  std::vector<Config> set{Config{}};
  auto cross = [&](auto&& expand) {
    std::vector<Config> next;
    for (const Config& c : set) expand(c, next);
    if (!next.empty()) set = std::move(next);
  };

  if (site.axes & kScheduleGrain) {
    // Grain only matters for range-splitting launches; nd_range sites
    // schedule whole groups, so vary schedule alone there.
    std::vector<std::size_t> grains{1};
    if (!(site.axes & kWorkGroup)) {
      for (const std::size_t g : priors.grains)
        if (g > 1 && g * 2 <= site.total() &&
            std::find(grains.begin(), grains.end(), g) == grains.end())
          grains.push_back(g);
    }
    cross([&](const Config& c, std::vector<Config>& next) {
      for (const Schedule s : priors.schedule_order)
        for (const std::size_t g : grains) {
          Config d = c;
          d.schedule = s;
          d.grain = g;
          next.push_back(d);
        }
    });
  }
  if (site.axes & kWorkGroup) {
    const auto shapes = shape_candidates(site, priors);
    cross([&](const Config& c, std::vector<Config>& next) {
      for (const auto& s : shapes) {
        Config d = c;
        d.local = s;
        next.push_back(d);
      }
    });
  }
  if (site.axes & kOverlap) {
    cross([&](const Config& c, std::vector<Config>& next) {
      for (const bool q : {true, false}) {
        Config d = c;
        d.overlap_queue = q;
        next.push_back(d);
      }
    });
  }
  if (site.axes & kTile) {
    std::vector<std::size_t> tiles{0};
    for (const std::size_t t : priors.tiles)
      if (t > 0 && t < site.global[0] &&
          std::find(tiles.begin(), tiles.end(), t) == tiles.end())
        tiles.push_back(t);
    // When every prior exceeds the extent (LLC-derived depths on a
    // small site), still race one half-extent tile so the tiled path
    // stays reachable.
    if (tiles.size() == 1 && site.global[0] >= 8)
      tiles.push_back(site.global[0] / 2);
    // The fuse and tile axes are joint, not a cross product: the
    // unfused reference schedule has no tile to vary, so it appears as
    // the single fuse=off candidate and the tile depths race under
    // fuse=on.
    const bool fuse_axis = (site.axes & kFuse) != 0;
    cross([&](const Config& c, std::vector<Config>& next) {
      if (fuse_axis) {
        Config off = c;
        off.fuse = false;
        off.tile = 0;
        next.push_back(off);
      }
      for (const std::size_t t : tiles) {
        if (fuse_axis && t == 0) continue;
        Config d = c;
        if (fuse_axis) d.fuse = true;
        d.tile = t;
        next.push_back(d);
      }
    });
  } else if (site.axes & kFuse) {
    cross([&](const Config& c, std::vector<Config>& next) {
      for (const bool f : {true, false}) {
        Config d = c;
        d.fuse = f;
        next.push_back(d);
      }
    });
  }
  if (site.axes & kFirstTouch) {
    cross([&](const Config& c, std::vector<Config>& next) {
      for (const bool ft : priors.first_touch_order) {
        Config d = c;
        d.first_touch = ft;
        next.push_back(d);
      }
    });
  }
  if (site.axes & kCacheBlock) {
    // Fast (innermost) extent bounds the block: a block that covers the
    // whole fast dimension is the unblocked traversal.
    const std::size_t fast =
        site.global[static_cast<std::size_t>(std::max(1, site.dims) - 1)];
    std::vector<std::size_t> blocks{0};
    for (const std::size_t cb : priors.cache_blocks)
      if (cb > 0 && cb * 2 <= fast &&
          std::find(blocks.begin(), blocks.end(), cb) == blocks.end())
        blocks.push_back(cb);
    if (blocks.size() > 1) {
      cross([&](const Config& c, std::vector<Config>& next) {
        for (const std::size_t cb : blocks) {
          Config d = c;
          d.cache_block = cb;
          next.push_back(d);
        }
      });
    }
  }
  if (site.axes & (kIndirect | kLayout)) {
    // Strategy and layout are one joint axis: a non-AoS layout only
    // executes through the staged lowering (the eager binders hand out
    // raw AoS pointers), so crossing them independently would generate
    // candidates the runtime must coerce anyway. Dropped (-1) prior
    // entries shrink the menu; dedup keeps donor-seeded orders clean.
    struct IL { int indirect, layout; };
    std::vector<IL> menu;
    auto push = [&](int ind, int lay) {
      for (const IL& m : menu)
        if (m.indirect == ind && m.layout == lay) return;
      menu.push_back({ind, lay});
    };
    const bool ind_axis = (site.axes & kIndirect) != 0;
    const bool lay_axis = (site.axes & kLayout) != 0;
    for (const int ind : priors.indirect_order) {
      if (ind_axis && (ind < 1 || ind > 4)) continue;
      const int i = ind_axis ? ind : -1;
      if (!lay_axis) {
        push(i, -1);
        continue;
      }
      for (const int lay : priors.layout_order) {
        if (lay < 0 || lay > 2) continue;
        if (lay != 0 && ind_axis && i != 4) continue;  // non-AoS => staged
        push(i, lay);
      }
    }
    if (!ind_axis && menu.empty())
      for (const int lay : priors.layout_order)
        if (lay >= 0 && lay <= 2) push(-1, lay);
    cross([&](const Config& c, std::vector<Config>& next) {
      for (const IL& m : menu) {
        Config d = c;
        if (m.indirect >= 0) d.indirect = m.indirect;
        if (m.layout >= 0) d.layout = m.layout;
        next.push_back(d);
      }
    });
  }
  return set;
}

/// Joint-axis Hamming distance between two configurations: how many of
/// the tuner's joint axes (schedule+grain, local shape, overlap,
/// tile+fuse, first-touch, cache block, layout+indirect) differ. The
/// transfer seeder ranks neighbors of a donor winner by this.
[[nodiscard]] int axis_diff(const Config& a, const Config& b) {
  int d = 0;
  d += static_cast<int>(a.schedule != b.schedule || a.grain != b.grain);
  d += static_cast<int>(a.local != b.local);
  d += static_cast<int>(a.overlap_queue != b.overlap_queue);
  d += static_cast<int>(a.tile != b.tile || a.fuse != b.fuse);
  d += static_cast<int>(a.first_touch != b.first_touch);
  d += static_cast<int>(a.cache_block != b.cache_block);
  d += static_cast<int>(a.layout != b.layout || a.indirect != b.indirect);
  return d;
}

/// Fields of a Site::key() the donor search scores on (parsed back from
/// the stored string so cache entries from other runs/machines can be
/// ranked without their Site).
struct KeyInfo {
  std::string name;
  int fp_class = -1;
  unsigned axes = 0;
};

[[nodiscard]] std::optional<KeyInfo> parse_key(std::string_view key) {
  KeyInfo info;
  const auto bar = key.find('|');
  if (bar == std::string_view::npos) return std::nullopt;
  info.name = std::string(key.substr(0, bar));
  auto field_after = [&](std::string_view tag) -> std::optional<long> {
    const auto at = key.rfind(tag);
    if (at == std::string_view::npos) return std::nullopt;
    long v = 0;
    bool any = false;
    for (std::size_t i = at + tag.size(); i < key.size(); ++i) {
      const char c = key[i];
      if (c < '0' || c > '9') break;
      v = v * 10 + (c - '0');
      any = true;
    }
    if (!any) return std::nullopt;
    return v;
  };
  const auto fp = field_after("|fp");
  const auto ax = field_after("|ax");
  if (!fp || !ax) return std::nullopt;
  info.fp_class = static_cast<int>(*fp);
  info.axes = static_cast<unsigned>(*ax);
  return info;
}

}  // namespace

// --- Config / Site ----------------------------------------------------------

const char* to_string(Phase p) noexcept {
  switch (p) {
    case Phase::None: return "none";
    case Phase::Exploring: return "exploring";
    case Phase::Exploiting: return "exploiting";
  }
  return "?";
}

std::string Config::to_string() const {
  std::string out;
  if (schedule) append_token(out, "schedule", rt::to_string(*schedule));
  if (grain) append_token(out, "grain", std::to_string(*grain));
  if (local) {
    append_token(out, "local",
                 std::to_string((*local)[0]) + "x" +
                     std::to_string((*local)[1]) + "x" +
                     std::to_string((*local)[2]));
  }
  if (overlap_queue)
    append_token(out, "overlap", *overlap_queue ? "queue" : "inline");
  if (tile) append_token(out, "tile", std::to_string(*tile));
  if (first_touch)
    append_token(out, "first_touch", *first_touch ? "on" : "off");
  if (fuse) append_token(out, "fuse", *fuse ? "on" : "off");
  if (cache_block)
    append_token(out, "cache_block", std::to_string(*cache_block));
  if (layout) {
    static constexpr std::array<const char*, 3> kLayouts = {"aos", "soa",
                                                            "aosoa"};
    const int l = *layout;
    append_token(out, "layout", l >= 0 && l < 3 ? kLayouts[static_cast<std::size_t>(l)] : "?");
  }
  if (indirect) {
    static constexpr std::array<const char*, 5> kStrategies = {
        "?", "atomics", "global", "hierarchical", "staged"};
    const int i = *indirect;
    append_token(out, "indirect",
                 i >= 1 && i < 5 ? kStrategies[static_cast<std::size_t>(i)] : "?");
  }
  return out;
}

std::optional<Config> Config::parse(std::string_view s) {
  Config cfg;
  auto parse_size = [](std::string_view v) -> std::optional<std::size_t> {
    if (v.empty()) return std::nullopt;
    std::size_t out = 0;
    for (const char ch : v) {
      if (ch < '0' || ch > '9') return std::nullopt;
      out = out * 10 + static_cast<std::size_t>(ch - '0');
    }
    return out;
  };
  while (!s.empty()) {
    const auto sp = s.find(' ');
    const std::string_view tok = s.substr(0, sp);
    s = sp == std::string_view::npos ? std::string_view{} : s.substr(sp + 1);
    if (tok.empty()) continue;
    const auto eq = tok.find('=');
    if (eq == std::string_view::npos) return std::nullopt;
    const std::string_view key = tok.substr(0, eq);
    const std::string_view val = tok.substr(eq + 1);
    if (key == "schedule") {
      const auto sched = parse_schedule(val);
      if (!sched) return std::nullopt;
      cfg.schedule = *sched;
    } else if (key == "grain") {
      const auto g = parse_size(val);
      if (!g) return std::nullopt;
      cfg.grain = *g;
    } else if (key == "local") {
      std::array<std::size_t, 3> shape{1, 1, 1};
      std::string_view rest = val;
      for (int d = 0; d < 3; ++d) {
        const auto x = rest.find('x');
        const bool last = d == 2;
        if (last != (x == std::string_view::npos)) return std::nullopt;
        const auto piece = parse_size(last ? rest : rest.substr(0, x));
        if (!piece || *piece == 0) return std::nullopt;
        shape[static_cast<std::size_t>(d)] = *piece;
        if (!last) rest = rest.substr(x + 1);
      }
      cfg.local = shape;
    } else if (key == "overlap") {
      if (val == "queue") cfg.overlap_queue = true;
      else if (val == "inline") cfg.overlap_queue = false;
      else return std::nullopt;
    } else if (key == "tile") {
      const auto t = parse_size(val);
      if (!t) return std::nullopt;
      cfg.tile = *t;
    } else if (key == "first_touch") {
      if (val == "on") cfg.first_touch = true;
      else if (val == "off") cfg.first_touch = false;
      else return std::nullopt;
    } else if (key == "fuse") {
      if (val == "on") cfg.fuse = true;
      else if (val == "off") cfg.fuse = false;
      else return std::nullopt;
    } else if (key == "cache_block") {
      const auto v = parse_size(val);
      if (!v) return std::nullopt;
      cfg.cache_block = *v;
    } else if (key == "layout") {
      if (val == "aos") cfg.layout = 0;
      else if (val == "soa") cfg.layout = 1;
      else if (val == "aosoa") cfg.layout = 2;
      else return std::nullopt;
    } else if (key == "indirect") {
      if (val == "atomics") cfg.indirect = 1;
      else if (val == "global") cfg.indirect = 2;
      else if (val == "hierarchical") cfg.indirect = 3;
      else if (val == "staged") cfg.indirect = 4;
      else return std::nullopt;
    } else {
      return std::nullopt;  // unknown axis: treat the entry as corrupt
    }
  }
  return cfg;
}

std::size_t Site::total() const noexcept {
  std::size_t t = 1;
  for (int d = 0; d < dims; ++d) t *= global[static_cast<std::size_t>(d)];
  return std::max<std::size_t>(1, t);
}

std::string Site::key() const {
  // Sanitize the kernel name: the cache format is line/space delimited.
  std::string n(name != nullptr ? name : "(kernel)");
  for (char& c : n)
    if (c == ' ' || c == '"' || c == '|') c = '_';
  int fp_class = 0;
  for (std::size_t t = total(); t > 1; t >>= 1) ++fp_class;
  std::string out = n;
  out += '|';
  out += std::to_string(dims);
  out += '|';
  out += std::to_string(global[0]);
  out += 'x';
  out += std::to_string(global[1]);
  out += 'x';
  out += std::to_string(global[2]);
  out += nd ? "|nd" : "|flat";
  out += "|fp";
  out += std::to_string(fp_class);
  // Axis mask: two same-named same-shaped sites with different declared
  // axis sets (a Threads lowering racing cache blocks vs a Serial
  // one racing schedule alone) must never collide in the cache - a
  // winner with axes the other lowering cannot act on would silently
  // pin the wrong knobs.
  out += "|ax";
  out += std::to_string(axes);
  return out;
}

// --- Autotuner --------------------------------------------------------------

Autotuner& Autotuner::instance() {
  static Autotuner tuner(mode_from_env(), std::string{}, cache_path_from_env());
  static const bool env_init = (tuner.set_transfer(transfer_from_env()), true);
  (void)env_init;
  return tuner;
}

Autotuner::Autotuner(Mode mode, std::string fingerprint, std::string cache_path)
    : mode_(mode),
      fingerprint_(std::move(fingerprint)),
      cache_path_(std::move(cache_path)) {}

bool Autotuner::enabled() const noexcept {
  if (t_tune_override) return *t_tune_override;
  return mode_ != Mode::Off;
}

const std::string& Autotuner::fingerprint() {
  std::lock_guard lock(mu_);
  if (fingerprint_.empty()) fingerprint_ = device_fingerprint();
  return fingerprint_;
}

void Autotuner::ensure_loaded_locked() {
  if (loaded_) return;
  loaded_ = true;
  if (fingerprint_.empty()) fingerprint_ = device_fingerprint();
  if (cache_path_.empty()) return;
  const auto data = read_cache(cache_path_);
  if (!data) return;
  // Keep every entry, including ones measured on other machines: a
  // foreign winner is never served directly (the fp gate in decide()),
  // but it is exactly what the transfer seeder wants - a nearby
  // platform's converged configuration to warm-start this one's race.
  cached_ = data->entries;
  for (auto& e : cached_)
    if (e.fp.empty()) e.fp = data->fingerprint;
}

Autotuner::Decision Autotuner::decide(const Site& site) {
  if (!enabled()) return {};
  std::lock_guard lock(mu_);
  ensure_loaded_locked();

  const std::string key = site.key();
  auto [it, inserted] = index_.try_emplace(key, static_cast<std::uint32_t>(
                                                    states_.size()));
  if (inserted) {
    auto st = std::make_unique<KeyState>();
    st->key = key;
    if (mode_ != Mode::Force) {
      // Direct hit only for a winner measured on *this* machine; a
      // foreign entry feeds the transfer seeder below instead.
      const auto hit = std::find_if(
          cached_.begin(), cached_.end(), [&](const CacheData::Entry& e) {
            return e.key == key && e.fp == fingerprint_;
          });
      if (hit != cached_.end()) {
        st->decided = true;
        st->from_cache = true;
        st->best = hit->config;
      }
    }
    if (!st->decided) {
      auto cands = make_candidates(site, priors_);
      if (cands.size() <= 1) {
        // Degenerate space: nothing to race, lock in immediately.
        st->decided = true;
        st->best = cands.empty() ? Config{} : cands.front();
      } else {
        if (mode_ != Mode::Force && transfer_) {
          if (const auto donor = find_donor_locked(key)) {
            // Warm start: race the donor's winner against its nearest
            // neighbors in joint-axis space instead of the full cross
            // product. The donor config is raced verbatim - a foreign
            // value that does not suit this site degrades gracefully
            // (oversized grains/tiles collapse to one chunk, oversized
            // cache blocks to the unblocked walk) and simply loses the
            // race.
            std::stable_sort(cands.begin(), cands.end(),
                             [&](const Config& a, const Config& b) {
                               return axis_diff(a, donor->config) <
                                      axis_diff(b, donor->config);
                             });
            std::vector<Config> pool{donor->config};
            for (const Config& c : cands) {
              if (pool.size() >= 6) break;
              if (c == donor->config) continue;
              pool.push_back(c);
            }
            if (pool.size() >= 2) {
              cands = std::move(pool);
              st->seeded_from = donor->provenance;
            }
          }
        }
        st->all.reserve(cands.size());
        for (auto& c : cands) st->all.push_back({std::move(c), 1e30, 0, 0});
        st->alive.resize(st->all.size());
        for (std::uint32_t i = 0; i < st->alive.size(); ++i) st->alive[i] = i;
      }
    }
    states_.push_back(std::move(st));
  }
  const auto key_id = it->second;
  KeyState& st = *states_[key_id];
  const char* seed = st.seeded_from.empty() ? nullptr : st.seeded_from.c_str();
  if (st.decided) return {Phase::Exploiting, st.best, key_id, 0, seed};

  // Least-assigned surviving candidate next: round-robin coverage, and
  // unreported launches (exceptions, in-flight concurrency) never
  // starve the round.
  std::uint32_t pick = st.alive.front();
  for (const std::uint32_t i : st.alive)
    if (st.all[i].assigned < st.all[pick].assigned) pick = i;
  ++st.all[pick].assigned;
  ++explored_;
  return {Phase::Exploring, st.all[pick].cfg, key_id, pick, seed};
}

std::optional<Autotuner::Donor> Autotuner::find_donor_locked(
    const std::string& key) const {
  const auto want = parse_key(key);
  if (!want) return std::nullopt;
  std::optional<Donor> best;
  double best_score = 1e30;
  auto consider = [&](const std::string& donor_key, const Config& cfg,
                      const std::string& fp) {
    if (donor_key == key && fp == fingerprint_) return;  // ourselves
    const auto info = parse_key(donor_key);
    if (!info) return;  // pre-v3 key without an axis mask: not rankable
    // A donor must have raced exactly the axes this site declares -
    // transferring a winner across axis sets would pin knobs the
    // receiving lowering never consumes (or miss ones it needs).
    if (info->axes != want->axes) return;
    // Platform distance dominates (the paper's point: winners differ
    // per platform far more than per kernel); footprint class breaks
    // platform ties, same-name kernels break footprint ties.
    double score = 10.0 * fingerprint_distance(fp, fingerprint_);
    score += std::abs(info->fp_class - want->fp_class);
    if (info->name != want->name) score += 0.5;
    if (score < best_score) {
      best_score = score;
      Donor d;
      d.config = cfg;
      d.provenance = donor_key;
      if (fp != fingerprint_) d.provenance += "@" + fp;
      best = std::move(d);
    }
  };
  for (const auto& st : states_)
    if (st->decided) consider(st->key, st->best, fingerprint_);
  for (const auto& e : cached_) consider(e.key, e.config, e.fp);
  return best;
}

void Autotuner::report(const Decision& d, double seconds) {
  if (d.phase != Phase::Exploring) return;
  std::lock_guard lock(mu_);
  if (d.key_id >= states_.size()) return;
  KeyState& st = *states_[d.key_id];
  if (st.decided || d.candidate >= st.all.size()) return;
  Candidate& c = st.all[d.candidate];
  c.best_s = std::min(c.best_s, seconds);
  const bool alive = std::find(st.alive.begin(), st.alive.end(),
                               d.candidate) != st.alive.end();
  if (!alive) return;  // measurement of an already-dropped candidate
  ++c.runs;
  advance_round_locked(st);
}

void Autotuner::advance_round_locked(KeyState& st) {
  const bool round_done =
      std::all_of(st.alive.begin(), st.alive.end(), [&](std::uint32_t i) {
        return st.all[i].runs >= st.runs_per_cand;
      });
  if (!round_done) return;
  std::sort(st.alive.begin(), st.alive.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return st.all[a].best_s < st.all[b].best_s;
            });
  if (st.alive.size() > 1) st.alive.resize((st.alive.size() + 1) / 2);
  if (st.alive.size() == 1) {
    st.decided = true;
    st.best = st.all[st.alive.front()].cfg;
    st.best_s = st.all[st.alive.front()].best_s;
    save_locked();
    return;
  }
  st.runs_per_cand = std::min(st.runs_per_cand * 2, kMaxRunsPerCandidate);
  for (const std::uint32_t i : st.alive) {
    st.all[i].runs = 0;
    st.all[i].assigned = 0;
  }
}

std::optional<Config> Autotuner::best(const Site& site) const {
  std::lock_guard lock(mu_);
  const auto it = index_.find(site.key());
  if (it == index_.end() || !states_[it->second]->decided) return std::nullopt;
  return states_[it->second]->best;
}

bool Autotuner::converged(const Site& site) const {
  std::lock_guard lock(mu_);
  const auto it = index_.find(site.key());
  return it != index_.end() && states_[it->second]->decided;
}

std::uint64_t Autotuner::explored_launches() const {
  std::lock_guard lock(mu_);
  return explored_;
}

void Autotuner::set_priors(const Priors& p) {
  std::lock_guard lock(mu_);
  priors_ = p;
}

std::string Autotuner::seeded_from(const Site& site) const {
  std::lock_guard lock(mu_);
  const auto it = index_.find(site.key());
  if (it == index_.end()) return {};
  return states_[it->second]->seeded_from;
}

bool Autotuner::save() const {
  std::lock_guard lock(mu_);
  return save_locked();
}

bool Autotuner::save_locked() const {
  if (cache_path_.empty()) return false;
  CacheData data;
  data.fingerprint = fingerprint_;
  // Keep entries for kernels this run never saw - foreign-machine
  // entries included, so a shared cache keeps accumulating transfer
  // donors across the cluster.
  data.entries = cached_;
  for (const auto& st : states_) {
    if (!st->decided) continue;
    auto it = std::find_if(data.entries.begin(), data.entries.end(),
                           [&](const CacheData::Entry& e) {
                             return e.key == st->key && e.fp == fingerprint_;
                           });
    if (it != data.entries.end())
      it->config = st->best;
    else
      data.entries.push_back({st->key, st->best, fingerprint_});
  }
  // Merge-on-load: another process may have rewritten the file since
  // our load; re-read and keep its entries for (key, fp) identities we
  // are not rewriting ourselves, then publish the union through the
  // atomic-rename path.
  return write_cache_merged(cache_path_, data);
}

void Autotuner::reset(Mode mode, std::string fingerprint,
                      std::string cache_path) {
  std::lock_guard lock(mu_);
  mode_ = mode;
  fingerprint_ = std::move(fingerprint);
  cache_path_ = std::move(cache_path);
  loaded_ = false;
  states_.clear();
  index_.clear();
  cached_.clear();
  explored_ = 0;
}

// --- scopes -----------------------------------------------------------------

ScopedTune::ScopedTune(std::optional<bool> enable) noexcept
    : saved_(t_tune_override) {
  if (enable) t_tune_override = enable;
}

ScopedTune::~ScopedTune() { t_tune_override = saved_; }

Phase current_phase() noexcept { return t_scope.phase; }
const Config* current_config() noexcept { return t_scope.cfg; }
const char* current_seed() noexcept { return t_scope.seed; }

double fingerprint_distance(std::string_view a, std::string_view b) noexcept {
  // Fingerprints are `k=v;k=v;...` (fingerprint.hpp). Distance is the
  // sum over shared fields of the doublings separating the two values -
  // cache sizes and core counts compare in log space, triad_log2 is
  // already a log. A field present on one side only (or an unparseable
  // value) costs a flat penalty, so malformed strings rank far away
  // instead of aliasing an exact match.
  constexpr double kMissing = 8.0;
  auto fields = [](std::string_view s) {
    std::vector<std::pair<std::string_view, double>> out;
    while (!s.empty()) {
      const auto semi = s.find(';');
      const std::string_view tok = s.substr(0, semi);
      s = semi == std::string_view::npos ? std::string_view{}
                                        : s.substr(semi + 1);
      const auto eq = tok.find('=');
      if (eq == std::string_view::npos) continue;
      double v = 0;
      bool ok = !tok.substr(eq + 1).empty();
      for (const char c : tok.substr(eq + 1)) {
        if (c < '0' || c > '9') { ok = false; break; }
        v = v * 10 + (c - '0');
      }
      if (ok) out.emplace_back(tok.substr(0, eq), v);
    }
    return out;
  };
  const auto fa = fields(a);
  const auto fb = fields(b);
  if (fa.empty() || fb.empty()) return fa.size() == fb.size() ? 0.0 : 1e9;
  double d = 0;
  std::size_t matched = 0;
  for (const auto& [k, va] : fa) {
    const auto it = std::find_if(fb.begin(), fb.end(),
                                 [&](const auto& p) { return p.first == k; });
    if (it == fb.end()) {
      d += kMissing;
      continue;
    }
    ++matched;
    const double vb = it->second;
    if (k == "triad_log2") {
      d += std::abs(va - vb);
    } else {
      d += std::abs(std::log2(std::max(1.0, va)) -
                    std::log2(std::max(1.0, vb)));
    }
  }
  if (fb.size() > matched)
    d += kMissing * static_cast<double>(fb.size() - matched);
  return d;
}

TunedLaunchParams::TunedLaunchParams(const Site& site,
                                     std::optional<Schedule> schedule,
                                     std::optional<std::size_t> grain)
    : saved_(launch_params()) {
  LaunchParams p = saved_;
  if (schedule) p.schedule = *schedule;
  if (grain) p.grain = *grain;
  auto& tuner = Autotuner::instance();
  if (t_scope.phase == Phase::None && tuner.enabled()) {
    Site s = site;
    // Explicit caller overrides pin the schedule/grain axis.
    if (schedule || grain) s.axes &= ~kScheduleGrain;
    if (s.axes != 0) {
      decision_ = tuner.decide(s);
      if (decision_.phase != Phase::None) {
        if (decision_.config.schedule) p.schedule = *decision_.config.schedule;
        if (decision_.config.grain) p.grain = *decision_.config.grain;
        if (decision_.config.first_touch) {
          // The decided first-touch mode governs allocations made
          // inside the scope (LoopChain temporaries, lazy buffer
          // materialization) via the mem subsystem's thread-local
          // override.
          saved_ft_ = mem::first_touch_override();
          mem::set_first_touch_override(*decision_.config.first_touch);
          ft_set_ = true;
        }
        owns_scope_ = true;
        t_scope = {decision_.phase, &decision_.config, decision_.seeded_from};
        uncaught_ = std::uncaught_exceptions();
        t0_ = std::chrono::steady_clock::now();
      }
    }
  }
  set_launch_params(p);
}

TunedLaunchParams::~TunedLaunchParams() {
  if (ft_set_) mem::set_first_touch_override(saved_ft_);
  if (owns_scope_) {
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
            .count();
    t_scope = {};
    // A scope unwinding through an exception measured a failed launch;
    // feeding it to the race would reward early-throwing configs.
    if (std::uncaught_exceptions() == uncaught_)
      Autotuner::instance().report(decision_, seconds);
  }
  set_launch_params(saved_);
}

}  // namespace syclport::rt::autotune
