#include "op2/locality.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <mutex>
#include <unordered_set>

#include "op2/plan.hpp"

namespace syclport::op2 {

GatherStats measure_gather(const Map& map, int dat_dim,
                           std::size_t elem_bytes,
                           const std::vector<int>& order, std::size_t wave,
                           double line_bytes, Layout layout) {
  GatherStats gs;
  if (order.empty()) return gs;
  const std::size_t payload = static_cast<std::size_t>(dat_dim) * elem_bytes;
  const auto line = static_cast<std::size_t>(line_bytes);
  const std::size_t ntargets = map.to().size();
  const auto dim = static_cast<std::size_t>(dat_dim);

  // Lines target t's components occupy under the dat's physical layout.
  auto touch_lines = [&](int t, auto&& fn) {
    if (layout == Layout::AoS) {
      const std::size_t first = static_cast<std::size_t>(t) * payload;
      for (std::size_t b = first / line; b <= (first + payload - 1) / line;
           ++b)
        fn(b);
      return;
    }
    for (std::size_t c = 0; c < dim; ++c) {
      const std::size_t slot = layout_index(
          layout, static_cast<std::size_t>(t), c, ntargets, dim);
      fn(slot * elem_bytes / line);
    }
  };

  double total_line_bytes = 0.0;
  double total_ideal_bytes = 0.0;
  std::size_t nwaves = 0;
  // The per-wave line set stays a hash set: its iteration order sets
  // the reuse clock below, so the modelled factor_at depends on it.
  std::unordered_set<std::size_t> lines;
  // Unique targets of the current wave: target t is counted once when
  // its stamp is not yet the wave's (waves stamp 1, 2, ...).
  std::vector<std::size_t> target_wave(ntargets, 0);

  // Reuse-distance bookkeeping: per line, the value of the traffic
  // clock at its last touch; a touch with (clock - last) beyond a cache
  // capacity is a miss for that capacity (recency approximates stack
  // distance for streaming access patterns). A line never touched was
  // touched infinitely long ago: a miss at every capacity.
  const std::size_t nlines =
      (layout_slots(layout, ntargets, dim) * elem_bytes + line - 1) / line;
  std::vector<double> last_touch(nlines,
                                 -std::numeric_limits<double>::infinity());
  double clock = 0.0;
  std::array<double, hw::kGatherCachePoints.size()> miss_bytes{};

  for (std::size_t w = 0; w < order.size(); w += wave) {
    const std::size_t end = std::min(order.size(), w + wave);
    lines.clear();
    std::size_t wave_targets = 0;
    for (std::size_t i = w; i < end; ++i) {
      const auto e = static_cast<std::size_t>(order[i]);
      for (int m = 0; m < map.arity(); ++m) {
        const int t = map.at(e, m);
        std::size_t& stamp = target_wave[static_cast<std::size_t>(t)];
        if (stamp != nwaves + 1) {
          stamp = nwaves + 1;
          ++wave_targets;
        }
        touch_lines(t, [&](std::size_t b) { lines.insert(b); });
      }
    }
    // Per-wave line touches feed the reuse profile: one touch per
    // unique line per wave (intra-wave duplicates coalesce in the MSHR).
    for (std::size_t b : lines) {
      double& last = last_touch[b];
      for (std::size_t c = 0; c < hw::kGatherCachePoints.size(); ++c) {
        if (clock - last > hw::kGatherCachePoints[c])
          miss_bytes[c] += line_bytes;
      }
      last = clock;
      clock += line_bytes;
    }
    total_line_bytes += static_cast<double>(lines.size()) * line_bytes;
    total_ideal_bytes += static_cast<double>(wave_targets * payload);
    ++nwaves;
  }

  gs.avg_bytes_per_wave = total_line_bytes / static_cast<double>(nwaves);
  gs.ideal_bytes_per_wave = total_ideal_bytes / static_cast<double>(nwaves);

  // Unique footprint over the whole sweep: every referenced target once.
  std::vector<char> referenced(ntargets, 0);
  std::size_t unique_targets = 0;
  for (int e : order)
    for (int m = 0; m < map.arity(); ++m) {
      char& seen = referenced[static_cast<std::size_t>(
          map.at(static_cast<std::size_t>(e), m))];
      unique_targets += seen == 0 ? 1 : 0;
      seen = 1;
    }
  const double unique_bytes = static_cast<double>(unique_targets * payload);
  if (unique_bytes > 0.0) {
    gs.line_factor = std::max(1.0, total_line_bytes / unique_bytes);
    for (std::size_t c = 0; c < hw::kGatherCachePoints.size(); ++c)
      gs.factor_at[c] = std::max(1.0, miss_bytes[c] / unique_bytes);
  }
  return gs;
}

std::uint64_t map_content_hash(const Map& map) {
  // splitmix64's finaliser folded over the entries, two per word.
  auto mix = [](std::uint64_t x) {
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  };
  const std::size_t n =
      map.from().size() * static_cast<std::size_t>(map.arity());
  const int* data = map.row(0);
  auto entry = [&](std::size_t i) -> std::uint64_t {
    return static_cast<std::uint32_t>(data[i]);
  };
  std::uint64_t h = mix(n);
  std::size_t i = 0;
  for (; i + 1 < n; i += 2) h = mix(h + (entry(i) << 32 | entry(i + 1)));
  if (i < n) h = mix(h + entry(i));
  return h;
}

namespace {

struct GatherMemo {
  std::mutex mu;
  std::map<GatherKey, GatherStats> entries;
};

GatherMemo& gather_memo() {
  static GatherMemo memo;
  return memo;
}

}  // namespace

GatherStats memo_gather(const GatherKey& key,
                        const std::function<GatherStats()>& measure) {
  GatherMemo& memo = gather_memo();
  {
    const std::lock_guard lock(memo.mu);
    if (const auto it = memo.entries.find(key); it != memo.entries.end())
      return it->second;
  }
  // Measure unlocked: threads racing on one key compute equal stats,
  // and the first to finish publishes them.
  const GatherStats gs = measure();
  const std::lock_guard lock(memo.mu);
  return memo.entries.emplace(key, gs).first->second;
}

std::size_t gather_memo_entries() {
  GatherMemo& memo = gather_memo();
  const std::lock_guard lock(memo.mu);
  return memo.entries.size();
}

std::vector<int> execution_order(const Plan& plan) {
  std::vector<int> order;
  order.reserve(plan.nelems);
  switch (plan.strategy) {
    case Strategy::GlobalColor:
      for (const auto& elems : plan.elements_by_colour)
        order.insert(order.end(), elems.begin(), elems.end());
      break;
    case Strategy::Hierarchical:
      // Within a block, work-items execute one intra-colour per barrier
      // phase, so a GPU wave sees same-colour (strided) edges - this
      // is what degrades hierarchical locality below atomics while
      // keeping it far better than global colouring (paper §4.3).
      for (const auto& blocks : plan.blocks_by_colour)
        for (int blk : blocks) {
          const std::size_t b = static_cast<std::size_t>(blk) * plan.block_size;
          const std::size_t e_end = std::min(plan.nelems, b + plan.block_size);
          for (int c = 0; c < plan.max_intra_colours; ++c)
            for (std::size_t e = b; e < e_end; ++e)
              if (plan.intra_colour[e] == c)
                order.push_back(static_cast<int>(e));
        }
      break;
    default:
      for (std::size_t e = 0; e < plan.nelems; ++e)
        order.push_back(static_cast<int>(e));
      break;
  }
  return order;
}

}  // namespace syclport::op2
