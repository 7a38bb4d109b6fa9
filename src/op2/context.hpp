#pragma once
/// \file context.hpp
/// OP2 execution context: race-resolution strategy, execution backend,
/// plan cache, and the recorded loop profiles.

#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "core/types.hpp"
#include "hwmodel/loop_profile.hpp"
#include "op2/layout.hpp"
#include "op2/locality.hpp"
#include "op2/plan.hpp"
#include "runtime/env.hpp"
#include "sycl/sycl.hpp"

namespace syclport::op2 {

enum class Exec : std::uint8_t {
  Serial,   ///< reference execution, one element at a time
  Threads,  ///< thread-pool sweeps (OpenMP-like / MPI-rank-local)
  Sycl,     ///< sweeps routed through the miniSYCL queue
};

enum class Mode : std::uint8_t { Execute, ModelOnly };

struct Options {
  Exec exec = Exec::Threads;
  Mode mode = Mode::Execute;
  bool record = true;
  Strategy strategy = Strategy::Atomics;  ///< for indirect-increment loops
  std::size_t block_size = 256;           ///< hierarchical block size
  std::size_t wg = 256;                   ///< work-group size for Sycl exec
  /// Wave width for locality measurement (sub_group of the modeled GPU).
  std::size_t wave = 64;
  /// Staged lowering: elements per gather/compute tile. Sized so one
  /// tile's operand scratch (a few dats x dim x 8 bytes x tile) stays
  /// L1/L2-resident while a super-tile of nthreads tiles is in flight.
  std::size_t stage_tile = 96;
  /// Physical layout the app should give its mesh dats (apps apply it
  /// to the dats they create, e.g. run_mgcfd); nullopt keeps the
  /// process default (SYCLPORT_LAYOUT or AoS). Non-AoS dats route
  /// their loops through the staged lowering.
  std::optional<Layout> layout;
  /// Online autotuner override for this context's loops: true/false
  /// forces tuning on/off regardless of SYCLPORT_TUNE; nullopt defers
  /// to the env mode. See docs/tuning.md.
  std::optional<bool> tune;
};

/// SYCLPORT_INDIRECT overrides the app's default race-resolution
/// strategy for indirect-increment loops (docs/unstructured.md);
/// nullopt when unset or invalid.
[[nodiscard]] inline std::optional<Strategy> strategy_from_env() {
  static constexpr std::array<std::string_view, 4> kNames = {
      "atomics", "global", "hierarchical", "staged"};
  static constexpr std::array<Strategy, 4> kValues = {
      Strategy::Atomics, Strategy::GlobalColor, Strategy::Hierarchical,
      Strategy::Staged};
  if (const auto idx = rt::env::get_choice("SYCLPORT_INDIRECT", kNames))
    return kValues[*idx];
  return std::nullopt;
}

class Context {
 public:
  explicit Context(Options o) : opt(o) {
    if (const auto s = strategy_from_env()) opt.strategy = *s;
  }
  Context() : Context(Options{}) {}

  Options opt;
  sycl::queue queue;
  std::vector<hw::LoopProfile> profiles;
  void clear_profiles() { profiles.clear(); }

  [[nodiscard]] bool executing() const { return opt.mode == Mode::Execute; }

  /// Plan for resolving conflicts through `map` under `strategy`
  /// (default: the context's); built once and cached. Staged shares the
  /// Atomics plan - both execute elements in identity order, staging
  /// resolves the races in scratch rather than by colouring. `ranges`
  /// > 0 asks for the Atomics ownership table of that many ranges.
  [[nodiscard]] const Plan& plan_for(const Map& map) {
    return plan_for(map, opt.strategy);
  }
  [[nodiscard]] const Plan& plan_for(const Map& map, Strategy strategy,
                                     std::size_t ranges = 0) {
    if (strategy == Strategy::Staged) strategy = Strategy::Atomics;
    const auto key = std::make_tuple(static_cast<const void*>(&map),
                                     strategy, opt.block_size, ranges);
    auto it = plans_.find(key);
    if (it == plans_.end())
      it = plans_
               .emplace(key, std::make_unique<Plan>(build_plan(
                                 map, strategy, opt.block_size, ranges)))
               .first;
    return *it->second;
  }

  /// Cached gather-locality statistics for accessing (dim x elem_bytes)
  /// data in `layout` through `map` in the plan's execution order. A
  /// context miss consults the process-wide memo_gather table, keyed by
  /// the map's content, so each distinct mesh is measured once per
  /// process; each map is hashed at most once per context.
  [[nodiscard]] const GatherStats& gather_for(const Map& map, int dim,
                                              std::size_t elem_bytes,
                                              Layout layout = Layout::AoS) {
    return gather_for(map, dim, elem_bytes, opt.strategy, layout);
  }
  [[nodiscard]] const GatherStats& gather_for(const Map& map, int dim,
                                              std::size_t elem_bytes,
                                              Strategy strategy,
                                              Layout layout) {
    if (strategy == Strategy::Staged) strategy = Strategy::Atomics;
    const auto key = std::make_tuple(static_cast<const void*>(&map),
                                     strategy, opt.block_size, dim,
                                     elem_bytes, layout);
    auto it = gathers_.find(key);
    if (it == gathers_.end()) {
      auto [hash, fresh] = map_hashes_.try_emplace(&map, 0);
      if (fresh) hash->second = map_content_hash(map);
      const GatherKey shared{hash->second,   map.from().size(),
                             map.to().size(), map.arity(),
                             strategy,       opt.block_size,
                             dim,            elem_bytes,
                             layout,         opt.wave};
      it = gathers_
               .emplace(key, memo_gather(shared, [&] {
                          return measure_gather(
                              map, dim, elem_bytes,
                              execution_order(plan_for(map, strategy)),
                              opt.wave, 64.0, layout);
                        }))
               .first;
    }
    return it->second;
  }

 private:
  std::map<std::tuple<const void*, Strategy, std::size_t, std::size_t>,
           std::unique_ptr<Plan>>
      plans_;
  std::map<std::tuple<const void*, Strategy, std::size_t, int, std::size_t,
                      Layout>,
           GatherStats>
      gathers_;
  std::map<const void*, std::uint64_t> map_hashes_;
};

}  // namespace syclport::op2
