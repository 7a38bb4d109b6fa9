#pragma once
/// \file dataflow.hpp
/// Producer/consumer dependence analysis over captured loop footprints:
/// the chain-level mirror of the RAW/WAR/WAW derivation the out-of-order
/// scheduler (sycl/detail/scheduler.hpp) performs per accessor at submit
/// time, lifted to whole par_loops. Each captured loop carries one
/// AccessBox per dat argument and kind - the iteration box inflated by
/// the stencil radii for reads, the box itself for writes (structured
/// kernels write only their own point) - and two loops conflict on a dat
/// only when their boxes actually intersect, so e.g. opposite-face halo
/// loops on the same field stay independent.
///
/// ops::LoopChain uses this to partition a captured chain into segments
/// that are legal to execute as one overlap-tiled fused sweep:
///  - WAR (a later loop writes rows an earlier loop read): overlap
///    re-execution of the earlier loop would re-read already-overwritten
///    rows, so the chain is split at the offending edge;
///  - a reduction terminates its segment: the reducing loop must see
///    every row exactly once, which holds only at zero ghost expansion,
///    i.e. when it is the last loop of its segment;
///  - an RW dat read through a nonzero-radius stencil isolates its loop:
///    the row double-buffer restores exactly the rows a loop re-executes,
///    which covers in-place reads only when they are pointwise;
///  - WAW splits unless both writers tile with the same ghost expansion
///    (no slow read radius strictly after the first writer): with a
///    deeper expansion the first writer re-executes a row in a LATER
///    tile than the second writer's final write and would win the race
///    the program order says it must lose;
///  - RAW (and expansion-equal WAW) are legal inside a segment: tiles
///    run the loops in program order and re-execution is deterministic,
///    with in-place updates healed by the double-buffer.

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/crc32.hpp"

namespace syclport::ops::dataflow {

/// Axis-aligned footprint of one dat access of one captured loop,
/// interior-relative, slowest dimension first (Range layout).
struct AccessBox {
  const void* dat = nullptr;
  std::array<long, 3> lo{0, 0, 0};
  std::array<long, 3> hi{1, 1, 1};
  bool read = false;   ///< box inflated by the stencil radii
  bool write = false;  ///< box is the iteration range itself
  double bytes = 0.0;  ///< unique footprint bytes of the access
};

[[nodiscard]] inline bool boxes_intersect(const AccessBox& a,
                                          const AccessBox& b, int dims) {
  for (int d = 0; d < dims; ++d) {
    const auto i = static_cast<std::size_t>(d);
    if (a.hi[i] <= b.lo[i] || b.hi[i] <= a.lo[i]) return false;
  }
  return true;
}

/// One captured loop, as the partitioner sees it.
struct Node {
  const char* name = "(loop)";
  std::array<long, 3> lo{0, 0, 0};
  std::array<long, 3> hi{1, 1, 1};
  bool reduction = false;
  int radius_slow = 0;     ///< max slow-dim read radius (R and RW args)
  int rw_max_radius = 0;   ///< max stencil radius over RW args (any dim)
  std::vector<AccessBox> acc;
};

/// Segment boundaries of a captured chain: cuts.front() == 0,
/// cuts.back() == nodes.size(); segment k is [cuts[k], cuts[k+1]).
[[nodiscard]] inline std::vector<std::size_t> partition(
    const std::vector<Node>& nodes, int dims) {
  // Inclusive prefix of slow read radii: the ghost expansions of loops
  // i < j differ by rad_pfx[j] - rad_pfx[i] (suffix-sum construction).
  std::vector<int> rad_pfx(nodes.size(), 0);
  for (std::size_t j = 0; j < nodes.size(); ++j)
    rad_pfx[j] = (j ? rad_pfx[j - 1] : 0) + nodes[j].radius_slow;

  std::vector<std::size_t> cuts{0};
  std::size_t seg = 0;
  for (std::size_t j = 1; j < nodes.size(); ++j) {
    bool cut = nodes[j - 1].reduction || nodes[j - 1].rw_max_radius > 0 ||
               nodes[j].rw_max_radius > 0;
    if (!cut) {
      for (const AccessBox& w : nodes[j].acc) {
        if (!w.write || cut) continue;
        for (std::size_t i = seg; i < j && !cut; ++i)
          for (const AccessBox& x : nodes[i].acc) {
            // WAR across the segment always splits; WAW splits unless
            // the expansions match (equal suffix radii), where the
            // later writer's in-tile program order still wins.
            const bool war = x.read && x.dat == w.dat;
            const bool waw = x.write && x.dat == w.dat &&
                             rad_pfx[j] - rad_pfx[i] > 0;
            if ((war || waw) && boxes_intersect(x, w, dims)) {
              cut = true;
              break;
            }
          }
      }
    }
    if (cut) {
      cuts.push_back(j);
      seg = j;
    }
  }
  cuts.push_back(nodes.size());
  return cuts;
}

/// Bytes of the box intersection of two accesses to the same dat,
/// derived from the writer's per-point payload (identical for both
/// sides of a same-dat edge: components x element size).
[[nodiscard]] inline double overlap_bytes(const AccessBox& w,
                                          const AccessBox& x, int dims) {
  double wvol = 1.0, ovol = 1.0;
  for (int d = 0; d < dims; ++d) {
    const auto i = static_cast<std::size_t>(d);
    wvol *= static_cast<double>(std::max(0L, w.hi[i] - w.lo[i]));
    ovol *= static_cast<double>(std::max(
        0L, std::min(w.hi[i], x.hi[i]) - std::max(w.lo[i], x.lo[i])));
  }
  return wvol <= 0.0 ? 0.0 : w.bytes * (ovol / wvol);
}

/// Box-refined bound on the DRAM bytes fusion can eliminate inside
/// segment [b, e): for every dat one loop writes and a later loop reads
/// (before the next overwrite), the writeback + re-read round trip
/// (2 x the overlap of written and read boxes), plus one re-read per
/// additional consumer. Disjoint boxes - opposite-face boundary loops
/// on one field - contribute nothing: those loops may share a segment
/// but fusing them moves no traffic.
[[nodiscard]] inline double internal_edge_bytes(const std::vector<Node>& nodes,
                                                std::size_t b, std::size_t e,
                                                int dims) {
  double sum = 0.0;
  for (std::size_t i = b; i < e; ++i) {
    for (const AccessBox& w : nodes[i].acc) {
      if (!w.write) continue;
      bool consumed = false;
      for (std::size_t j = i + 1; j < e; ++j) {
        bool overwritten = false;
        for (const AccessBox& x : nodes[j].acc) {
          if (x.dat != w.dat) continue;
          if (x.read) {
            const double ov = overlap_bytes(w, x, dims);
            if (ov > 0.0) {
              sum += (consumed ? 1.0 : 2.0) * ov;
              consumed = true;
            }
          }
          if (x.write && boxes_intersect(x, w, dims)) overwritten = true;
        }
        if (overwritten) break;
      }
    }
  }
  return sum;
}

/// Stable per-composition name for a captured chain, the key of its
/// fusion record: "(chain:XXXXXXXX)" where XXXXXXXX is a CRC over the
/// queued loops' kernel names and iteration boxes. Interned (process
/// lifetime) so the pointer can serve as a launch's `const char*`
/// kernel name. Two different compositions never share a name, and the
/// same composition hashes identically across runs.
[[nodiscard]] inline const char* intern_chain_name(
    const std::vector<Node>& nodes) {
  const std::uint32_t n32 = static_cast<std::uint32_t>(nodes.size());
  std::uint32_t crc = crc32_update(0, &n32, sizeof n32);
  for (const Node& nd : nodes) {
    for (const char* c = nd.name; *c != '\0'; ++c)
      crc = crc32_update(crc, c, 1);
    crc = crc32_update(crc, nd.lo.data(), sizeof nd.lo);
    crc = crc32_update(crc, nd.hi.data(), sizeof nd.hi);
  }
  static std::mutex mu;
  static std::unordered_map<std::uint32_t, std::unique_ptr<std::string>> names;
  std::lock_guard lock(mu);
  auto& slot = names[crc];
  if (!slot) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "(chain:%08x)", crc);
    slot = std::make_unique<std::string>(buf);
  }
  return slot->c_str();
}

}  // namespace syclport::ops::dataflow
