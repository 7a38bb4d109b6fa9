#include "op2/plan.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/reducer.hpp"

namespace syclport::op2 {

namespace {

/// OP2-style iterative greedy colouring of `ids` (element or block ids):
/// repeated passes, each pass claims targets first-come-first-served and
/// assigns the pass colour to every claimable element. `targets_of(id)`
/// yields the conflict targets. Returns the number of colours used and
/// fills `colour`.
template <typename TargetsOf>
int greedy_colour(std::size_t n, std::size_t ntargets, TargetsOf&& targets_of,
                  std::vector<int>& colour) {
  colour.assign(n, -1);
  std::vector<unsigned char> claimed(ntargets);
  std::size_t remaining = n;
  int c = 0;
  while (remaining > 0) {
    std::fill(claimed.begin(), claimed.end(), 0);
    for (std::size_t e = 0; e < n; ++e) {
      if (colour[e] >= 0) continue;
      bool free = true;
      targets_of(e, [&](int t) {
        if (claimed[static_cast<std::size_t>(t)]) free = false;
      });
      if (!free) continue;
      targets_of(e, [&](int t) { claimed[static_cast<std::size_t>(t)] = 1; });
      colour[e] = c;
      --remaining;
    }
    ++c;
    if (c > 4096)
      throw std::runtime_error("greedy_colour: colour explosion (bad map?)");
  }
  return c;
}

/// Ownership table of `ranges` contiguous element ranges cut at
/// reduction-block bounds (see Plan).
void build_ownership(const Map& map, std::size_t ranges, Plan& p) {
  const std::size_t n = p.nelems;
  const int arity = map.arity();
  const std::size_t nblocks = (n + kReduceBlock - 1) / kReduceBlock;
  p.range_begin.resize(ranges + 1);
  for (std::size_t r = 0; r <= ranges; ++r)
    p.range_begin[r] = std::min(n, nblocks * r / ranges * kReduceBlock);

  // Ranges are visited in ascending order, so the first to reach a
  // target is the lowest, and its owner is final once the visit sets it.
  p.owner.assign(map.to().size(), -1);
  p.deferred_slots.assign(ranges * static_cast<std::size_t>(arity), 0);
  p.deferred_begin.assign(ranges + 1, 0);
  for (std::size_t r = 0; r < ranges; ++r) {
    p.deferred_begin[r] = p.deferred_elems.size();
    for (std::size_t e = p.range_begin[r]; e < p.range_begin[r + 1]; ++e) {
      bool deferred = false;
      for (int i = 0; i < arity; ++i) {
        int& owner = p.owner[static_cast<std::size_t>(map.at(e, i))];
        if (owner < 0) owner = static_cast<int>(r);
        if (owner != static_cast<int>(r)) {
          ++p.deferred_slots[r * static_cast<std::size_t>(arity) +
                             static_cast<std::size_t>(i)];
          deferred = true;
        }
      }
      if (deferred) p.deferred_elems.push_back(static_cast<int>(e));
    }
  }
  p.deferred_begin[ranges] = p.deferred_elems.size();
}

}  // namespace

Plan build_plan(const Map& map, Strategy strategy, std::size_t block_size,
                std::size_t ranges) {
  Plan p;
  p.strategy = strategy;
  p.nelems = map.from().size();
  p.block_size = block_size;
  const std::size_t ntargets = map.to().size();
  const int arity = map.arity();

  auto elem_targets = [&](std::size_t e, auto&& fn) {
    for (int i = 0; i < arity; ++i) fn(map.at(e, i));
  };

  switch (strategy) {
    case Strategy::Atomics:
      if (ranges > 0) build_ownership(map, ranges, p);
      break;
    case Strategy::None:
    case Strategy::Staged:  // identity order; races resolved by staging
      break;

    case Strategy::GlobalColor: {
      p.ncolours = greedy_colour(p.nelems, ntargets, elem_targets, p.colour);
      p.elements_by_colour.assign(static_cast<std::size_t>(p.ncolours), {});
      for (std::size_t e = 0; e < p.nelems; ++e)
        p.elements_by_colour[static_cast<std::size_t>(p.colour[e])].push_back(
            static_cast<int>(e));
      break;
    }

    case Strategy::Hierarchical: {
      p.nblocks = (p.nelems + block_size - 1) / block_size;
      auto block_targets = [&](std::size_t blk, auto&& fn) {
        const std::size_t b = blk * block_size;
        const std::size_t e_end = std::min(p.nelems, b + block_size);
        for (std::size_t e = b; e < e_end; ++e)
          for (int i = 0; i < arity; ++i) fn(map.at(e, i));
      };
      p.nblock_colours =
          greedy_colour(p.nblocks, ntargets, block_targets, p.block_colour);
      p.blocks_by_colour.assign(static_cast<std::size_t>(p.nblock_colours), {});
      for (std::size_t blk = 0; blk < p.nblocks; ++blk)
        p.blocks_by_colour[static_cast<std::size_t>(p.block_colour[blk])]
            .push_back(static_cast<int>(blk));

      // Intra-block colouring: elements within one block conflict on
      // shared targets; colour each block independently. Per target we
      // track the highest colour used and the block that used it, so no
      // per-block reset pass is needed.
      p.intra_colour.assign(p.nelems, -1);
      std::vector<int> seen_colour(ntargets, -1);
      std::vector<int> seen_block(ntargets, -1);
      for (std::size_t blk = 0; blk < p.nblocks; ++blk) {
        const std::size_t b = blk * block_size;
        const std::size_t e_end = std::min(p.nelems, b + block_size);
        for (std::size_t e = b; e < e_end; ++e) {
          int c = 0;
          for (int i = 0; i < arity; ++i) {
            const auto t = static_cast<std::size_t>(map.at(e, i));
            if (seen_block[t] == static_cast<int>(blk))
              c = std::max(c, seen_colour[t] + 1);
          }
          p.intra_colour[e] = c;
          p.max_intra_colours = std::max(p.max_intra_colours, c + 1);
          for (int i = 0; i < arity; ++i) {
            const auto t = static_cast<std::size_t>(map.at(e, i));
            if (seen_block[t] != static_cast<int>(blk)) {
              seen_block[t] = static_cast<int>(blk);
              seen_colour[t] = c;
            } else {
              seen_colour[t] = std::max(seen_colour[t], c);
            }
          }
        }
      }
      break;
    }
  }
  return p;
}

bool validate_plan(const Plan& plan, const Map& map) {
  const std::size_t ntargets = map.to().size();
  const int arity = map.arity();

  if (plan.strategy == Strategy::GlobalColor) {
    std::vector<int> owner(ntargets, -1);
    for (int c = 0; c < plan.ncolours; ++c) {
      std::fill(owner.begin(), owner.end(), -1);
      for (int e : plan.elements_by_colour[static_cast<std::size_t>(c)]) {
        for (int i = 0; i < arity; ++i) {
          const auto t = static_cast<std::size_t>(
              map.at(static_cast<std::size_t>(e), i));
          if (owner[t] >= 0) return false;  // two same-colour elems share t
          owner[t] = e;
        }
      }
    }
    return true;
  }

  if (plan.strategy == Strategy::Hierarchical) {
    // Same-colour blocks must not share targets.
    std::vector<int> block_of(ntargets, -1);
    for (int c = 0; c < plan.nblock_colours; ++c) {
      std::fill(block_of.begin(), block_of.end(), -1);
      for (int blk : plan.blocks_by_colour[static_cast<std::size_t>(c)]) {
        const std::size_t b = static_cast<std::size_t>(blk) * plan.block_size;
        const std::size_t e_end = std::min(plan.nelems, b + plan.block_size);
        for (std::size_t e = b; e < e_end; ++e)
          for (int i = 0; i < arity; ++i) {
            const auto t = static_cast<std::size_t>(map.at(e, i));
            if (block_of[t] >= 0 && block_of[t] != blk) return false;
            block_of[t] = blk;
          }
      }
    }
    // Within each block, no two elements of the same intra-colour may
    // share a target: record (block, colour) pairs per target.
    {
      std::vector<int> tag_block(ntargets, -1);
      std::vector<std::vector<char>> tag_colours(ntargets);
      for (std::size_t blk = 0; blk < plan.nblocks; ++blk) {
        const std::size_t b = blk * plan.block_size;
        const std::size_t e_end = std::min(plan.nelems, b + plan.block_size);
        for (std::size_t e = b; e < e_end; ++e) {
          const auto c = static_cast<std::size_t>(plan.intra_colour[e]);
          for (int i = 0; i < arity; ++i) {
            const auto t = static_cast<std::size_t>(map.at(e, i));
            if (tag_block[t] != static_cast<int>(blk)) {
              tag_block[t] = static_cast<int>(blk);
              tag_colours[t].assign(
                  static_cast<std::size_t>(plan.max_intra_colours), 0);
            }
            if (tag_colours[t][c]) return false;
            tag_colours[t][c] = 1;
          }
        }
      }
    }
    return true;
  }
  return true;  // atomics: nothing to validate
}

}  // namespace syclport::op2
