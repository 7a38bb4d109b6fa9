#pragma once
/// \file op2/checkpoint.hpp
/// Checkpoint/restart for OP2 dats: the unstructured-mesh counterpart
/// of ops/checkpoint.hpp. Snapshot a set of dats into one CRC-tagged
/// file and roll back to it later; rollback-and-recompute reproduces
/// the uncheckpointed answer bit-exactly for deterministic kernels.
///
/// Serialized state is *canonical*: original element order (undoing any
/// renumbering the set accumulated) in AoS component order, whatever
/// the dats' current physical layout. A checkpoint taken under one
/// (ordering, layout) therefore restores bit-identically into a mesh
/// running under any other - renumbering and relayout decisions never
/// leak into saved state (docs/unstructured.md).
/// Regions are keyed by dat name; format and validation live in
/// rt::fault::Snapshot.

#include <string>
#include <tuple>
#include <vector>

#include "op2/context.hpp"
#include "op2/dat.hpp"
#include "runtime/fault/checkpoint.hpp"

namespace syclport::op2 {

/// Snapshot `dats` to `path` (atomic write; see Snapshot::save).
template <typename... Ts>
void checkpoint(Context& ctx, const std::string& path, Dat<Ts>&... dats) {
  ctx.queue.wait();
  rt::fault::Snapshot snap;
  auto canon = std::make_tuple(dats.canonical_values()...);
  std::apply(
      [&](auto&... vs) {
        (snap.add(dats.name(), vs.data(), vs.size() * sizeof(Ts)), ...);
      },
      canon);
  snap.save(path);
}

/// Roll `dats` back to the state saved at `path`. All-or-nothing:
/// throws rt::fault::checkpoint_error leaving every dat untouched when
/// the file is damaged or does not match the registered dats.
template <typename... Ts>
void restore(Context& ctx, const std::string& path, Dat<Ts>&... dats) {
  ctx.queue.wait();
  rt::fault::Snapshot snap;
  // Stage the file into canonical-order buffers first (sized, and left
  // untouched on a failed restore), then scatter into the dats' current
  // layout/ordering.
  auto canon = std::make_tuple(dats.canonical_values()...);
  std::apply(
      [&](auto&... vs) {
        (snap.add(dats.name(), vs.data(), vs.size() * sizeof(Ts)), ...);
      },
      canon);
  snap.restore(path);
  std::apply([&](auto&... vs) { (dats.assign_canonical(vs), ...); }, canon);
}

}  // namespace syclport::op2
