#pragma once
/// \file fusion.hpp
/// Default-on capture front end for the structured apps: a FusedScope
/// region records every loop issued through it into a LoopChain and
/// flushes the captured dataflow as fused sweeps (docs/fusion.md).
///
/// The SYCLPORT_FUSION knob selects the policy:
///   on (default)  capture and fuse; hwmodel picks the tile depth per
///                 segment;
///   off           bypass capture entirely - loops run eagerly in
///                 program order, the bit-exact reference schedule.
///
/// A flush() is required before any host-side read of a written dat,
/// pointer swap between captured dats, or checksum - the apps flush
/// once per time step (the natural chain boundary: the step's trailing
/// swap/reduction consumes everything).

#include <exception>
#include <string_view>

#include "ops/loop_chain.hpp"
#include "runtime/env.hpp"

namespace syclport::ops {

/// Parse SYCLPORT_FUSION=on|off: false only for `off` (default on;
/// malformed values warn once and fall back to on, like every
/// SYCLPORT_* knob).
[[nodiscard]] inline bool fusion_enabled() {
  static constexpr std::string_view kAllowed[] = {"on", "off"};
  return rt::env::get_choice("SYCLPORT_FUSION", kAllowed).value_or(0) == 0;
}

class FusedScope {
 public:
  FusedScope(Context& ctx, Block& block)
      : ctx_(&ctx),
        block_(&block),
        chain_(ctx, block),
        capture_(fusion_enabled()) {}
  FusedScope(const FusedScope&) = delete;
  FusedScope& operator=(const FusedScope&) = delete;
  ~FusedScope() {
    // Flush a forgotten tail capture, but never during the unwind of
    // another exception (the chain clears itself either way).
    if (std::uncaught_exceptions() == 0) flush();
  }

  /// Issue one loop (full interior).
  template <typename K, typename... Args>
  void loop(Meta meta, K kernel, Args... args) {
    loop(meta, Range::all(*block_), kernel, args...);
  }

  /// Issue one loop over an explicit range.
  template <typename K, typename... Args>
  void loop(Meta meta, Range r, K kernel, Args... args) {
    if (capture_)
      chain_.enqueue(meta, r, kernel, args...);
    else
      par_loop(*ctx_, meta, *block_, r, kernel, args...);
  }

  /// Execute everything captured so far as fused segments.
  void flush() {
    if (!capture_ || chain_.size() == 0) return;
    chain_.execute();
    fusable_bytes_ += chain_.last_fusable_bytes();
    eliminated_bytes_ += chain_.last_eliminated_bytes();
  }

  [[nodiscard]] bool capturing() const { return capture_; }
  /// Accumulated over all flushes of this scope.
  [[nodiscard]] double fusable_bytes() const { return fusable_bytes_; }
  [[nodiscard]] double eliminated_bytes() const { return eliminated_bytes_; }

 private:
  Context* ctx_;
  Block* block_;
  LoopChain chain_;
  bool capture_ = false;
  double fusable_bytes_ = 0.0;
  double eliminated_bytes_ = 0.0;
};

}  // namespace syclport::ops
