#pragma once
/// \file launch_log.hpp
/// Instrumentation of kernel launches. Every queue submission appends a
/// launch_record when logging is enabled; the OPS/OP2 DSLs and the
/// hardware model read these records to learn the actually-used
/// work-group shape (flat launches record local=nullopt - the shape is
/// then *chosen by the modeled compiler runtime*, which is exactly the
/// flat-vs-nd_range effect the paper studies).
///
/// The out-of-order scheduler additionally appends one command_record
/// per asynchronous command group, carrying submit/start/end
/// timestamps and the number of dependency edges derived at submit -
/// the per-kernel scheduling overhead the paper discusses, made
/// measurable (bench/ablation_async.cpp).
///
/// Five record kinds in all: launch and command records, plus the
/// fusion and locality records the OPS/OP2 DSLs append and the
/// process-wide memory and fault telemetry read through the log.
///
/// Thread safety: kernels of independent command groups execute
/// concurrently on scheduler workers, so every record path takes the
/// log mutex; the enabled() fast path is a lock-free atomic load so
/// disabled logging costs the hot path nothing.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "runtime/autotune/config.hpp"
#include "runtime/fault/fault.hpp"
#include "runtime/mem/mem.hpp"
#include "runtime/thread_pool.hpp"
#include "sycl/detail/scheduler.hpp"

namespace sycl {

struct launch_record {
  std::string kernel_name;
  int dims = 1;
  std::array<std::size_t, 3> global{1, 1, 1};
  std::optional<std::array<std::size_t, 3>> local;  ///< nullopt for flat
  bool used_barrier = false;
  bool reduction = false;
  double host_seconds = 0.0;  ///< host wall time of the functional run
  /// Executor counters of the launch (schedule used, chunk count, steal
  /// activity); lets bench reports separate scheduling overhead from
  /// kernel time. Zero chunks for single_task.
  syclport::rt::LaunchStats executor{};
  /// How the autotuner served this launch: None when tuning is off or
  /// the site is not tunable, Exploring while a search candidate ran,
  /// Exploiting once the winner is locked in. tune_config is the
  /// serving Config's wire rendering ("" for None) - together these
  /// make warm-run verification ("zero explored launches") a log query.
  syclport::rt::autotune::Phase tune_phase =
      syclport::rt::autotune::Phase::None;
  std::string tune_config;
  /// Transfer-seed provenance: the key of the already-tuned site (plus
  /// "@fingerprint" for a cross-machine donor) that seeded this site's
  /// search pool; "" for a full (unseeded) search.
  std::string tune_seed;
  /// True when the launch took the streaming path: every written
  /// accessor was discard_write, so the executor pinned the
  /// placement-preserving static schedule (unless the tuner overrode
  /// it).
  bool streaming = false;
};

/// One asynchronous command group as the scheduler saw it.
struct command_record {
  std::string name;
  std::uint64_t queue_id = 0;
  detail::CommandProfile profile;  ///< timestamps + dep_edges + pool use
};

/// One fused-chain execution as ops::LoopChain saw it: how the captured
/// dataflow was partitioned and how much DRAM round-trip traffic the
/// fused schedule eliminated (bench/ablation_fusion and the study
/// report read these; docs/fusion.md).
struct fusion_record {
  std::string chain;             ///< per-composition chain site name
  std::size_t loops = 0;         ///< captured loops
  std::size_t segments = 0;      ///< segments after dataflow partitioning
  std::size_t tile = 0;          ///< slow-dim tile depth used (0 = unfused)
  bool fused = false;            ///< tiled fused path taken
  double fusable_bytes = 0.0;    ///< internal producer->consumer bound
  double eliminated_bytes = 0.0; ///< modeled DRAM bytes eliminated
  double rw_copy_bytes = 0.0;    ///< RW double-buffer save/restore traffic
};

/// One OP2 indirect-loop locality decision: which race-resolution
/// strategy, physical layout and mesh ordering the loop executed with,
/// and the gather line factor the locality analyser measured for that
/// combination next to what the hardware model's reuse-distance curve
/// predicts at LLC capacity. The study report and bench/ablation_layout
/// print these as the per-loop decision table (docs/unstructured.md).
struct locality_record {
  std::string loop;
  std::string strategy;       ///< "atomics" / "global" / ... / "staged"
  std::string layout;         ///< "aos" / "soa" / "aosoa"
  std::string ordering;       ///< "identity" / "rcm" / "hilbert" / ...
  double measured_gather = 1.0;   ///< cold gather line factor (measured)
  double predicted_gather = 1.0;  ///< model interp at host LLC capacity
};

/// Aggregate over the recorded fusion_records.
struct FusionStats {
  std::size_t chains = 0;
  std::size_t fused_chains = 0;
  double fusable_bytes = 0.0;
  double eliminated_bytes = 0.0;
  double rw_copy_bytes = 0.0;
};

/// Distribution summary of a set of timing samples: count, total, mean
/// and the p50/p95/p99 tail percentiles (stats::percentile). The study
/// report prints these columns so tail behaviour is visible next to the
/// means the paper quotes.
struct TimingSummary {
  std::size_t count = 0;
  double total_s = 0.0;
  double mean_s = 0.0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
};

/// Summarize arbitrary samples (seconds) into a TimingSummary.
[[nodiscard]] TimingSummary summarize_timings(
    const std::vector<double>& seconds);

/// Process-wide, thread-safe launch log.
class launch_log {
 public:
  static launch_log& instance();

  void set_enabled(bool on) {
    std::lock_guard lock(mu_);
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  void append(launch_record rec) {
    std::lock_guard lock(mu_);
    if (enabled_.load(std::memory_order_relaxed))
      records_.push_back(std::move(rec));
  }

  void append_command(command_record rec) {
    std::lock_guard lock(mu_);
    if (enabled_.load(std::memory_order_relaxed))
      commands_.push_back(std::move(rec));
  }

  void append_fusion(fusion_record rec) {
    std::lock_guard lock(mu_);
    if (enabled_.load(std::memory_order_relaxed))
      fusions_.push_back(std::move(rec));
  }

  void append_locality(locality_record rec) {
    std::lock_guard lock(mu_);
    if (enabled_.load(std::memory_order_relaxed))
      localities_.push_back(std::move(rec));
  }

  [[nodiscard]] std::vector<launch_record> snapshot() const {
    std::lock_guard lock(mu_);
    return records_;
  }

  [[nodiscard]] std::vector<command_record> commands_snapshot() const {
    std::lock_guard lock(mu_);
    return commands_;
  }

  [[nodiscard]] std::vector<fusion_record> fusions_snapshot() const {
    std::lock_guard lock(mu_);
    return fusions_;
  }

  [[nodiscard]] std::vector<locality_record> localities_snapshot() const {
    std::lock_guard lock(mu_);
    return localities_;
  }

  [[nodiscard]] FusionStats fusion_stats() const {
    std::lock_guard lock(mu_);
    FusionStats fs;
    for (const fusion_record& r : fusions_) {
      fs.chains += 1;
      fs.fused_chains += r.fused ? 1 : 0;
      fs.fusable_bytes += r.fusable_bytes;
      fs.eliminated_bytes += r.eliminated_bytes;
      fs.rw_copy_bytes += r.rw_copy_bytes;
    }
    return fs;
  }

  /// p50/p95/p99 summary over host_seconds of every recorded launch.
  [[nodiscard]] TimingSummary timing_summary() const;

  /// Same, split per kernel site (name-sorted) - the study report's
  /// per-kernel tail-latency table.
  [[nodiscard]] std::vector<std::pair<std::string, TimingSummary>>
  kernel_timing_summaries() const;

  void clear() {
    std::lock_guard lock(mu_);
    records_.clear();
    commands_.clear();
    fusions_.clear();
    localities_.clear();
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mu_);
    return records_.size();
  }

  [[nodiscard]] std::size_t commands_size() const {
    std::lock_guard lock(mu_);
    return commands_.size();
  }

  /// Allocation/page-placement telemetry alongside the launch records:
  /// pool hit rate, bytes first-touched, huge-page coverage, streaming
  /// fill/copy traffic (cumulative process-wide counters from the
  /// rt::mem subsystem).
  [[nodiscard]] static syclport::rt::mem::MemStats memory_stats() {
    return syclport::rt::mem::stats();
  }

  /// Fault-injection/recovery telemetry alongside the launch records:
  /// per-site injected and recovered counts (all zero unless
  /// SYCLPORT_FAULT armed a plan; docs/resilience.md). Chaos runs and
  /// the study report read this to prove every injected fault was
  /// survived.
  [[nodiscard]] static syclport::rt::fault::FaultStats fault_stats() {
    return syclport::rt::fault::stats();
  }

 private:
  launch_log() = default;
  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  std::vector<launch_record> records_;
  std::vector<command_record> commands_;
  std::vector<fusion_record> fusions_;
  std::vector<locality_record> localities_;
};

}  // namespace sycl
