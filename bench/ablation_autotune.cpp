// Ablation: online autotuner vs hand-set launch parameters
// (docs/tuning.md).
//
// The paper's conclusion (§4.4) is that the winning schedule /
// work-group shape is per-kernel and per-platform, so any fixed choice
// leaves performance behind somewhere. The runtime's answer is the
// online autotuner: launch sites race a prior-seeded candidate set via
// successive halving and persist the winner under a device
// fingerprint. This bench quantifies the whole story on one
// bandwidth-bound stencil sweep:
//
//   1. hand-set     - the sweep pinned to each schedule in turn
//                     (tuning off), the baseline a careful user reaches
//                     with env vars;
//   2. cold tuned   - same sweep with tuning on and an empty cache:
//                     per-iteration times trace the convergence curve,
//                     and the steady state must be no slower than the
//                     best hand-set schedule (the acceptance check);
//   3. warm tuned   - tuner reset against the cache written by (2), as
//                     a process restart would see it: the launch log
//                     must show zero Exploring launches;
//   4. bookkeeping  - scheduler overhead per launch on a RAW-dependent
//                     chain of trivial commands, in-order vs
//                     out-of-order, i.e. the cost of the pooled-Command
//                     DAG machinery that times every tuned launch.
//
// Emits ablation_autotune.csv (summary + convergence curve) next to
// the binary like the other ablations.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "core/timing.hpp"
#include "ops/ops.hpp"
#include "runtime/autotune/autotune.hpp"
#include "sycl/sycl.hpp"

using namespace syclport;
namespace ops = syclport::ops;
namespace at = syclport::rt::autotune;

namespace {

constexpr std::size_t kN = 768;       // 768^2 doubles x 2 dats = 9 MiB
constexpr int kColdIters = 480;       // enough to drain any race here
                                      // (schedule x grain x cache block)
constexpr const char* kCache = "ablation_autotune.cache.json";

/// One bandwidth-bound 5-point sweep b = lap(a) over an n x n block.
struct Sweep {
  ops::Context ctx;
  ops::Block grid;
  ops::Dat<double> a, b;

  explicit Sweep(const ops::Options& o)
      : ctx(o),
        grid(ctx, "g", 2, {kN, kN, 1}),
        a(grid, "a", 1, 1),
        b(grid, "b", 1, 1) {
    for (long i = -1; i <= static_cast<long>(kN); ++i)
      for (long j = -1; j <= static_cast<long>(kN); ++j)
        a.at(i, j) = 0.01 * static_cast<double>(i - j);
    ctx.opt.record = false;  // profile recording is not under test
  }

  void iterate() {
    ops::par_loop(ctx, {"tune_sweep"}, grid, ops::Range::all(grid),
                  [](ops::ACC<double> out, ops::ACC<double> in) {
                    out(0, 0) = in(0, 0) +
                                0.2 * (in(1, 0) + in(-1, 0) + in(0, 1) +
                                       in(0, -1) - 4.0 * in(0, 0));
                  },
                  ops::arg(b, ops::S_PT, ops::Acc::W),
                  ops::arg(a, ops::S2D_5PT, ops::Acc::R));
  }

  /// The tuning site ops::par_loop derives for this sweep, for
  /// querying the tuner's verdict. Flat 2D non-reduction sweeps race
  /// the cache-blocked traversal too.
  [[nodiscard]] static at::Site site() {
    at::Site s;
    s.name = "tune_sweep";
    s.dims = 2;
    s.global = {kN, kN, 1};
    s.axes = at::kScheduleGrain | at::kCacheBlock;
    return s;
  }
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Steady-state ms/iteration with tuning off and `sched` pinned.
double hand_set_ms(rt::Schedule sched) {
  ops::Options o;
  o.backend = ops::Backend::Threads;
  o.tune = false;
  o.schedule = sched;
  Sweep s(o);
  for (int i = 0; i < 5; ++i) s.iterate();
  std::vector<double> t;
  for (int i = 0; i < 15; ++i) {
    WallTimer w;
    s.iterate();
    t.push_back(w.seconds());
  }
  return median(t) * 1e3;
}

/// Trivial RAW chain, the ablation_async bookkeeping experiment on the
/// pooled-Command scheduler: per-launch overhead of deferred submission
/// over immediate in-order execution.
double chain_overhead_us() {
  constexpr int kLaunches = 256;
  std::vector<double> buf(64, 0.0);
  double* p = buf.data();
  auto run = [&](sycl::queue q) {
    WallTimer t;
    for (int c = 0; c < kLaunches; ++c) {
      q.submit([&](sycl::handler& h) {
        h.require(p, sycl::access_mode::read_write);
        h.single_task([p] { p[0] += 1.0; });
      });
    }
    q.wait();
    return t.seconds();
  };
  const sycl::property_list in_order{sycl::property::queue::in_order{}};
  run(sycl::queue{in_order});  // warm both paths (pool, workers)
  run(sycl::queue{});
  std::vector<double> ordered, ooo;
  for (int rep = 0; rep < 7; ++rep) {
    ordered.push_back(run(sycl::queue{in_order}));
    ooo.push_back(run(sycl::queue{}));
  }
  return (median(ooo) - median(ordered)) / kLaunches * 1e6;
}

}  // namespace

int main() {
  std::cout << "=== Ablation: online autotuner vs hand-set schedules ===\n\n";
  report::Table t({"experiment", "config", "metric", "value"});

  // 1. Hand-set baselines: the best a static env-var choice achieves.
  std::cout << "-- hand-set schedules (tuning off) --\n";
  double best_hand_ms = 1e30;
  std::string best_hand;
  rt::Schedule best_hand_sched = rt::Schedule::Static;
  for (const auto sched : {rt::Schedule::Static, rt::Schedule::Dynamic,
                           rt::Schedule::Steal}) {
    const double ms = hand_set_ms(sched);
    std::cout << "  " << rt::to_string(sched) << ": " << report::fmt(ms, 3)
              << " ms/iter\n";
    t.add_row({"hand_set", rt::to_string(sched), "ms_per_iter",
               report::fmt(ms, 4)});
    if (ms < best_hand_ms) {
      best_hand_ms = ms;
      best_hand = rt::to_string(sched);
      best_hand_sched = sched;
    }
  }

  // 2. Cold tuned run: empty cache, trace the convergence curve.
  std::remove(kCache);
  auto& tuner = at::Autotuner::instance();
  tuner.reset(at::Autotuner::Mode::On, /*fingerprint=*/"", kCache);

  std::cout << "\n-- cold tuned run (" << kColdIters << " iters) --\n";
  ops::Options tuned_opt;
  tuned_opt.backend = ops::Backend::Threads;
  tuned_opt.tune = true;
  Sweep tuned(tuned_opt);
  std::vector<double> iter_ms;
  std::vector<std::uint64_t> explored_at;
  int converged_iter = -1;
  for (int i = 0; i < kColdIters; ++i) {
    WallTimer w;
    tuned.iterate();
    iter_ms.push_back(w.seconds() * 1e3);
    explored_at.push_back(tuner.explored_launches());
    if (converged_iter < 0 && tuner.converged(Sweep::site()))
      converged_iter = i;
  }
  const std::uint64_t explored = tuner.explored_launches();
  const auto winner = tuner.best(Sweep::site());
  const std::string winner_str = winner ? winner->to_string() : "(none)";

  // Steady state vs the best hand-set schedule under one protocol:
  // interleaved best-of-rounds, so OS timeslicing and thermal drift
  // hit both sides alike. The tuned side still pays its per-launch
  // decide()/report() on every iteration.
  ops::Options best_opt;
  best_opt.backend = ops::Backend::Threads;
  best_opt.tune = false;
  best_opt.schedule = best_hand_sched;
  Sweep hand(best_opt);
  hand.iterate();
  double tuned_ms = 1e30;
  best_hand_ms = 1e30;
  for (int round = 0; round < 5; ++round) {
    std::vector<double> tt, th;
    for (int i = 0; i < 15; ++i) {
      WallTimer w;
      tuned.iterate();
      tt.push_back(w.seconds());
    }
    for (int i = 0; i < 15; ++i) {
      WallTimer w;
      hand.iterate();
      th.push_back(w.seconds());
    }
    tuned_ms = std::min(tuned_ms, median(tt) * 1e3);
    best_hand_ms = std::min(best_hand_ms, median(th) * 1e3);
  }

  std::cout << "  converged after " << converged_iter << " iterations, "
            << explored << " explored launches\n"
            << "  winner: " << winner_str << "\n"
            << "  steady state " << report::fmt(tuned_ms, 3)
            << " ms/iter vs best hand-set (" << best_hand << ") "
            << report::fmt(best_hand_ms, 3) << " ms/iter (ratio "
            << report::fmt(tuned_ms / best_hand_ms, 3)
            << ", target <= 1.05)\n";
  t.add_row({"cold_tuned", winner_str, "ms_per_iter",
             report::fmt(tuned_ms, 4)});
  t.add_row({"cold_tuned", winner_str, "converged_iter",
             std::to_string(converged_iter)});
  t.add_row({"cold_tuned", winner_str, "explored_launches",
             std::to_string(explored)});
  t.add_row({"cold_tuned", winner_str, "vs_best_hand_ratio",
             report::fmt(tuned_ms / best_hand_ms, 4)});

  // 3. Warm run: a fresh tuner against the just-written cache must
  // serve every launch from the winner - zero Exploring records. Run
  // through the SyclFlat backend so every launch lands in the launch
  // log (Threads-backend sweeps bypass the miniSYCL queue); the site
  // key is the same, so the cache written by (2) serves it.
  tuner.reset(at::Autotuner::Mode::On, "", kCache);
  auto& log = sycl::launch_log::instance();
  log.clear();
  log.set_enabled(true);
  ops::Options warm_opt = tuned_opt;
  warm_opt.backend = ops::Backend::SyclFlat;
  Sweep warm(warm_opt);
  for (int i = 0; i < 10; ++i) warm.iterate();
  log.set_enabled(false);
  std::size_t exploring = 0, exploiting = 0;
  for (const auto& rec : log.snapshot()) {
    if (rec.tune_phase == at::Phase::Exploring) ++exploring;
    if (rec.tune_phase == at::Phase::Exploiting) ++exploiting;
  }
  log.clear();
  std::cout << "\n-- warm run (cache reload) --\n  " << exploring
            << " exploring / " << exploiting
            << " exploiting launches (target: 0 exploring)\n";
  t.add_row({"warm_tuned", "-", "exploring_launches",
             std::to_string(exploring)});
  t.add_row({"warm_tuned", "-", "exploiting_launches",
             std::to_string(exploiting)});

  // 4. Scheduler bookkeeping with pooled Commands + epoch retirement.
  const double overhead = chain_overhead_us();
  std::cout << "\n-- scheduler bookkeeping (pooled commands) --\n  "
            << report::fmt(overhead, 2) << " us/launch DAG overhead\n";
  t.add_row({"bookkeeping", "raw_chain", "sched_overhead_us_per_launch",
             report::fmt(overhead, 3)});

  // Convergence curve for plotting: per-iteration time and cumulative
  // explored launches.
  for (int i = 0; i < kColdIters; i += 2)
    t.add_row({"curve", std::to_string(i), "ms_per_iter",
               report::fmt(iter_ms[static_cast<std::size_t>(i)], 4)});
  for (int i = 0; i < kColdIters; i += 2)
    t.add_row({"curve", std::to_string(i), "explored_cum",
               std::to_string(explored_at[static_cast<std::size_t>(i)])});

  std::cout << "\n";
  t.render(std::cout);
  if (t.save_csv("ablation_autotune.csv"))
    std::cout << "\nwrote ablation_autotune.csv\n";
  std::remove(kCache);
  std::cout << "(the tuner must converge to a configuration no slower than "
               "the best hand-set schedule, and a warm start must skip the "
               "search entirely.)\n";
  return 0;
}
