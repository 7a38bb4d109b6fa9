// Ablation: out-of-order queue scheduling (docs/queue.md).
//
// Two experiments on the miniSYCL DAG scheduler:
//   1. independent - N command groups with disjoint footprints, each
//      emulating a fixed-latency device kernel. An in-order queue pays
//      N back-to-back latencies; the out-of-order queue keeps several
//      in flight, so wall time shrinks toward N/workers. This is the
//      kernel-launch serialization effect the paper discusses for
//      small (boundary) kernels, made measurable.
//   2. chain - the same N commands but RAW-dependent on one buffer.
//      The DAG must serialize them, so the out-of-order queue can win
//      nothing; the per-launch difference against the in-order queue
//      is the pure scheduling overhead of DAG bookkeeping.
//
// The command records in sycl::launch_log provide submit->start
// latency and dependency-edge counts per command.

#include <chrono>
#include <iostream>
#include <thread>
#include <vector>

#include "core/report.hpp"
#include "core/timing.hpp"
#include "sycl/sycl.hpp"

using namespace syclport;

namespace {

constexpr int kKernels = 32;
constexpr std::size_t kElems = 1024;
constexpr auto kKernelLatency = std::chrono::microseconds(500);

/// One emulated small device kernel: fixed latency plus a touch of the
/// command's own buffer (so the footprint is real, not a placebo).
void small_kernel(double* p) {
  std::this_thread::sleep_for(kKernelLatency);
  for (std::size_t i = 0; i < kElems; ++i) p[i] += 1.0;
}

double run_independent(sycl::queue q) {
  std::vector<std::vector<double>> bufs(
      kKernels, std::vector<double>(kElems, 0.0));
  WallTimer t;
  for (int c = 0; c < kKernels; ++c) {
    double* p = bufs[static_cast<std::size_t>(c)].data();
    q.submit([&](sycl::handler& h) {
      h.require(p, sycl::access_mode::read_write);
      h.single_task([p] { small_kernel(p); });
    });
  }
  q.wait();
  return t.seconds();
}

double run_chain(sycl::queue q) {
  std::vector<double> buf(kElems, 0.0);
  double* p = buf.data();
  WallTimer t;
  for (int c = 0; c < kKernels; ++c) {
    q.submit([&](sycl::handler& h) {
      h.require(p, sycl::access_mode::read_write);
      h.single_task([p] { small_kernel(p); });
    });
  }
  q.wait();
  return t.seconds();
}

}  // namespace

int main() {
  std::cout << "=== Ablation: out-of-order queue ===\n\n";
  auto& sched = sycl::detail::Scheduler::instance();
  std::cout << "scheduler workers: " << sched.workers() << "\n\n";

  report::Table t({"section", "queue", "metric", "value"});

  // 1. Independent kernels: the latency-hiding case.
  const sycl::property_list in_order_props{sycl::property::queue::in_order{}};
  const double ind_ordered = run_independent(sycl::queue{in_order_props});

  auto& log = sycl::launch_log::instance();
  log.clear();
  log.set_enabled(true);
  const double ind_ooo = run_independent(sycl::queue{});
  log.set_enabled(false);
  const auto ind_cmds = log.commands_snapshot();
  log.clear();

  double mean_latency = 0.0, mean_edges = 0.0;
  for (const auto& c : ind_cmds) {
    mean_latency += c.profile.start_seconds - c.profile.submit_seconds;
    mean_edges += static_cast<double>(c.profile.dep_edges);
  }
  if (!ind_cmds.empty()) {
    mean_latency /= static_cast<double>(ind_cmds.size());
    mean_edges /= static_cast<double>(ind_cmds.size());
  }
  const double ind_ratio = ind_ooo / ind_ordered;
  t.add_row({"independent", "in_order", "wall_ms",
             report::fmt(ind_ordered * 1e3, 3)});
  t.add_row({"independent", "out_of_order", "wall_ms",
             report::fmt(ind_ooo * 1e3, 3)});
  t.add_row({"independent", "out_of_order", "wall_ratio",
             report::fmt(ind_ratio, 3)});
  t.add_row({"independent", "out_of_order", "submit_to_start_us",
             report::fmt(mean_latency * 1e6, 2)});
  t.add_row({"independent", "out_of_order", "mean_dep_edges",
             report::fmt(mean_edges, 2)});
  std::cout << kKernels << " independent kernels: in-order "
            << report::fmt(ind_ordered * 1e3, 2) << " ms, out-of-order "
            << report::fmt(ind_ooo * 1e3, 2) << " ms (ratio "
            << report::fmt(ind_ratio, 2) << ", target <= 0.7)\n";

  // 2. Dependent chain: DAG bookkeeping overhead per launch.
  const double ch_ordered = run_chain(sycl::queue{in_order_props});

  log.clear();
  log.set_enabled(true);
  const double ch_ooo = run_chain(sycl::queue{});
  log.set_enabled(false);
  const auto ch_cmds = log.commands_snapshot();
  log.clear();

  double ch_edges = 0.0;
  for (const auto& c : ch_cmds)
    ch_edges += static_cast<double>(c.profile.dep_edges);
  if (!ch_cmds.empty()) ch_edges /= static_cast<double>(ch_cmds.size());
  const double overhead_us = (ch_ooo - ch_ordered) / kKernels * 1e6;
  t.add_row({"chain", "in_order", "wall_ms",
             report::fmt(ch_ordered * 1e3, 3)});
  t.add_row({"chain", "out_of_order", "wall_ms",
             report::fmt(ch_ooo * 1e3, 3)});
  t.add_row({"chain", "out_of_order", "sched_overhead_us_per_launch",
             report::fmt(overhead_us, 2)});
  t.add_row({"chain", "out_of_order", "mean_dep_edges",
             report::fmt(ch_edges, 2)});
  std::cout << kKernels << "-deep RAW chain: in-order "
            << report::fmt(ch_ordered * 1e3, 2) << " ms, out-of-order "
            << report::fmt(ch_ooo * 1e3, 2) << " ms ("
            << report::fmt(overhead_us, 2)
            << " us/launch DAG overhead, mean dep edges "
            << report::fmt(ch_edges, 2) << ")\n";

  std::cout << "\n";
  t.render(std::cout);
  if (t.save_csv("ablation_async.csv"))
    std::cout << "\nwrote ablation_async.csv\n";
  std::cout << "(independent kernels overlap across scheduler workers; "
               "dependent chains degenerate to in-order plus bounded "
               "bookkeeping.)\n";
  return 0;
}
