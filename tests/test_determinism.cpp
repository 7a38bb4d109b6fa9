// Determinism matrix: every executed reduction and indirect increment
// - and so every app checksum - is bit-identical to the Serial
// backend's, on every parallel backend, schedule and grain. CMake
// registers this binary once per SYCLPORT_THREADS value in
// {1, 2, 4, 8}, so the pool size varies too.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "op2/op2.hpp"
#include "runtime/thread_pool.hpp"
#include "stream/babelstream.hpp"

using namespace syclport;

namespace {

/// ThreadsAtomics is OP2 only: the Threads backend with MG-CFD's
/// default Strategy::Atomics over AoS dats.
enum class Par { Threads, SyclFlat, SyclNd, ThreadsAtomics };

const char* to_string(Par p) {
  switch (p) {
    case Par::Threads: return "Threads";
    case Par::SyclFlat: return "SyclFlat";
    case Par::ThreadsAtomics: return "ThreadsAtomics";
    default: return "SyclNd";
  }
}

struct Sched {
  rt::Schedule schedule;
  std::optional<std::size_t> grain;
};

/// One workload: runs on `par` under `sched`, or - when `sched` is
/// nullopt - the Serial reference for that backend's lowering. Returns
/// the values whose bits must match.
using Runner =
    std::function<std::vector<double>(Par par, const std::optional<Sched>&)>;

struct Workload {
  const char* name;
  Runner run;
  bool op2 = false;  ///< also runs the ThreadsAtomics lowering
};

/// OPS apps: the Serial backend is the reference for every backend.
/// Grids are cut so the inner points of a slow index span more than
/// one reduction block.
Runner ops_app(std::function<double(const ops::Options&)> app) {
  return [app](Par par, const std::optional<Sched>& s) {
    ops::Options opt;
    opt.record = false;
    opt.backend = ops::Backend::Serial;
    if (s) {
      opt.backend = par == Par::Threads    ? ops::Backend::Threads
                    : par == Par::SyclFlat ? ops::Backend::SyclFlat
                                           : ops::Backend::SyclNd;
      opt.schedule = s->schedule;
      opt.grain = s->grain;
    }
    return std::vector<double>{app(opt)};
  };
}

/// OP2 lowerings: Threads takes the staged strategy over SoA dats
/// (element-slot reductions), SyclFlat the global colouring, SyclNd the
/// hierarchical nd_range sweep, ThreadsAtomics the owner-ordered
/// sweep. Each is compared with the Serial execution of the same
/// strategy, the order its increments define.
op2::Options op2_options(Par par, const std::optional<Sched>& s) {
  op2::Options opt;
  opt.record = false;
  opt.exec = !s ? op2::Exec::Serial
             : par == Par::Threads || par == Par::ThreadsAtomics
                 ? op2::Exec::Threads
                 : op2::Exec::Sycl;
  opt.strategy = par == Par::Threads        ? Strategy::Staged
                 : par == Par::SyclFlat     ? Strategy::GlobalColor
                 : par == Par::SyclNd       ? Strategy::Hierarchical
                                            : Strategy::Atomics;
  if (par == Par::Threads) opt.layout = op2::Layout::SoA;
  return opt;
}

std::vector<double> run_mgcfd(Par par, const std::optional<Sched>& s) {
  std::optional<rt::ScopedLaunchParams> scope;
  if (s) scope.emplace(s->schedule, s->grain);
  return {apps::run_mgcfd(op2_options(par, s), apps::mgcfd_small()).checksum};
}

/// An OP2 edge loop scattering `nedges` non-uniform increments into
/// 1500 nodes, with or without global reductions over the same values
/// (MG-CFD's checksum does not read its residual reduction). At 60000
/// edges every node takes 40 increments from all over the edge range:
/// a high-conflict loop. Returns the reductions and every node's sum.
std::vector<double> run_op2_edges(Par par, const std::optional<Sched>& s,
                                  std::size_t nedges, bool with_gbl) {
  std::optional<rt::ScopedLaunchParams> scope;
  if (s) scope.emplace(s->schedule, s->grain);
  op2::Context ctx(op2_options(par, s));
  const std::size_t nn = 1500;
  op2::Set nodes("nodes", nn), edges("edges", nedges);
  op2::Map e2n(edges, nodes, 1, "e2n");
  for (std::size_t e = 0; e < edges.size(); ++e)
    e2n.at(e, 0) = static_cast<int>((e * 7 + 3) % nn);
  op2::Dat<double> w(edges, 1, "w"), acc(nodes, 1, "acc");
  for (std::size_t e = 0; e < edges.size(); ++e)
    w.at(e, 0) = std::sin(0.37 * static_cast<double>(e)) * 1e3;
  if (par == Par::Threads) {
    w.set_layout(op2::Layout::SoA);
    acc.set_layout(op2::Layout::SoA);
  }
  double sum = 0.0, mx = -1e300;
  if (with_gbl) {
    op2::par_loop(
        ctx, {"edge_gbl", 2.0}, edges,
        [](const double* x, op2::Inc<double> a, op2::Reducer<double> r,
           op2::Reducer<double> m) {
          a.add(0, x[0]);
          r += x[0] * 1.0000001;
          m.combine(x[0]);
        },
        op2::arg_direct(w, op2::Acc::R), op2::arg_inc(acc, e2n, 0),
        op2::arg_gbl(sum, op2::RedOp::Sum),
        op2::arg_gbl(mx, op2::RedOp::Max));
  } else {
    op2::par_loop(
        ctx, {"edge_inc", 1.0}, edges,
        [](const double* x, op2::Inc<double> a) { a.add(0, x[0]); },
        op2::arg_direct(w, op2::Acc::R), op2::arg_inc(acc, e2n, 0));
  }
  std::vector<double> out{sum, mx};
  for (std::size_t i = 0; i < nn; ++i) out.push_back(acc.at(i, 0));
  return out;
}

std::vector<Workload> workloads() {
  return {
      {"cloverleaf2d", ops_app([](const ops::Options& o) {
         return apps::run_cloverleaf2d(o, {{12, 1040, 1}, 2}).checksum;
       })},
      {"cloverleaf3d", ops_app([](const ops::Options& o) {
         return apps::run_cloverleaf3d(o, {{6, 10, 110}, 2}).checksum;
       })},
      {"opensbli_sa", ops_app([](const ops::Options& o) {
         return apps::run_opensbli_sa(o, {{8, 10, 110}, 2}).checksum;
       })},
      {"opensbli_sn", ops_app([](const ops::Options& o) {
         return apps::run_opensbli_sn(o, {{8, 10, 110}, 2}).checksum;
       })},
      {"rtm", ops_app([](const ops::Options& o) {
         return apps::run_rtm(o, {{12, 12, 96}, 2}).checksum;
       })},
      {"acoustic", ops_app([](const ops::Options& o) {
         return apps::run_acoustic(o, {{12, 12, 96}, 2}).checksum;
       })},
      {"babelstream_dot", ops_app([](const ops::Options& o) {
         return stream::run(o, 5 * 1024 + 123, 2).checksum;
       })},
      {"mgcfd", run_mgcfd, true},
      {"op2_reductions",
       [](Par par, const std::optional<Sched>& s) {
         return run_op2_edges(par, s, 3000, true);
       },
       true},
      {"op2_conflict",
       [](Par par, const std::optional<Sched>& s) {
         return run_op2_edges(par, s, 60000, false);
       },
       true},
      {"op2_conflict_gbl",
       [](Par par, const std::optional<Sched>& s) {
         return run_op2_edges(par, s, 60000, true);
       },
       true},
  };
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Index of the first value whose bits differ (a.size() if none).
std::size_t first_difference(const std::vector<double>& a,
                             const std::vector<double>& b) {
  std::size_t i = 0;
  while (i < a.size() && i < b.size() &&
         std::memcmp(&a[i], &b[i], sizeof(double)) == 0)
    ++i;
  return i;
}

struct Case {
  Workload workload;
  Par par;
};

// "NdRange" in a test name keeps it out of the TSan preset, which
// cannot follow the work-group fibers (docs/executor.md). OPS nd_range
// kernels are barrier-free, so their groups run on the worker's own
// stack with no fiber and their SyclNd cases stay in the preset. OP2's
// hierarchical sweep calls group barriers, so its nd cases are
// labelled SyclNdRange.
std::string label(const Case& c) {
  return c.par == Par::SyclNd && c.workload.op2 ? "SyclNdRange"
                                                : to_string(c.par);
}

// Readable, stable ctest names (the default prints the raw bytes).
void PrintTo(const Case& c, std::ostream* os) {
  *os << c.workload.name << '/' << label(c);
}

std::vector<Case> cases() {
  std::vector<Case> out;
  for (const Workload& w : workloads()) {
    for (Par par : {Par::Threads, Par::SyclFlat, Par::SyclNd})
      out.push_back({w, par});
    if (w.op2) out.push_back({w, Par::ThreadsAtomics});
  }
  return out;
}

}  // namespace

class Determinism : public ::testing::TestWithParam<Case> {};

TEST_P(Determinism, BitIdenticalToSerial) {
  const auto& [w, par] = GetParam();
  const std::vector<double> ref = w.run(par, std::nullopt);
  ASSERT_FALSE(ref.empty()) << w.name;
  for (double v : ref) ASSERT_TRUE(std::isfinite(v)) << w.name;
  for (rt::Schedule sched :
       {rt::Schedule::Static, rt::Schedule::Dynamic, rt::Schedule::Steal})
    for (std::optional<std::size_t> grain :
         {std::optional<std::size_t>{}, std::optional<std::size_t>{1},
          std::optional<std::size_t>{7}}) {
      const std::vector<double> got = w.run(par, Sched{sched, grain});
      const std::size_t at = first_difference(got, ref);
      EXPECT_TRUE(same_bits(got, ref))
          << w.name << " on " << to_string(par) << ", schedule "
          << rt::to_string(sched) << ", grain "
          << (grain ? std::to_string(*grain) : "default") << ", "
          << rt::ThreadPool::global().size() << " workers: value " << at
          << " is " << std::hexfloat
          << (at < got.size() ? got[at] : 0.0) << " vs Serial "
          << (at < ref.size() ? ref[at] : 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(Apps, Determinism, ::testing::ValuesIn(cases()),
                         [](const auto& ti) {
                           return std::string(ti.param.workload.name) +
                                  "_" + label(ti.param);
                         });
