// Determinism matrix: every executed reduction - and so every app
// checksum - is bit-identical to the Serial backend's, on every
// parallel backend, schedule and grain. CMake registers this binary
// once per SYCLPORT_THREADS value in {1, 2, 4, 8}, so the pool size
// varies too.

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

enum class Par { Threads, SyclFlat, SyclNd };

// "NdRange" in a test name keeps it out of the TSan preset, which
// cannot follow the work-group fibers (docs/executor.md).
const char* to_string(Par p) {
  switch (p) {
    case Par::Threads: return "Threads";
    case Par::SyclFlat: return "SyclFlat";
    default: return "SyclNdRange";
  }
}

struct Sched {
  rt::Schedule schedule;
  std::optional<std::size_t> grain;
};

/// One workload: runs on `par` under `sched`, or - when `sched` is
/// nullopt - the Serial reference for that backend's lowering.
using Runner = std::function<double(Par par, const std::optional<Sched>&)>;

struct Workload {
  const char* name;
  Runner run;
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
    return app(opt);
  };
}

/// OP2 lowerings: Threads takes the staged strategy over SoA dats
/// (element-slot reductions), SyclFlat the global colouring, SyclNd the
/// hierarchical nd_range sweep. Each is compared with the Serial
/// execution of the same strategy, the order its increments define.
op2::Options op2_options(Par par, const std::optional<Sched>& s) {
  op2::Options opt;
  opt.record = false;
  opt.exec = !s                  ? op2::Exec::Serial
             : par == Par::Threads ? op2::Exec::Threads
                                   : op2::Exec::Sycl;
  opt.strategy = par == Par::Threads    ? Strategy::Staged
                 : par == Par::SyclFlat ? Strategy::GlobalColor
                                        : Strategy::Hierarchical;
  if (par == Par::Threads) opt.layout = op2::Layout::SoA;
  return opt;
}

double run_mgcfd(Par par, const std::optional<Sched>& s) {
  std::optional<rt::ScopedLaunchParams> scope;
  if (s) scope.emplace(s->schedule, s->grain);
  return apps::run_mgcfd(op2_options(par, s), apps::mgcfd_small()).checksum;
}

/// An OP2 edge loop with both an indirect increment and global
/// reductions over non-uniform data, spanning several reduction blocks
/// (MG-CFD's checksum does not read its residual reduction).
double run_op2_reductions(Par par, const std::optional<Sched>& s) {
  std::optional<rt::ScopedLaunchParams> scope;
  if (s) scope.emplace(s->schedule, s->grain);
  op2::Context ctx(op2_options(par, s));
  const std::size_t nn = 1500;
  op2::Set nodes("nodes", nn), edges("edges", nn * 2);
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
  op2::par_loop(
      ctx, {"edge_gbl", 2.0}, edges,
      [](const double* x, op2::Inc<double> a, op2::Reducer<double> r,
         op2::Reducer<double> m) {
        a.add(0, x[0]);
        r += x[0] * 1.0000001;
        m.combine(x[0]);
      },
      op2::arg_direct(w, op2::Acc::R), op2::arg_inc(acc, e2n, 0),
      op2::arg_gbl(sum, op2::RedOp::Sum), op2::arg_gbl(mx, op2::RedOp::Max));
  return sum + mx;
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
      {"mgcfd", run_mgcfd},
      {"op2_reductions", run_op2_reductions},
  };
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

struct Case {
  Workload workload;
  Par par;
};

// Readable, stable ctest names (the default prints the raw bytes).
void PrintTo(const Case& c, std::ostream* os) {
  *os << c.workload.name << '/' << to_string(c.par);
}

std::vector<Case> cases() {
  std::vector<Case> out;
  for (const Workload& w : workloads())
    for (Par par : {Par::Threads, Par::SyclFlat, Par::SyclNd})
      out.push_back({w, par});
  return out;
}

}  // namespace

class Determinism : public ::testing::TestWithParam<Case> {};

TEST_P(Determinism, BitIdenticalToSerial) {
  const auto& [w, par] = GetParam();
  const double ref = w.run(par, std::nullopt);
  ASSERT_TRUE(std::isfinite(ref)) << w.name;
  for (rt::Schedule sched :
       {rt::Schedule::Static, rt::Schedule::Dynamic, rt::Schedule::Steal})
    for (std::optional<std::size_t> grain :
         {std::optional<std::size_t>{}, std::optional<std::size_t>{1},
          std::optional<std::size_t>{7}}) {
      const double got = w.run(par, Sched{sched, grain});
      EXPECT_TRUE(same_bits(got, ref))
          << w.name << " on " << to_string(par) << ", schedule "
          << rt::to_string(sched) << ", grain "
          << (grain ? std::to_string(*grain) : "default") << ", "
          << rt::ThreadPool::global().size() << " workers: " << std::hexfloat
          << got << " vs Serial " << ref;
    }
}

INSTANTIATE_TEST_SUITE_P(Apps, Determinism, ::testing::ValuesIn(cases()),
                         [](const auto& ti) {
                           return std::string(ti.param.workload.name) +
                                  "_" + to_string(ti.param.par);
                         });
