// Unit and property tests for the OPS structured-mesh DSL: dat layout,
// par_loop execution across every backend, the row walker that calls
// every kernel, boundary ranges, reductions, tree reduction, and
// LoopProfile recording.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "ops/ops.hpp"
#include "runtime/thread_pool.hpp"

namespace ops = syclport::ops;
namespace hw = syclport::hw;
namespace rt = syclport::rt;

namespace {

ops::Options exec_opts(ops::Backend b) {
  ops::Options o;
  o.backend = b;
  return o;
}

/// All execution backends, for parameterized sweeps.
const std::vector<ops::Backend> kBackends = {
    ops::Backend::Serial,   ops::Backend::Threads, ops::Backend::SyclFlat,
    ops::Backend::SyclNd,   ops::Backend::MPI,     ops::Backend::MPIThreads};

std::string backend_name(ops::Backend b) {
  switch (b) {
    case ops::Backend::Serial: return "Serial";
    case ops::Backend::Threads: return "Threads";
    case ops::Backend::SyclFlat: return "SyclFlat";
    case ops::Backend::SyclNd: return "SyclNd";
    case ops::Backend::MPI: return "MPI";
    case ops::Backend::MPIThreads: return "MPIThreads";
  }
  return "?";
}

}  // namespace

TEST(Dat, LayoutAndStrides) {
  ops::Context ctx(exec_opts(ops::Backend::Serial));
  ops::Block b(ctx, "grid", 2, {4, 6, 1});  // ny=4 (slow), nx=6 (fast)
  ops::Dat<double> d(b, "f", 1, 2);
  EXPECT_EQ(d.stride_fast(), 1);
  EXPECT_EQ(d.stride_mid(), 6 + 4);  // nx + 2*halo
  d.at(0, 0) = 1.0;
  d.at(3, 5) = 2.0;
  d.at(-2, -2) = 3.0;  // halo corner
  EXPECT_DOUBLE_EQ(d.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(d.at(3, 5), 2.0);
  EXPECT_DOUBLE_EQ(d.interior_sum(), 3.0);  // halo values excluded
}

TEST(Dat, MultiComponent) {
  ops::Context ctx(exec_opts(ops::Backend::Serial));
  ops::Block b(ctx, "grid", 2, {3, 3, 1});
  ops::Dat<double> d(b, "vec", 4, 1);
  d.at(1, 1, 0, 2) = 7.0;
  EXPECT_DOUBLE_EQ(d.at(1, 1, 0, 2), 7.0);
  EXPECT_DOUBLE_EQ(d.at(1, 1, 0, 3), 0.0);
  EXPECT_DOUBLE_EQ(d.interior_bytes(), 9.0 * 4 * 8);
}

TEST(Dat, ModelOnlyAllocatesNothing) {
  ops::Options o = exec_opts(ops::Backend::Serial);
  o.mode = ops::Mode::ModelOnly;
  ops::Context ctx(o);
  ops::Block b(ctx, "grid", 3, {7680, 7680, 7680});  // would be ~3.5 TB
  ops::Dat<double> d(b, "huge", 1, 2);
  EXPECT_FALSE(d.allocated());
  EXPECT_EQ(d.alloc_bytes(), 0u);
}

class BackendSweep : public ::testing::TestWithParam<ops::Backend> {};

TEST_P(BackendSweep, PointwiseSaxpy2D) {
  ops::Context ctx(exec_opts(GetParam()));
  ops::Block b(ctx, "grid", 2, {17, 23, 1});  // awkward extents on purpose
  ops::Dat<double> x(b, "x", 1, 1), y(b, "y", 1, 1);
  for (long j = 0; j < 17; ++j)
    for (long i = 0; i < 23; ++i) {
      x.at(j, i) = static_cast<double>(j * 23 + i);
      y.at(j, i) = 1.0;
    }
  ops::par_loop(ctx, {"saxpy", hw::KernelClass::Interior, 2.0}, b,
                ops::Range::all(b),
                [](ops::ACC<double> yy, ops::ACC<double> xx) {
                  yy(0, 0) = 2.0 * xx(0, 0) + yy(0, 0);
                },
                ops::arg(y, ops::S_PT, ops::Acc::RW),
                ops::arg(x, ops::S_PT, ops::Acc::R));
  for (long j = 0; j < 17; ++j)
    for (long i = 0; i < 23; ++i)
      ASSERT_DOUBLE_EQ(y.at(j, i), 2.0 * (j * 23 + i) + 1.0)
          << backend_name(GetParam());
}

TEST_P(BackendSweep, FivePointStencilMatchesSerial) {
  auto run = [&](ops::Backend be) {
    ops::Context ctx(exec_opts(be));
    ops::Block b(ctx, "grid", 2, {12, 15, 1});
    ops::Dat<double> in(b, "in", 1, 1), out(b, "out", 1, 1);
    for (long j = -1; j <= 12; ++j)
      for (long i = -1; i <= 15; ++i)
        in.at(j, i) = std::sin(0.3 * j) + std::cos(0.2 * i);
    ops::par_loop(ctx, {"lap5", hw::KernelClass::Interior, 5.0}, b,
                  ops::Range::all(b),
                  [](ops::ACC<double> o, ops::ACC<double> a) {
                    o(0, 0) = a(0, 0) * -4.0 + a(1, 0) + a(-1, 0) + a(0, 1) +
                              a(0, -1);
                  },
                  ops::arg(out, ops::S_PT, ops::Acc::W),
                  ops::arg(in, ops::S2D_5PT, ops::Acc::R));
    return out.interior_sum();
  };
  EXPECT_NEAR(run(GetParam()), run(ops::Backend::Serial), 1e-9);
}

TEST_P(BackendSweep, ThreeDimensionalStencil) {
  ops::Context ctx(exec_opts(GetParam()));
  ops::Block b(ctx, "grid", 3, {9, 10, 11});
  ops::Dat<float> in(b, "in", 1, 1), out(b, "out", 1, 1);
  for (long k = -1; k <= 9; ++k)
    for (long j = -1; j <= 10; ++j)
      for (long i = -1; i <= 11; ++i)
        in.at(k, j, i) = static_cast<float>(k + 2 * j + 3 * i);
  ops::par_loop(ctx, {"avg7", hw::KernelClass::Interior, 7.0}, b,
                ops::Range::all(b),
                [](ops::ACC<float> o, ops::ACC<float> a) {
                  o(0, 0, 0) = (a(0, 0, 0) + a(1, 0, 0) + a(-1, 0, 0) +
                                a(0, 1, 0) + a(0, -1, 0) + a(0, 0, 1) +
                                a(0, 0, -1)) /
                               7.0f;
                },
                ops::arg(out, ops::S_PT, ops::Acc::W),
                ops::arg(in, ops::S3D_7PT, ops::Acc::R));
  // Interior average of a linear field equals the field itself.
  for (long k = 0; k < 9; ++k)
    for (long j = 0; j < 10; ++j)
      for (long i = 0; i < 11; ++i)
        ASSERT_NEAR(out.at(k, j, i), static_cast<float>(k + 2 * j + 3 * i),
                    1e-3f);
}

TEST_P(BackendSweep, GlobalSumReduction) {
  ops::Context ctx(exec_opts(GetParam()));
  ops::Block b(ctx, "grid", 2, {32, 32, 1});
  ops::Dat<double> f(b, "f", 1, 1);
  for (long j = 0; j < 32; ++j)
    for (long i = 0; i < 32; ++i) f.at(j, i) = 1.0;
  double sum = 0.0;
  ops::par_loop(ctx, {"sum", hw::KernelClass::Reduction, 1.0}, b,
                ops::Range::all(b),
                [](ops::ACC<double> a, ops::Reducer<double> r) {
                  r += a(0, 0);
                },
                ops::arg(f, ops::S_PT, ops::Acc::R),
                ops::reduce(sum, ops::RedOp::Sum));
  EXPECT_DOUBLE_EQ(sum, 1024.0);
}

TEST_P(BackendSweep, MinMaxReduction) {
  ops::Context ctx(exec_opts(GetParam()));
  ops::Block b(ctx, "grid", 1, {1000, 1, 1});
  ops::Dat<double> f(b, "f", 1, 0);
  for (long i = 0; i < 1000; ++i)
    f.at(i) = std::fabs(500.0 - i) + 0.5;  // minimum 0.5 at i=500
  double mn = 1e300, mx = -1e300;
  ops::par_loop(ctx, {"minmax", hw::KernelClass::Reduction, 0.0}, b,
                ops::Range::all(b),
                [](ops::ACC<double> a, ops::Reducer<double> rmin,
                   ops::Reducer<double> rmax) {
                  rmin.combine(a(0));
                  rmax.combine(a(0));
                },
                ops::arg(f, ops::S_PT, ops::Acc::R),
                ops::reduce(mn, ops::RedOp::Min),
                ops::reduce(mx, ops::RedOp::Max));
  EXPECT_DOUBLE_EQ(mn, 0.5);
  EXPECT_DOUBLE_EQ(mx, 500.5);
}

TEST_P(BackendSweep, BoundaryRangeWritesHalo) {
  // A boundary loop that mirrors the first interior column into the
  // halo - the CloverLeaf update_halo pattern.
  ops::Context ctx(exec_opts(GetParam()));
  ops::Block b(ctx, "grid", 2, {8, 8, 1});
  ops::Dat<double> f(b, "f", 1, 2);
  for (long j = 0; j < 8; ++j)
    for (long i = 0; i < 8; ++i) f.at(j, i) = 10.0 + j;
  ops::Range left;
  left.lo = {0, -2, 0};
  left.hi = {8, 0, 1};
  ops::par_loop(ctx, {"halo_left", hw::KernelClass::Boundary, 0.0}, b, left,
                [](ops::ACC<double> a) { a(0, 0) = a(2, 0); },
                ops::arg(f, ops::Stencil{2, 0, 0, 3}, ops::Acc::RW));
  for (long j = 0; j < 8; ++j) {
    EXPECT_DOUBLE_EQ(f.at(j, -1), 10.0 + j);
    // -2 column copied from column 0 via a(2,0) relative to i=-2.
    EXPECT_DOUBLE_EQ(f.at(j, -2), 10.0 + j);
  }
}

namespace {

/// Runs one pointwise loop over a 9 x 13 grid and counts the points
/// whose kernel call saw launch params other than `want`.
std::size_t points_not_seeing(ops::Context& ctx, rt::LaunchParams want) {
  ops::Block b(ctx, "grid", 2, {9, 13, 1});
  ops::Dat<double> f(b, "f", 1, 1);
  std::atomic<std::size_t> seen{0}, other{0};
  ops::par_loop(ctx, {"probe"}, b, ops::Range::all(b),
                [&](ops::ACC<double> a) {
                  const rt::LaunchParams p = rt::launch_params();
                  (p.schedule == want.schedule && p.grain == want.grain
                       ? seen
                       : other)
                      .fetch_add(1, std::memory_order_relaxed);
                  a(0, 0) = 1.0;
                },
                ops::arg(f, ops::S_PT, ops::Acc::W));
  EXPECT_EQ(seen.load() + other.load(), 9u * 13u);
  EXPECT_DOUBLE_EQ(f.interior_sum(), 9.0 * 13.0);
  return other.load();
}

}  // namespace

TEST_P(BackendSweep, OptionsScheduleAndGrainHoldForTheLoopOnly) {
  const rt::LaunchParams before = rt::launch_params();
  const rt::Schedule pinned = before.schedule == rt::Schedule::Static
                                  ? rt::Schedule::Dynamic
                                  : rt::Schedule::Static;
  ops::Options o = exec_opts(GetParam());
  o.schedule = pinned;
  o.grain = before.grain + 47;
  ops::Context ctx(o);
  EXPECT_EQ(points_not_seeing(ctx, {pinned, before.grain + 47}), 0u)
      << backend_name(GetParam());
  EXPECT_EQ(rt::launch_params().schedule, before.schedule);
  EXPECT_EQ(rt::launch_params().grain, before.grain);
}

TEST_P(BackendSweep, UnsetOptionsFollowTheAmbientLaunchParams) {
  // With no Options::schedule/grain the loop, and the SYCL lowerings
  // under it, launch with whatever the process params are.
  rt::ScopedLaunchParams ambient(rt::Schedule::Dynamic, std::size_t{5});
  ops::Context ctx(exec_opts(GetParam()));
  EXPECT_EQ(points_not_seeing(ctx, {rt::Schedule::Dynamic, 5}), 0u)
      << backend_name(GetParam());
  EXPECT_EQ(rt::launch_params().schedule, rt::Schedule::Dynamic);
  EXPECT_EQ(rt::launch_params().grain, 5u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendSweep,
                         ::testing::ValuesIn(kBackends),
                         [](const auto& ti) {
                           return backend_name(ti.param);
                         });

// --- row walker -------------------------------------------------------------

namespace {

/// Awkward extents, so pool chunks at grain 1 or 7 start mid-row and,
/// in 3D, cross plane boundaries.
ops::Block walk_block(ops::Context& ctx, int dims) {
  switch (dims) {
    case 1: return ops::Block(ctx, "line", 1, {37, 1, 1});
    case 2: return ops::Block(ctx, "plane", 2, {5, 13, 1});
    default: return ops::Block(ctx, "box", 3, {4, 5, 6});
  }
}

/// "all": the interior; "halo": every dimension from -2 to one point
/// into the far halo; "fast1": one halo column of the fast dimension.
ops::Range walk_range(const ops::Block& b, const std::string& kind) {
  ops::Range r = ops::Range::all(b);
  const auto fast = static_cast<std::size_t>(b.dims() - 1);
  if (kind == "halo") {
    for (int d = 0; d < b.dims(); ++d) {
      r.lo[static_cast<std::size_t>(d)] = -2;
      r.hi[static_cast<std::size_t>(d)] += 1;
    }
  } else if (kind == "fast1") {
    r.lo[fast] = -1;
    r.hi[fast] = 0;
  }
  return r;
}

/// Distinct values at every stored element, halos included.
void fill_distinct(ops::Dat<double>& d, double scale) {
  const std::size_t n = d.alloc_bytes() / sizeof(double);
  for (std::size_t k = 0; k < n; ++k)
    d.storage()[k] = scale * static_cast<double>(k) + 0.25;
}

bool same_bytes(const ops::Dat<double>& x, const ops::Dat<double>& y) {
  return x.alloc_bytes() == y.alloc_bytes() &&
         std::memcmp(x.storage(), y.storage(), x.alloc_bytes()) == 0;
}

}  // namespace

class RowWalk : public ::testing::TestWithParam<
                    std::tuple<int, std::string, std::size_t>> {};

TEST_P(RowWalk, ThreadsMatchesHostReferenceAndVisitsOnce) {
  const auto& [dims, kind, grain] = GetParam();
  ops::Options o = exec_opts(ops::Backend::Threads);
  o.grain = grain;
  ops::Context ctx(o);
  ops::Block b = walk_block(ctx, dims);
  const ops::Range r = walk_range(b, kind);

  ops::Dat<double> a(b, "a", 1, 2), c(b, "c", 1, 2);
  ops::Dat<double> out(b, "out", 1, 2), hits(b, "hits", 1, 2);
  ops::Dat<double> out_ref(b, "out_ref", 1, 2), hits_ref(b, "hits_ref", 1, 2);
  fill_distinct(a, 0.5);
  fill_distinct(c, -1.75);
  ops::par_loop(ctx, {"walk_axpy"}, b, r,
                [](ops::ACC<double> y, ops::ACC<double> x, ops::ACC<double> z,
                   ops::ACC<double> n) {
                  y(0) = 2.0 * x(0) + z(0);
                  n(0) += 1.0;
                },
                ops::arg(out, ops::S_PT, ops::Acc::W),
                ops::arg(a, ops::S_PT, ops::Acc::R),
                ops::arg(c, ops::S_PT, ops::Acc::R),
                ops::arg(hits, ops::S_PT, ops::Acc::RW));

  for (long i0 = r.lo[0]; i0 < r.hi[0]; ++i0)
    for (long i1 = r.lo[1]; i1 < r.hi[1]; ++i1)
      for (long i2 = r.lo[2]; i2 < r.hi[2]; ++i2) {
        out_ref.at(i0, i1, i2) = 2.0 * a.at(i0, i1, i2) + c.at(i0, i1, i2);
        hits_ref.at(i0, i1, i2) += 1.0;
      }
  EXPECT_TRUE(same_bytes(out, out_ref));
  EXPECT_TRUE(same_bytes(hits, hits_ref));
}

INSTANTIATE_TEST_SUITE_P(
    DimsRangesGrains, RowWalk,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(std::string("all"),
                                         std::string("halo"),
                                         std::string("fast1")),
                       ::testing::Values(std::size_t{1}, std::size_t{7})),
    [](const auto& tc) {
      return std::to_string(std::get<0>(tc.param)) + "d_" +
             std::get<1>(tc.param) + "_grain" +
             std::to_string(std::get<2>(tc.param));
    });

namespace {

/// The element-by-element interior sum through at(), in the loop order
/// interior_sum has always used: slow, mid, fast, then component.
double at_interior_sum(ops::Dat<double>& d) {
  double s = 0.0;
  const ops::Block& b = d.block();
  const int dims = b.dims();
  const auto n0 = static_cast<std::ptrdiff_t>(b.size(0));
  const auto n1 = dims >= 2 ? static_cast<std::ptrdiff_t>(b.size(1)) : 1;
  const auto n2 = dims >= 3 ? static_cast<std::ptrdiff_t>(b.size(2)) : 1;
  for (std::ptrdiff_t x = 0; x < n0; ++x)
    for (std::ptrdiff_t y = 0; y < n1; ++y)
      for (std::ptrdiff_t z = 0; z < n2; ++z)
        for (int comp = 0; comp < d.ncomp(); ++comp)
          s += dims == 1   ? d.at(x, 0, 0, comp)
               : dims == 2 ? d.at(x, y, 0, comp)
                           : d.at(x, y, z, comp);
  return s;
}

}  // namespace

class InteriorSum
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(InteriorSum, BitEqualToAtLoop) {
  const auto& [dims, ncomp, halo] = GetParam();
  ops::Context ctx(exec_opts(ops::Backend::Serial));
  ops::Block b = walk_block(ctx, dims);
  ops::Dat<double> d(b, "f", ncomp, halo);
  // Magnitudes over many binades, so any reordering changes the bits.
  const std::size_t n = d.alloc_bytes() / sizeof(double);
  for (std::size_t k = 0; k < n; ++k)
    d.storage()[k] = std::ldexp(1.0 + 0.37 * static_cast<double>(k % 11),
                                static_cast<int>(k * 7 % 41) - 20);
  const double got = d.interior_sum();
  const double want = at_interior_sum(d);
  EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
      << got << " vs " << want;
}

INSTANTIATE_TEST_SUITE_P(DimsCompsHalos, InteriorSum,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(1, 3),
                                            ::testing::Values(0, 2)),
                         [](const auto& tc) {
                           return std::to_string(std::get<0>(tc.param)) +
                                  "d_ncomp" +
                                  std::to_string(std::get<1>(tc.param)) +
                                  "_halo" +
                                  std::to_string(std::get<2>(tc.param));
                         });

TEST(ParLoop, EmptyRangeIsNoop) {
  ops::Context ctx(exec_opts(ops::Backend::Serial));
  ops::Block b(ctx, "grid", 2, {8, 8, 1});
  ops::Dat<double> f(b, "f", 1, 1);
  ops::Range r = ops::Range::all(b);
  r.hi[0] = r.lo[0];  // empty
  ops::par_loop(ctx, {"noop"}, b, r,
                [](ops::ACC<double> a) { a(0, 0) = 99.0; },
                ops::arg(f, ops::S_PT, ops::Acc::W));
  EXPECT_DOUBLE_EQ(f.interior_sum(), 0.0);
  EXPECT_TRUE(ctx.profiles.empty());
}

TEST(Profiles, FootprintsMatchOpsTransferFormula) {
  ops::Context ctx(exec_opts(ops::Backend::Serial));
  ops::Block b(ctx, "grid", 2, {100, 200, 1});
  ops::Dat<double> in(b, "in", 1, 1), out(b, "out", 1, 1);
  ops::par_loop(ctx, {"lap", hw::KernelClass::Interior, 5.0}, b,
                ops::Range::all(b),
                [](ops::ACC<double> o, ops::ACC<double> a) {
                  o(0, 0) = a(1, 0) + a(-1, 0) + a(0, 1) + a(0, -1);
                },
                ops::arg(out, ops::S_PT, ops::Acc::W),
                ops::arg(in, ops::S2D_5PT, ops::Acc::R));
  ASSERT_EQ(ctx.profiles.size(), 1u);
  const auto& lp = ctx.profiles[0];
  // Read footprint: (100+2)*(200+2) points; write: 100*200.
  EXPECT_DOUBLE_EQ(lp.bytes_read, 102.0 * 202 * 8);
  EXPECT_DOUBLE_EQ(lp.bytes_written, 100.0 * 200 * 8);
  EXPECT_EQ(lp.radius_fast, 1);
  EXPECT_EQ(lp.radius_mid, 1);
  EXPECT_EQ(lp.radius_slow, 0);
  EXPECT_EQ(lp.n_arrays, 2);
  EXPECT_DOUBLE_EQ(lp.flops, 5.0 * 100 * 200);
  EXPECT_EQ(lp.extent[0], 100u);
  EXPECT_EQ(lp.extent[1], 200u);
  EXPECT_EQ(lp.halo_depth, 0);  // not an MPI backend
}

TEST(Profiles, ReadWriteCountsTwice) {
  ops::Context ctx(exec_opts(ops::Backend::Serial));
  ops::Block b(ctx, "grid", 1, {64, 1, 1});
  ops::Dat<double> f(b, "f", 1, 0);
  ops::par_loop(ctx, {"scale"}, b, ops::Range::all(b),
                [](ops::ACC<double> a) { a(0) *= 2.0; },
                ops::arg(f, ops::S_PT, ops::Acc::RW));
  const auto& lp = ctx.profiles[0];
  EXPECT_DOUBLE_EQ(lp.bytes_read, 64.0 * 8);
  EXPECT_DOUBLE_EQ(lp.bytes_written, 64.0 * 8);
  EXPECT_DOUBLE_EQ(lp.total_bytes(), 2.0 * 64 * 8);
}

TEST(Profiles, MpiBackendRecordsHaloNeeds) {
  ops::Options o = exec_opts(ops::Backend::MPI);
  ops::Context ctx(o);
  ops::Block b(ctx, "grid", 3, {16, 16, 16});
  ops::Dat<float> in(b, "in", 1, 4), out(b, "out", 1, 4);
  ops::par_loop(ctx, {"star4"}, b, ops::Range::all(b),
                [](ops::ACC<float> ot, ops::ACC<float> a) {
                  ot(0, 0, 0) = a(4, 0, 0) + a(-4, 0, 0);
                },
                ops::arg(out, ops::S_PT, ops::Acc::W),
                ops::arg(in, ops::star(4, 3), ops::Acc::R));
  const auto& lp = ctx.profiles[0];
  EXPECT_EQ(lp.halo_depth, 4);
  EXPECT_DOUBLE_EQ(lp.halo_point_bytes, 4.0);  // one FP32 dat exchanged
}

TEST(Profiles, ModelOnlyRecordsWithoutExecuting) {
  ops::Options o = exec_opts(ops::Backend::SyclNd);
  o.mode = ops::Mode::ModelOnly;
  ops::Context ctx(o);
  ops::Block b(ctx, "grid", 2, {7680, 7680, 1});
  ops::Dat<double> f(b, "f", 1, 2);
  int calls = 0;
  ops::par_loop(ctx, {"never_runs"}, b, ops::Range::all(b),
                [&calls](ops::ACC<double>) { ++calls; },
                ops::arg(f, ops::S_PT, ops::Acc::W));
  EXPECT_EQ(calls, 0);
  ASSERT_EQ(ctx.profiles.size(), 1u);
  EXPECT_DOUBLE_EQ(ctx.profiles[0].bytes_written, 7680.0 * 7680 * 8);
}

TEST(Profiles, ReductionLoopClassified) {
  ops::Context ctx(exec_opts(ops::Backend::Serial));
  ops::Block b(ctx, "grid", 1, {8, 1, 1});
  ops::Dat<double> f(b, "f", 1, 0);
  double s = 0.0;
  ops::par_loop(ctx, {"r"}, b, ops::Range::all(b),
                [](ops::ACC<double> a, ops::Reducer<double> r) { r += a(0); },
                ops::arg(f, ops::S_PT, ops::Acc::R),
                ops::reduce(s, ops::RedOp::Sum));
  EXPECT_EQ(ctx.profiles[0].reduction, hw::ReductionKind::BuiltIn);
  EXPECT_EQ(ctx.profiles[0].cls, hw::KernelClass::Reduction);
}

TEST(TreeReduction, SumMatchesSerial) {
  sycl::queue q;
  std::vector<double> data(1000);
  double expect = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = 0.5 * static_cast<double>(i);
    expect += data[i];
  }
  double result = 0.0;
  ops::tree_reduce(q, data.data(), data.size(), 0.0, sycl::plus<double>{},
                   &result, 64);
  EXPECT_NEAR(result, expect, 1e-9);
}

TEST(TreeReduction, MinWithPadding) {
  sycl::queue q;
  std::vector<double> data(777, 5.0);
  data[400] = -3.0;
  double result = 1e300;
  ops::tree_reduce(q, data.data(), data.size(), 1e300,
                   sycl::minimum<double>{}, &result, 32);
  EXPECT_DOUBLE_EQ(result, -3.0);
}

TEST(TreeReduction, VariousWorkGroupSizes) {
  sycl::queue q;
  std::vector<double> data(512, 1.0);
  for (std::size_t wg : {1u, 2u, 8u, 64u, 256u}) {
    double result = 0.0;
    ops::tree_reduce(q, data.data(), data.size(), 0.0, sycl::plus<double>{},
                     &result, wg);
    EXPECT_DOUBLE_EQ(result, 512.0) << "wg=" << wg;
  }
}

TEST(SyclBackends, LaunchLogSeesFlatVsNd) {
  auto& log = sycl::launch_log::instance();
  log.clear();
  log.set_enabled(true);
  {
    ops::Context ctx(exec_opts(ops::Backend::SyclFlat));
    ops::Block b(ctx, "grid", 2, {16, 16, 1});
    ops::Dat<double> f(b, "f", 1, 1);
    ops::par_loop(ctx, {"k"}, b, ops::Range::all(b),
                  [](ops::ACC<double> a) { a(0, 0) = 1.0; },
                  ops::arg(f, ops::S_PT, ops::Acc::W));
  }
  {
    ops::Options o = exec_opts(ops::Backend::SyclNd);
    o.nd_local = {1, 4, 8};
    ops::Context ctx(o);
    ops::Block b(ctx, "grid", 2, {16, 16, 1});
    ops::Dat<double> f(b, "f", 1, 1);
    ops::par_loop(ctx, {"k"}, b, ops::Range::all(b),
                  [](ops::ACC<double> a) { a(0, 0) = 1.0; },
                  ops::arg(f, ops::S_PT, ops::Acc::W));
  }
  log.set_enabled(false);
  auto recs = log.snapshot();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_FALSE(recs[0].local.has_value());
  ASSERT_TRUE(recs[1].local.has_value());
  EXPECT_EQ((*recs[1].local)[0], 4u);
  EXPECT_EQ((*recs[1].local)[1], 8u);
  log.clear();
}

TEST(SyclNd, MaskedPaddingDoesNotWriteOutOfRange) {
  ops::Options o = exec_opts(ops::Backend::SyclNd);
  o.nd_local = {1, 4, 64};  // pads 10x13 heavily
  ops::Context ctx(o);
  ops::Block b(ctx, "grid", 2, {10, 13, 1});
  ops::Dat<double> f(b, "f", 1, 2);
  ops::par_loop(ctx, {"fill"}, b, ops::Range::all(b),
                [](ops::ACC<double> a) { a(0, 0) = 1.0; },
                ops::arg(f, ops::S_PT, ops::Acc::W));
  EXPECT_DOUBLE_EQ(f.interior_sum(), 130.0);
  // Halo must remain untouched.
  EXPECT_DOUBLE_EQ(f.at(-1, -1), 0.0);
  EXPECT_DOUBLE_EQ(f.at(10, 13), 0.0);
}
