// Unit and property tests for the OP2 unstructured-mesh DSL: maps,
// plans (global/hierarchical colouring validity, atomics ownership),
// all race-resolution strategies against a serial reference, the
// owner-ordered Threads sweep against Serial's bits, gather-locality
// measurement, renumbering, and LoopProfile recording.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <optional>
#include <random>
#include <stdexcept>
#include <tuple>

#include "op2/op2.hpp"
#include "runtime/thread_pool.hpp"

namespace op2 = syclport::op2;
namespace hw = syclport::hw;
using syclport::Strategy;

namespace {

/// A ring mesh: n vertices, n edges, edge e connects v(e) and v(e+1 mod n).
struct RingMesh {
  op2::Set vertices;
  op2::Set edges;
  op2::Map e2v;

  explicit RingMesh(std::size_t n)
      : vertices("vertices", n), edges("edges", n), e2v(edges, vertices, 2, "e2v") {
    for (std::size_t e = 0; e < n; ++e) {
      e2v.at(e, 0) = static_cast<int>(e);
      e2v.at(e, 1) = static_cast<int>((e + 1) % n);
    }
  }
};

/// A 2D grid mesh (nv = ny*nx vertices, edges connect 4-neighbours).
struct GridMesh {
  op2::Set vertices;
  op2::Set edges;
  op2::Map e2v;

  static std::size_t edge_count(std::size_t ny, std::size_t nx) {
    return ny * (nx - 1) + (ny - 1) * nx;
  }

  GridMesh(std::size_t ny, std::size_t nx)
      : vertices("v", ny * nx),
        edges("e", edge_count(ny, nx)),
        e2v(edges, vertices, 2, "e2v") {
    std::size_t e = 0;
    for (std::size_t j = 0; j < ny; ++j)
      for (std::size_t i = 0; i + 1 < nx; ++i, ++e) {
        e2v.at(e, 0) = static_cast<int>(j * nx + i);
        e2v.at(e, 1) = static_cast<int>(j * nx + i + 1);
      }
    for (std::size_t j = 0; j + 1 < ny; ++j)
      for (std::size_t i = 0; i < nx; ++i, ++e) {
        e2v.at(e, 0) = static_cast<int>(j * nx + i);
        e2v.at(e, 1) = static_cast<int>((j + 1) * nx + i);
      }
  }
};

op2::Options opts(Strategy s, op2::Exec x = op2::Exec::Threads,
                  std::size_t block = 16) {
  op2::Options o;
  o.strategy = s;
  o.exec = x;
  o.block_size = block;
  return o;
}

/// Reference: serial scatter of edge contributions to vertex sums.
std::vector<double> serial_scatter(const op2::Map& e2v,
                                   const std::vector<double>& edge_w) {
  std::vector<double> out(e2v.to().size(), 0.0);
  for (std::size_t e = 0; e < e2v.from().size(); ++e) {
    out[static_cast<std::size_t>(e2v.at(e, 0))] += edge_w[e];
    out[static_cast<std::size_t>(e2v.at(e, 1))] -= edge_w[e];
  }
  return out;
}

}  // namespace

TEST(Map, CheckRejectsOutOfRange) {
  op2::Set a("a", 4), b("b", 3);
  op2::Map m(a, b, 1, "m");
  m.at(2, 0) = 5;
  EXPECT_THROW(m.check(), std::out_of_range);
  m.at(2, 0) = 2;
  EXPECT_NO_THROW(m.check());
}

TEST(Plan, GlobalColouringValidOnRing) {
  RingMesh mesh(10);
  const auto plan = op2::build_plan(mesh.e2v, Strategy::GlobalColor);
  EXPECT_TRUE(op2::validate_plan(plan, mesh.e2v));
  // A ring of even length is 2-colourable; odd needs 3.
  EXPECT_EQ(plan.ncolours, 2);
  std::size_t total = 0;
  for (const auto& c : plan.elements_by_colour) total += c.size();
  EXPECT_EQ(total, 10u);
}

TEST(Plan, GlobalColouringOddRingNeedsThree) {
  RingMesh mesh(11);
  const auto plan = op2::build_plan(mesh.e2v, Strategy::GlobalColor);
  EXPECT_TRUE(op2::validate_plan(plan, mesh.e2v));
  EXPECT_EQ(plan.ncolours, 3);
}

TEST(Plan, HierarchicalValidOnGrid) {
  GridMesh mesh(12, 12);
  const auto plan = op2::build_plan(mesh.e2v, Strategy::Hierarchical, 16);
  EXPECT_TRUE(op2::validate_plan(plan, mesh.e2v));
  EXPECT_EQ(plan.nblocks, (mesh.edges.size() + 15) / 16);
  EXPECT_GT(plan.nblock_colours, 0);
  EXPECT_GT(plan.max_intra_colours, 0);
  // Every element must have an intra colour.
  for (std::size_t e = 0; e < plan.nelems; ++e)
    EXPECT_GE(plan.intra_colour[e], 0);
}

TEST(Plan, PropertyRandomMeshesColourValidly) {
  std::mt19937 rng(42);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t nv = 40 + static_cast<std::size_t>(rng() % 60);
    const std::size_t ne = 2 * nv;
    op2::Set verts("v", nv), edges("e", ne);
    op2::Map e2v(edges, verts, 2, "e2v");
    for (std::size_t e = 0; e < ne; ++e) {
      const int a = static_cast<int>(rng() % nv);
      int b = static_cast<int>(rng() % nv);
      if (b == a) b = (b + 1) % static_cast<int>(nv);
      e2v.at(e, 0) = a;
      e2v.at(e, 1) = b;
    }
    for (Strategy s : {Strategy::GlobalColor, Strategy::Hierarchical}) {
      const auto plan = op2::build_plan(e2v, s, 8);
      EXPECT_TRUE(op2::validate_plan(plan, e2v)) << "trial " << trial;
    }
  }
}

class StrategySweep
    : public ::testing::TestWithParam<std::tuple<Strategy, op2::Exec>> {};

TEST_P(StrategySweep, ScatterMatchesSerialReference) {
  const auto [strategy, exec] = GetParam();
  GridMesh mesh(20, 20);
  std::vector<double> weights(mesh.edges.size());
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (auto& w : weights) w = dist(rng);

  op2::Context ctx(opts(strategy, exec));
  op2::Dat<double> ew(mesh.edges, 1, "w");
  op2::Dat<double> vsum(mesh.vertices, 1, "sum");
  for (std::size_t e = 0; e < weights.size(); ++e) ew.at(e) = weights[e];

  op2::par_loop(ctx, {"scatter", 2.0}, mesh.edges,
                [](const double* w, op2::Inc<double> v0, op2::Inc<double> v1) {
                  v0.add(0, w[0]);
                  v1.add(0, -w[0]);
                },
                op2::arg_direct(ew, op2::Acc::R),
                op2::arg_inc(vsum, mesh.e2v, 0),
                op2::arg_inc(vsum, mesh.e2v, 1));

  const auto ref = serial_scatter(mesh.e2v, weights);
  for (std::size_t v = 0; v < ref.size(); ++v)
    ASSERT_NEAR(vsum.at(v), ref[v], 1e-12) << "vertex " << v;
}

INSTANTIATE_TEST_SUITE_P(
    All, StrategySweep,
    ::testing::Combine(::testing::Values(Strategy::Atomics,
                                         Strategy::GlobalColor,
                                         Strategy::Hierarchical),
                       ::testing::Values(op2::Exec::Serial, op2::Exec::Threads,
                                         op2::Exec::Sycl)),
    [](const auto& ti) {
      std::string name{syclport::to_string(std::get<0>(ti.param))};
      switch (std::get<1>(ti.param)) {
        case op2::Exec::Serial: name += "_serial"; break;
        case op2::Exec::Threads: name += "_threads"; break;
        case op2::Exec::Sycl: name += "_sycl"; break;
      }
      return name;
    });

// --- Ownership: the owner-ordered Threads lowering of Strategy::Atomics ------

namespace {

/// A set of `n` elements mapped to `ntargets` targets with arity
/// `arity`: element e, column i reaches target_of(e, i).
struct MappedSet {
  op2::Set from, to;
  op2::Map map;

  MappedSet(std::size_t n, std::size_t ntargets, int arity,
            const std::function<std::size_t(std::size_t, int)>& target_of)
      : from("from", n), to("to", ntargets), map(from, to, arity, "map") {
    for (std::size_t e = 0; e < n; ++e)
      for (int i = 0; i < arity; ++i)
        map.at(e, i) = static_cast<int>(target_of(e, i) % ntargets);
    map.check();
  }
};

/// Non-uniform per-element values, so the order of the adds shows.
void fill_values(op2::Dat<double>& d) {
  for (std::size_t e = 0; e < d.set().size(); ++e)
    for (int c = 0; c < d.dim(); ++c)
      d.at(e, c) = std::sin(0.37 * static_cast<double>(e) + c) * 1e3;
}

std::vector<double> values(const op2::Dat<double>& d) {
  std::vector<double> out;
  for (std::size_t e = 0; e < d.set().size(); ++e)
    for (int c = 0; c < d.dim(); ++c) out.push_back(d.at(e, c));
  return out;
}

/// Runs `loop` (which sets up its dats and returns their values) on
/// Serial and on Threads, both with Strategy::Atomics, under every
/// schedule, and expects the Threads bits to equal Serial's.
void expect_owner_sweep_matches_serial(
    const std::function<std::vector<double>(op2::Context&)>& loop) {
  op2::Context serial(opts(Strategy::Atomics, op2::Exec::Serial));
  const std::vector<double> ref = loop(serial);
  ASSERT_FALSE(ref.empty());
  for (auto sched : {syclport::rt::Schedule::Static,
                     syclport::rt::Schedule::Dynamic,
                     syclport::rt::Schedule::Steal}) {
    syclport::rt::ScopedLaunchParams scope(sched, std::size_t{1});
    op2::Context threads(opts(Strategy::Atomics, op2::Exec::Threads));
    const std::vector<double> got = loop(threads);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
      ASSERT_EQ(std::memcmp(&got[i], &ref[i], sizeof(double)), 0)
          << "value " << i << " under schedule "
          << syclport::rt::to_string(sched) << ": " << got[i] << " vs "
          << ref[i];
  }
}

/// An edge-style loop over `m`: one INC argument per map column, each
/// adding a column-scaled copy of the element's dim-`dim` value.
std::vector<double> scatter_columns(op2::Context& ctx, MappedSet& m,
                                    int dim) {
  op2::Dat<double> w(m.from, dim, "w"), acc(m.to, dim, "acc");
  fill_values(w);
  const auto add_scaled = [dim](const op2::Inc<double>& a, const double* x,
                                double s) {
    for (int c = 0; c < dim; ++c) a.add(c, s * x[c]);
  };
  if (m.map.arity() == 1) {
    op2::par_loop(ctx, {"scatter1"}, m.from,
                  [&](const double* x, op2::Inc<double> a) {
                    add_scaled(a, x, 1.0);
                  },
                  op2::arg_direct(w, op2::Acc::R), op2::arg_inc(acc, m.map, 0));
  } else if (m.map.arity() == 2) {
    op2::par_loop(ctx, {"scatter2"}, m.from,
                  [&](const double* x, op2::Inc<double> a,
                      op2::Inc<double> b) {
                    add_scaled(a, x, 1.0);
                    add_scaled(b, x, -0.75);
                  },
                  op2::arg_direct(w, op2::Acc::R), op2::arg_inc(acc, m.map, 0),
                  op2::arg_inc(acc, m.map, 1));
  } else {
    op2::par_loop(ctx, {"scatter3"}, m.from,
                  [&](const double* x, op2::Inc<double> a, op2::Inc<double> b,
                      op2::Inc<double> c) {
                    add_scaled(a, x, 1.0);
                    add_scaled(b, x, -0.75);
                    add_scaled(c, x, 0.3);
                  },
                  op2::arg_direct(w, op2::Acc::R), op2::arg_inc(acc, m.map, 0),
                  op2::arg_inc(acc, m.map, 1), op2::arg_inc(acc, m.map, 2));
  }
  return values(acc);
}

/// Every element reaches targets spread over the whole target set, so
/// every range but the first defers most of its increments.
std::size_t high_conflict(std::size_t e, int i) {
  return e * 7 + 3 + static_cast<std::size_t>(i) * 389;
}

}  // namespace

TEST(Ownership, TableNamesTheLowestRangeAndCountsTheRest) {
  MappedSet m(5000, 700, 2, high_conflict);
  for (std::size_t ranges : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    const auto plan = op2::build_plan(m.map, Strategy::Atomics, 256, ranges);
    ASSERT_EQ(plan.ranges(), ranges);
    EXPECT_EQ(plan.range_begin.front(), 0u);
    EXPECT_EQ(plan.range_begin.back(), m.from.size());
    std::vector<int> lowest(m.to.size(), -1);
    std::vector<std::size_t> slots(ranges * 2, 0);
    std::vector<int> elems;
    for (std::size_t r = 0; r < ranges; ++r) {
      EXPECT_TRUE(plan.range_begin[r] % syclport::kReduceBlock == 0);
      for (std::size_t e = plan.range_begin[r]; e < plan.range_begin[r + 1];
           ++e)
        for (int i = 0; i < 2; ++i) {
          auto& l = lowest[static_cast<std::size_t>(m.map.at(e, i))];
          if (l < 0) l = static_cast<int>(r);
        }
    }
    EXPECT_EQ(plan.owner, lowest) << ranges << " ranges";
    std::size_t deferred = 0;
    for (std::size_t s : plan.deferred_slots) deferred += s;
    if (ranges == 1) EXPECT_EQ(deferred, 0u);
    else EXPECT_GT(deferred, 0u);
  }
}

TEST(Ownership, FewerElementsThanRangesLeavesRangesEmpty) {
  MappedSet m(3, 4, 2, [](std::size_t e, int i) {
    return e + static_cast<std::size_t>(i);
  });
  const auto plan = op2::build_plan(m.map, Strategy::Atomics, 256, 8);
  std::size_t empty = 0;
  for (std::size_t r = 0; r < plan.ranges(); ++r)
    empty += plan.range_begin[r] == plan.range_begin[r + 1] ? 1 : 0;
  EXPECT_EQ(empty, 7u);
  expect_owner_sweep_matches_serial(
      [&](op2::Context& ctx) { return scatter_columns(ctx, m, 1); });
}

TEST(Ownership, RestrictShapedArityOneMap) {
  // Fine nodes (i, j, k) of a 12 x 10 x 40 box onto the coarse node
  // (i/2, j/2, k/2), as mg_restrict does between multigrid levels.
  const std::size_t ni = 12, nj = 10, nk = 40;
  MappedSet m(ni * nj * nk, (ni / 2) * (nj / 2) * (nk / 2), 1,
              [=](std::size_t n, int) {
                const std::size_t i = n / (nj * nk), j = n / nk % nj,
                                  k = n % nk;
                return ((i / 2) * (nj / 2) + j / 2) * (nk / 2) + k / 2;
              });
  expect_owner_sweep_matches_serial(
      [&](op2::Context& ctx) { return scatter_columns(ctx, m, 5); });
}

TEST(Ownership, ArityThreeMap) {
  MappedSet m(6000, 997, 3, high_conflict);
  expect_owner_sweep_matches_serial(
      [&](op2::Context& ctx) { return scatter_columns(ctx, m, 1); });
}

TEST(Ownership, SelfLoopEdges) {
  // Every fifth edge has both ends on one node.
  MappedSet m(6000, 1500, 2, [](std::size_t e, int i) {
    return e % 5 == 0 ? e * 7 + 3 : high_conflict(e, i);
  });
  expect_owner_sweep_matches_serial(
      [&](op2::Context& ctx) { return scatter_columns(ctx, m, 1); });
}

TEST(Ownership, TwoIncArgsOnOneMapColumn) {
  MappedSet m(6000, 1500, 2, high_conflict);
  expect_owner_sweep_matches_serial([&](op2::Context& ctx) {
    op2::Dat<double> w(m.from, 1, "w"), acc(m.to, 1, "acc");
    fill_values(w);
    op2::par_loop(ctx, {"same_column"}, m.from,
                  [](const double* x, op2::Inc<double> a, op2::Inc<double> b) {
                    a.add(0, x[0]);
                    b.add(0, 0.5 * x[0]);
                  },
                  op2::arg_direct(w, op2::Acc::R), op2::arg_inc(acc, m.map, 1),
                  op2::arg_inc(acc, m.map, 1));
    return values(acc);
  });
}

TEST(Ownership, DimFiveDat) {
  MappedSet m(6000, 1500, 2, high_conflict);
  expect_owner_sweep_matches_serial(
      [&](op2::Context& ctx) { return scatter_columns(ctx, m, 5); });
}

TEST(Ownership, NegativeZeroIncrementsKeepTheirSign) {
  // -0.0 + -0.0 is -0.0 but +0.0 + -0.0 is +0.0: a deferred slot that
  // started at +0.0 would flip the sign of a target Serial leaves at
  // -0.0.
  MappedSet m(6000, 1500, 2, high_conflict);
  expect_owner_sweep_matches_serial([&](op2::Context& ctx) {
    op2::Dat<double> acc(m.to, 1, "acc");
    for (std::size_t t = 0; t < m.to.size(); ++t) acc.at(t) = -0.0;
    op2::par_loop(ctx, {"negative_zero"}, m.from,
                  [](op2::Inc<double> a, op2::Inc<double> b) {
                    a.add(0, -0.0);
                    b.add(0, -0.0);
                  },
                  op2::arg_inc(acc, m.map, 0), op2::arg_inc(acc, m.map, 1));
    EXPECT_TRUE(std::signbit(acc.at(0)));
    return values(acc);
  });
}

TEST(Ownership, PoolOfSizeOne) {
  // Launches from a ScopedSerialExecution run as on a one-worker pool:
  // one range owns every target and nothing is deferred.
  MappedSet m(6000, 1500, 2, high_conflict);
  syclport::rt::ScopedSerialExecution one_worker;
  expect_owner_sweep_matches_serial(
      [&](op2::Context& ctx) { return scatter_columns(ctx, m, 5); });
}

TEST(ParLoop, DirectLoopAllStrategiesIdentical) {
  RingMesh mesh(100);
  for (Strategy s :
       {Strategy::Atomics, Strategy::GlobalColor, Strategy::Hierarchical}) {
    op2::Context ctx(opts(s));
    op2::Dat<double> x(mesh.edges, 2, "x");
    for (std::size_t e = 0; e < 100; ++e) {
      x.at(e, 0) = 1.0;
      x.at(e, 1) = 2.0;
    }
    op2::par_loop(ctx, {"double_it", 2.0}, mesh.edges,
                  [](double* v) {
                    v[0] *= 2.0;
                    v[1] *= 3.0;
                  },
                  op2::arg_direct(x, op2::Acc::RW));
    EXPECT_DOUBLE_EQ(x.sum(), 100.0 * (2.0 + 6.0));
  }
}

TEST(ParLoop, IndirectReadGather) {
  RingMesh mesh(50);
  op2::Context ctx(opts(Strategy::Atomics));
  op2::Dat<double> vval(mesh.vertices, 1, "v");
  op2::Dat<double> ediff(mesh.edges, 1, "d");
  for (std::size_t v = 0; v < 50; ++v) vval.at(v) = static_cast<double>(v);
  op2::par_loop(ctx, {"diff", 1.0}, mesh.edges,
                [](double* d, const double* a, const double* b) {
                  d[0] = b[0] - a[0];
                },
                op2::arg_direct(ediff, op2::Acc::W),
                op2::arg_indirect(vval, mesh.e2v, 0, op2::Acc::R),
                op2::arg_indirect(vval, mesh.e2v, 1, op2::Acc::R));
  // All edges have diff 1 except the wrap-around edge (0 - 49 = -49).
  EXPECT_DOUBLE_EQ(ediff.sum(), 49.0 * 1.0 - 49.0);
}

TEST(ParLoop, FollowsTheAmbientLaunchParams) {
  // An op2 loop takes no launch scope of its own: on every lowering its
  // kernel runs under the process schedule, which it leaves unchanged.
  namespace rt = syclport::rt;
  const std::size_t n = 200;
  RingMesh mesh(n);
  for (const op2::Exec x :
       {op2::Exec::Serial, op2::Exec::Threads, op2::Exec::Sycl})
    for (const auto sched : {rt::Schedule::Static, rt::Schedule::Dynamic,
                             rt::Schedule::Steal}) {
      const rt::ScopedLaunchParams scope(sched, std::size_t{9});
      op2::Context ctx(opts(Strategy::Atomics, x));
      op2::Dat<double> vval(mesh.vertices, 1, "v");
      op2::Dat<double> ediff(mesh.edges, 1, "d");
      for (std::size_t v = 0; v < n; ++v) vval.at(v) = static_cast<double>(v);
      std::atomic<std::size_t> other{0};
      op2::par_loop(ctx, {"diff", 1.0}, mesh.edges,
                    [&](double* d, const double* a, const double* b) {
                      if (rt::launch_params().schedule != sched)
                        other.fetch_add(1, std::memory_order_relaxed);
                      d[0] = b[0] - a[0];
                    },
                    op2::arg_direct(ediff, op2::Acc::W),
                    op2::arg_indirect(vval, mesh.e2v, 0, op2::Acc::R),
                    op2::arg_indirect(vval, mesh.e2v, 1, op2::Acc::R));
      EXPECT_EQ(other.load(), 0u)
          << "exec " << static_cast<int>(x) << " " << rt::to_string(sched);
      // n - 1 edges of +1 and the wrap-around edge of -(n - 1).
      EXPECT_DOUBLE_EQ(ediff.sum(), 0.0);
      EXPECT_EQ(rt::launch_params().schedule, sched);
      EXPECT_EQ(rt::launch_params().grain, 9u);
    }
}

TEST(ParLoop, GlobalReduction) {
  RingMesh mesh(64);
  op2::Context ctx(opts(Strategy::Atomics));
  op2::Dat<double> w(mesh.edges, 1, "w");
  for (std::size_t e = 0; e < 64; ++e) w.at(e) = 0.5;
  double total = 0.0;
  op2::par_loop(ctx, {"sum", 1.0}, mesh.edges,
                [](const double* v, op2::Reducer<double> r) { r += v[0]; },
                op2::arg_direct(w, op2::Acc::R),
                op2::arg_gbl(total, op2::RedOp::Sum));
  EXPECT_DOUBLE_EQ(total, 32.0);
}

TEST(Profiles, EdgeLoopAccountsDatsMapsOnce) {
  GridMesh mesh(10, 10);
  op2::Context ctx(opts(Strategy::Atomics));
  op2::Dat<double> ew(mesh.edges, 1, "w");
  op2::Dat<double> vres(mesh.vertices, 5, "res");
  op2::par_loop(ctx, {"flux", 30.0}, mesh.edges,
                [](const double* w, op2::Inc<double> a, op2::Inc<double> b) {
                  a.add(0, w[0]);
                  b.add(0, w[0]);
                },
                op2::arg_direct(ew, op2::Acc::R),
                op2::arg_inc(vres, mesh.e2v, 0),
                op2::arg_inc(vres, mesh.e2v, 1));
  ASSERT_EQ(ctx.profiles.size(), 1u);
  const auto& lp = ctx.profiles[0];
  const double ne = static_cast<double>(mesh.edges.size());
  const double nv = static_cast<double>(mesh.vertices.size());
  EXPECT_DOUBLE_EQ(lp.bytes_read, ne * 8 + nv * 5 * 8);   // w + res (INC reads)
  EXPECT_DOUBLE_EQ(lp.bytes_written, nv * 5 * 8);         // res once, not twice
  EXPECT_DOUBLE_EQ(lp.map_bytes, ne * 2 * 4);             // e2v once
  EXPECT_EQ(lp.cls, hw::KernelClass::EdgeFlux);
  EXPECT_EQ(lp.atomic_updates, mesh.edges.size() * 2 * 5);
  EXPECT_EQ(lp.launches, 1u);
  EXPECT_GE(lp.gather_line_factor, 1.0);
}

TEST(Profiles, ColouringIncreasesLaunches) {
  GridMesh mesh(16, 16);
  op2::Dat<double>* dummy = nullptr;
  (void)dummy;
  auto launches_for = [&](Strategy s) {
    op2::Context ctx(opts(s, op2::Exec::Serial, 16));
    op2::Dat<double> ew(mesh.edges, 1, "w");
    op2::Dat<double> vres(mesh.vertices, 1, "r");
    op2::par_loop(ctx, {"flux"}, mesh.edges,
                  [](const double* w, op2::Inc<double> a, op2::Inc<double> b) {
                    a.add(0, w[0]);
                    b.add(0, w[0]);
                  },
                  op2::arg_direct(ew, op2::Acc::R),
                  op2::arg_inc(vres, mesh.e2v, 0),
                  op2::arg_inc(vres, mesh.e2v, 1));
    return ctx.profiles[0].launches;
  };
  EXPECT_EQ(launches_for(Strategy::Atomics), 1u);
  EXPECT_GT(launches_for(Strategy::GlobalColor), 1u);
  EXPECT_GT(launches_for(Strategy::Hierarchical), 1u);
}

TEST(Locality, GlobalColouringScattersGathers) {
  // The paper's Figure-1 narrative quantified: global colouring's
  // execution order must touch many more lines per wave than the
  // natural (atomics) order on a well-ordered mesh.
  GridMesh mesh(64, 64);
  const auto atom_plan = op2::build_plan(mesh.e2v, Strategy::Atomics);
  const auto glob_plan = op2::build_plan(mesh.e2v, Strategy::GlobalColor);
  const auto hier_plan = op2::build_plan(mesh.e2v, Strategy::Hierarchical, 256);
  const auto atom = op2::measure_gather(mesh.e2v, 5, 8,
                                        op2::execution_order(atom_plan));
  const auto glob = op2::measure_gather(mesh.e2v, 5, 8,
                                        op2::execution_order(glob_plan));
  const auto hier = op2::measure_gather(mesh.e2v, 5, 8,
                                        op2::execution_order(hier_plan));
  // On a low-degree structured grid the colour stride is small, so the
  // contrast is modest; MG-CFD's high-degree mesh shows the paper's
  // 11x spread (asserted in test_mgcfd.cpp). Ordering must still hold.
  EXPECT_GT(glob.avg_bytes_per_wave, 1.25 * atom.avg_bytes_per_wave);
  EXPECT_GE(hier.avg_bytes_per_wave, 0.95 * atom.avg_bytes_per_wave);
  EXPECT_LE(hier.avg_bytes_per_wave, glob.avg_bytes_per_wave);
  EXPECT_GT(glob.line_factor, atom.line_factor);
}

TEST(Renumber, OrderingImprovesLocality) {
  // Shuffle a grid mesh's edges, then renumber by min target: locality
  // must recover.
  GridMesh mesh(48, 48);
  std::mt19937 rng(3);
  std::vector<int> shuffle(mesh.edges.size());
  std::iota(shuffle.begin(), shuffle.end(), 0);
  std::shuffle(shuffle.begin(), shuffle.end(), rng);
  op2::permute_map(mesh.e2v, shuffle);

  const auto plan = op2::build_plan(mesh.e2v, Strategy::Atomics);
  const auto before =
      op2::measure_gather(mesh.e2v, 5, 8, op2::execution_order(plan));
  const auto perm = op2::order_by_min_target(mesh.e2v);
  op2::permute_map(mesh.e2v, perm);
  const auto after =
      op2::measure_gather(mesh.e2v, 5, 8, op2::execution_order(plan));
  EXPECT_LT(after.avg_bytes_per_wave, 0.6 * before.avg_bytes_per_wave);
}

TEST(Renumber, PermuteDatFollowsMap) {
  RingMesh mesh(8);
  op2::Dat<double> w(mesh.edges, 1, "w");
  for (std::size_t e = 0; e < 8; ++e) w.at(e) = static_cast<double>(e);
  std::vector<int> perm{7, 6, 5, 4, 3, 2, 1, 0};
  op2::permute_dat(w, perm);
  for (std::size_t e = 0; e < 8; ++e)
    EXPECT_DOUBLE_EQ(w.at(e), static_cast<double>(7 - e));
}

TEST(ModelOnly, RecordsWithoutAllocatingOrRunning) {
  GridMesh mesh(8, 8);
  op2::Options o = opts(Strategy::GlobalColor, op2::Exec::Serial);
  o.mode = op2::Mode::ModelOnly;
  op2::Context ctx(o);
  op2::Dat<double> ew(mesh.edges, 1, "w", /*allocate=*/false);
  op2::Dat<double> vres(mesh.vertices, 1, "r", /*allocate=*/false);
  int calls = 0;
  op2::par_loop(ctx, {"flux"}, mesh.edges,
                [&calls](const double*, op2::Inc<double>, op2::Inc<double>) {
                  ++calls;
                },
                op2::arg_direct(ew, op2::Acc::R),
                op2::arg_inc(vres, mesh.e2v, 0),
                op2::arg_inc(vres, mesh.e2v, 1));
  EXPECT_EQ(calls, 0);
  ASSERT_EQ(ctx.profiles.size(), 1u);
  EXPECT_GT(ctx.profiles[0].launches, 1u);  // colouring still analysed
}

TEST(ParLoop, MismatchedIncMapsRejected) {
  GridMesh mesh(4, 4);
  op2::Map other(mesh.edges, mesh.vertices, 2, "other");
  for (std::size_t e = 0; e < mesh.edges.size(); ++e) {
    other.at(e, 0) = mesh.e2v.at(e, 0);
    other.at(e, 1) = mesh.e2v.at(e, 1);
  }
  op2::Context ctx(opts(Strategy::Atomics));
  op2::Dat<double> vres(mesh.vertices, 1, "r");
  EXPECT_THROW(
      op2::par_loop(ctx, {"bad"}, mesh.edges,
                    [](op2::Inc<double>, op2::Inc<double>) {},
                    op2::arg_inc(vres, mesh.e2v, 0),
                    op2::arg_inc(vres, other, 1)),
      std::invalid_argument);
}

TEST(LoopChain, DirectChainFusesElementWise) {
  // Three direct loops (incl. a global reduction) over one set fuse
  // into a single element-wise sweep: one segment, bit-identical to
  // eager par_loop execution, with the full internal bound eliminated.
  op2::Context ctx(opts(Strategy::Atomics, op2::Exec::Serial));
  op2::Set verts("n", 257);
  op2::Dat<double> x(verts, 1, "x"), y(verts, 1, "y"), z(verts, 1, "z");
  for (std::size_t e = 0; e < verts.size(); ++e)
    x.at(e) = 0.01 * static_cast<double>(e) - 3.0;

  auto scale = [](double* yy, const double* xx) { yy[0] = 2.0 * xx[0] + 1.0; };
  auto combine = [](double* zz, const double* yy, const double* xx) {
    zz[0] = yy[0] * xx[0] - 0.5;
  };
  auto sum = [](const double* zz, op2::Reducer<double> r) { r += zz[0]; };

  y.fill(0.0);
  z.fill(0.0);
  double m0 = 0.0;
  op2::par_loop(ctx, {"scale"}, verts, scale, op2::arg_direct(y, op2::Acc::W),
                op2::arg_direct(x, op2::Acc::R));
  op2::par_loop(ctx, {"combine"}, verts, combine,
                op2::arg_direct(z, op2::Acc::W),
                op2::arg_direct(y, op2::Acc::R),
                op2::arg_direct(x, op2::Acc::R));
  op2::par_loop(ctx, {"mass"}, verts, sum, op2::arg_direct(z, op2::Acc::R),
                op2::arg_gbl(m0, op2::RedOp::Sum));
  const double y0 = y.sum(), z0 = z.sum();

  y.fill(0.0);
  z.fill(0.0);
  double m1 = 0.0;
  op2::LoopChain chain(ctx);
  chain.enqueue({"scale"}, verts, scale, op2::arg_direct(y, op2::Acc::W),
                op2::arg_direct(x, op2::Acc::R));
  chain.enqueue({"combine"}, verts, combine,
                op2::arg_direct(z, op2::Acc::W),
                op2::arg_direct(y, op2::Acc::R),
                op2::arg_direct(x, op2::Acc::R));
  chain.enqueue({"mass"}, verts, sum, op2::arg_direct(z, op2::Acc::R),
                op2::arg_gbl(m1, op2::RedOp::Sum));
  chain.execute();
  EXPECT_EQ(chain.last_segments(), 1u);
  EXPECT_TRUE(chain.last_fused());
  EXPECT_GT(chain.last_eliminated_bytes(), 0.0);
  EXPECT_DOUBLE_EQ(y.sum(), y0);
  EXPECT_DOUBLE_EQ(z.sum(), z0);
  EXPECT_DOUBLE_EQ(m1, m0);
}

TEST(LoopChain, IndirectLoopAndSetChangeSplitSegments) {
  // direct-on-vertices, indirect-on-edges, direct-on-vertices: the
  // indirect loop is not element-local, so the chain runs as three
  // segments and must match eager par_loop execution exactly.
  RingMesh mesh(64);
  op2::Context ctx(opts(Strategy::Atomics, op2::Exec::Serial));
  op2::Dat<double> xv(mesh.vertices, 1, "xv"), we(mesh.edges, 1, "we"),
      sv(mesh.vertices, 1, "sv");
  auto reinit = [&] {
    for (std::size_t v = 0; v < mesh.vertices.size(); ++v)
      xv.at(v) = 0.1 * static_cast<double>(v) - 1.0;
    we.fill(0.0);
    sv.fill(0.0);
  };
  auto sq = [](double* s, const double* x) { s[0] = x[0] * x[0]; };
  auto diff = [](double* e, const double* a, const double* b) {
    e[0] = a[0] - b[0];
  };
  auto acc = [](double* s, const double* x) { s[0] += 0.5 * x[0]; };

  reinit();
  op2::par_loop(ctx, {"sq"}, mesh.vertices, sq,
                op2::arg_direct(sv, op2::Acc::W),
                op2::arg_direct(xv, op2::Acc::R));
  op2::par_loop(ctx, {"diff"}, mesh.edges, diff,
                op2::arg_direct(we, op2::Acc::W),
                op2::arg_indirect(xv, mesh.e2v, 0, op2::Acc::R),
                op2::arg_indirect(xv, mesh.e2v, 1, op2::Acc::R));
  op2::par_loop(ctx, {"acc"}, mesh.vertices, acc,
                op2::arg_direct(sv, op2::Acc::RW),
                op2::arg_direct(xv, op2::Acc::R));
  const double we_ref = we.sum();
  const double sv_ref = sv.sum();

  reinit();
  op2::LoopChain chain(ctx);
  chain.enqueue({"sq"}, mesh.vertices, sq, op2::arg_direct(sv, op2::Acc::W),
                op2::arg_direct(xv, op2::Acc::R));
  chain.enqueue({"diff"}, mesh.edges, diff,
                op2::arg_direct(we, op2::Acc::W),
                op2::arg_indirect(xv, mesh.e2v, 0, op2::Acc::R),
                op2::arg_indirect(xv, mesh.e2v, 1, op2::Acc::R));
  chain.enqueue({"acc"}, mesh.vertices, acc,
                op2::arg_direct(sv, op2::Acc::RW),
                op2::arg_direct(xv, op2::Acc::R));
  chain.execute();
  EXPECT_EQ(chain.last_segments(), 3u);
  EXPECT_DOUBLE_EQ(we.sum(), we_ref);
  EXPECT_DOUBLE_EQ(sv.sum(), sv_ref);
}

TEST(LoopChain, ThrowLeavesChainReusable) {
  // A kernel throw mid-execute clears the queue on unwind; the chain
  // stays usable afterwards.
  op2::Context ctx(opts(Strategy::Atomics, op2::Exec::Serial));
  op2::Set verts("n", 16);
  op2::Dat<double> a(verts, 1, "a"), b(verts, 1, "b");
  a.fill(1.25);
  b.fill(0.0);

  auto twice = [](double* bb, const double* aa) { bb[0] = 2.0 * aa[0]; };
  op2::LoopChain chain(ctx);
  chain.enqueue({"ok"}, verts, twice, op2::arg_direct(b, op2::Acc::W),
                op2::arg_direct(a, op2::Acc::R));
  chain.enqueue({"boom"}, verts,
                [](double* bb, const double* aa) {
                  if (aa[0] != 12345.0)
                    throw std::runtime_error("op2 chain kernel failure");
                  bb[0] = aa[0];
                },
                op2::arg_direct(b, op2::Acc::RW),
                op2::arg_direct(a, op2::Acc::R));
  EXPECT_THROW(chain.execute(), std::runtime_error);
  EXPECT_EQ(chain.size(), 0u);

  chain.enqueue({"ok2"}, verts, twice, op2::arg_direct(b, op2::Acc::W),
                op2::arg_direct(a, op2::Acc::R));
  chain.execute();
  EXPECT_DOUBLE_EQ(b.sum(), 2.0 * a.sum());
}
