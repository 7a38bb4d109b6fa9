// Tests for the lazy dataflow capture with cross-loop fusion
// (ops/loop_chain.hpp + ops/dataflow.hpp): tiled execution must be
// bit-identical to the sequential schedule for stencil chains of any
// depth and every tile size; RW dats are healed by row
// double-buffering, WAR edges and reductions split the chain instead of
// throwing, and a thrown kernel leaves the chain reusable.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <random>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "ops/loop_chain.hpp"
#include "ops/ops.hpp"
#include "runtime/autotune/autotune.hpp"
#include "sycl/launch_log.hpp"

namespace ops = syclport::ops;

namespace {

ops::Options serial() {
  ops::Options o;
  o.backend = ops::Backend::Serial;
  return o;
}

/// A 3-loop producer-consumer chain: b = lap(a); c = lap(b); d = lap(c).
/// Returns the interior sum of d.
double run_chain(std::size_t n, std::size_t tile) {
  ops::Context ctx(serial());
  ops::Block grid(ctx, "g", 2, {n, n, 1});
  ops::Dat<double> a(grid, "a", 1, 1), b(grid, "b", 1, 1), c(grid, "c", 1, 1),
      d(grid, "d", 1, 1);
  for (long i = -1; i <= static_cast<long>(n); ++i)
    for (long j = -1; j <= static_cast<long>(n); ++j)
      a.at(i, j) = std::sin(0.3 * i) * std::cos(0.4 * j);

  auto lap = [](ops::ACC<double> out, ops::ACC<double> in) {
    out(0, 0) = in(0, 0) + 0.2 * (in(1, 0) + in(-1, 0) + in(0, 1) + in(0, -1) -
                                  4.0 * in(0, 0));
  };
  ops::LoopChain chain(ctx, grid);
  chain.enqueue({"l1"}, lap, ops::arg(b, ops::S_PT, ops::Acc::W),
                ops::arg(a, ops::S2D_5PT, ops::Acc::R));
  chain.enqueue({"l2"}, lap, ops::arg(c, ops::S_PT, ops::Acc::W),
                ops::arg(b, ops::S2D_5PT, ops::Acc::R));
  chain.enqueue({"l3"}, lap, ops::arg(d, ops::S_PT, ops::Acc::W),
                ops::arg(c, ops::S2D_5PT, ops::Acc::R));
  chain.execute(tile);
  return d.interior_sum();
}

}  // namespace

TEST(LoopChain, UntiledMatchesDirectExecution) {
  // tile=0 (reference) must equal running par_loops directly.
  ops::Context ctx(serial());
  ops::Block grid(ctx, "g", 2, {16, 16, 1});
  ops::Dat<double> a(grid, "a", 1, 1), b(grid, "b", 1, 1);
  for (long i = 0; i < 16; ++i)
    for (long j = 0; j < 16; ++j) a.at(i, j) = i * 16.0 + j;

  ops::LoopChain chain(ctx, grid);
  chain.enqueue({"copy"},
                [](ops::ACC<double> out, ops::ACC<double> in) {
                  out(0, 0) = 2.0 * in(0, 0);
                },
                ops::arg(b, ops::S_PT, ops::Acc::W),
                ops::arg(a, ops::S_PT, ops::Acc::R));
  EXPECT_EQ(chain.size(), 1u);
  chain.execute(0);
  EXPECT_EQ(chain.size(), 0u);
  EXPECT_DOUBLE_EQ(b.interior_sum(), 2.0 * a.interior_sum());
}

TEST(LoopChain, TiledIdenticalToSequentialForAllTileSizes) {
  const double ref = run_chain(24, 0);
  for (std::size_t tile : {1u, 2u, 3u, 5u, 8u, 16u, 24u, 100u}) {
    EXPECT_DOUBLE_EQ(run_chain(24, tile), ref) << "tile=" << tile;
  }
}

TEST(LoopChain, DeepChainWithMixedRadii) {
  // Radius-2 then radius-1 then pointwise; expansion must accumulate.
  ops::Context ctx(serial());
  const std::size_t n = 20;
  ops::Block grid(ctx, "g", 2, {n, n, 1});
  ops::Dat<double> a(grid, "a", 1, 2), b(grid, "b", 1, 2), c(grid, "c", 1, 2),
      d(grid, "d", 1, 2);
  for (long i = -2; i <= static_cast<long>(n) + 1; ++i)
    for (long j = -2; j <= static_cast<long>(n) + 1; ++j)
      a.at(i, j) = 0.1 * i - 0.2 * j + 0.01 * i * j;

  auto build_and_run = [&](std::size_t tile) {
    b.fill(0.0);
    c.fill(0.0);
    d.fill(0.0);
    ops::LoopChain chain(ctx, grid);
    chain.enqueue({"r2"},
                  [](ops::ACC<double> out, ops::ACC<double> in) {
                    out(0, 0) = in(2, 0) + in(-2, 0) + in(0, 2) + in(0, -2);
                  },
                  ops::arg(b, ops::S_PT, ops::Acc::W),
                  ops::arg(a, ops::star(2, 2), ops::Acc::R));
    chain.enqueue({"r1"},
                  [](ops::ACC<double> out, ops::ACC<double> in) {
                    out(0, 0) = in(1, 0) - in(-1, 0) + 0.5 * in(0, 0);
                  },
                  ops::arg(c, ops::S_PT, ops::Acc::W),
                  ops::arg(b, ops::S2D_5PT, ops::Acc::R));
    chain.enqueue({"pt"},
                  [](ops::ACC<double> out, ops::ACC<double> in) {
                    out(0, 0) = in(0, 0) * in(0, 0);
                  },
                  ops::arg(d, ops::S_PT, ops::Acc::W),
                  ops::arg(c, ops::S_PT, ops::Acc::R));
    chain.execute(tile);
    return d.interior_sum();
  };
  const double ref = build_and_run(0);
  for (std::size_t tile : {2u, 4u, 7u, 13u}) {
    EXPECT_DOUBLE_EQ(build_and_run(tile), ref) << "tile=" << tile;
  }
}

TEST(LoopChain, TileLargerThanExtentRunsUntiled) {
  // tile >= extent must collapse to the single-sweep reference
  // schedule - no overlap expansion, bit-identical result.
  const double ref = run_chain(12, 0);
  EXPECT_DOUBLE_EQ(run_chain(12, 12), ref);    // exactly one tile
  EXPECT_DOUBLE_EQ(run_chain(12, 13), ref);    // first tile covers all
  EXPECT_DOUBLE_EQ(run_chain(12, 1000), ref);  // tile >> extent
}

TEST(LoopChain, RadiusZeroChainNeedsNoExpansion) {
  // A chain of pointwise loops has zero slow radius everywhere; every
  // tiling must match the reference exactly (expansion stays 0).
  ops::Context ctx(serial());
  const std::size_t n = 10;
  ops::Block grid(ctx, "g", 2, {n, n, 1});
  ops::Dat<double> a(grid, "a", 1, 1), b(grid, "b", 1, 1), c(grid, "c", 1, 1);
  for (long i = 0; i < static_cast<long>(n); ++i)
    for (long j = 0; j < static_cast<long>(n); ++j)
      a.at(i, j) = 1.0 + 0.5 * static_cast<double>(i * 10 + j);

  auto build_and_run = [&](std::size_t tile) {
    b.fill(0.0);
    c.fill(0.0);
    ops::LoopChain chain(ctx, grid);
    chain.enqueue({"sq"},
                  [](ops::ACC<double> out, ops::ACC<double> in) {
                    out(0, 0) = in(0, 0) * in(0, 0);
                  },
                  ops::arg(b, ops::S_PT, ops::Acc::W),
                  ops::arg(a, ops::S_PT, ops::Acc::R));
    chain.enqueue({"half"},
                  [](ops::ACC<double> out, ops::ACC<double> in) {
                    out(0, 0) = 0.5 * in(0, 0);
                  },
                  ops::arg(c, ops::S_PT, ops::Acc::W),
                  ops::arg(b, ops::S_PT, ops::Acc::R));
    chain.execute(tile);
    return c.interior_sum();
  };
  const double ref = build_and_run(0);
  for (std::size_t tile : {1u, 3u, 10u}) {
    EXPECT_DOUBLE_EQ(build_and_run(tile), ref) << "tile=" << tile;
  }
}

TEST(LoopChain, AutotunedExecutePicksTileAndStaysExact) {
  // execute() with no explicit tile hands the depth to the autotuner;
  // whatever it explores, every chain run must stay bit-identical to
  // the reference schedule.
  namespace at = syclport::rt::autotune;
  at::Autotuner::instance().reset(at::Autotuner::Mode::On, "fp-chain", "");

  const std::size_t n = 24;
  ops::Options o = serial();
  o.tune = true;
  ops::Context ctx(o);
  ops::Block grid(ctx, "g", 2, {n, n, 1});
  ops::Dat<double> a(grid, "a", 1, 1), b(grid, "b", 1, 1), c(grid, "c", 1, 1);
  for (long i = -1; i <= static_cast<long>(n); ++i)
    for (long j = -1; j <= static_cast<long>(n); ++j)
      a.at(i, j) = std::sin(0.2 * i) + std::cos(0.3 * j);

  auto lap = [](ops::ACC<double> out, ops::ACC<double> in) {
    out(0, 0) = 0.25 * (in(1, 0) + in(-1, 0) + in(0, 1) + in(0, -1));
  };
  auto run_once = [&](std::optional<std::size_t> tile) {
    b.fill(0.0);
    c.fill(0.0);
    ops::LoopChain chain(ctx, grid);
    chain.enqueue({"t1"}, lap, ops::arg(b, ops::S_PT, ops::Acc::W),
                  ops::arg(a, ops::S2D_5PT, ops::Acc::R));
    chain.enqueue({"t2"}, lap, ops::arg(c, ops::S_PT, ops::Acc::W),
                  ops::arg(b, ops::S2D_5PT, ops::Acc::R));
    chain.execute(tile);
    return c.interior_sum();
  };
  const double ref = run_once(0);
  for (int i = 0; i < 40; ++i)  // spans explore + exploit rounds
    EXPECT_DOUBLE_EQ(run_once(std::nullopt), ref) << "run " << i;

  at::Autotuner::instance().reset(at::Autotuner::Mode::Off, "", "");
}

TEST(LoopChain, InPlaceDatsDoubleBufferedUnderTiling) {
  // b = lap(a); c = 0.5*c + b (in-place, pointwise); d = lap(c).
  // The trailing radius forces ghost re-execution of the RW loop; the
  // row double-buffer must restore c before each re-run so the
  // read-modify-write stays idempotent under overlap recompute.
  ops::Context ctx(serial());
  const long n = 20;
  ops::Block grid(ctx, "g", 2, {20, 20, 1});
  ops::Dat<double> a(grid, "a", 1, 1), b(grid, "b", 1, 1), c(grid, "c", 1, 1),
      d(grid, "d", 1, 1);
  for (long i = -1; i <= n; ++i)
    for (long j = -1; j <= n; ++j) a.at(i, j) = std::sin(0.3 * i - 0.2 * j);

  auto lap = [](ops::ACC<double> out, ops::ACC<double> in) {
    out(0, 0) = in(0, 0) + 0.2 * (in(1, 0) + in(-1, 0) + in(0, 1) + in(0, -1) -
                                  4.0 * in(0, 0));
  };
  auto run = [&](std::size_t tile) {
    b.fill(0.0);
    for (long i = -1; i <= n; ++i)
      for (long j = -1; j <= n; ++j) c.at(i, j) = 0.01 * i + 0.02 * j;
    d.fill(0.0);
    ops::LoopChain chain(ctx, grid);
    chain.enqueue({"produce"}, lap, ops::arg(b, ops::S_PT, ops::Acc::W),
                  ops::arg(a, ops::S2D_5PT, ops::Acc::R));
    chain.enqueue({"accum"},
                  [](ops::ACC<double> x, ops::ACC<double> in) {
                    x(0, 0) = 0.5 * x(0, 0) + in(0, 0);
                  },
                  ops::arg(c, ops::S_PT, ops::Acc::RW),
                  ops::arg(b, ops::S_PT, ops::Acc::R));
    chain.enqueue({"consume"}, lap, ops::arg(d, ops::S_PT, ops::Acc::W),
                  ops::arg(c, ops::S2D_5PT, ops::Acc::R));
    chain.execute(tile);
    EXPECT_EQ(chain.last_segments(), 1u) << "pointwise RW must stay fusable";
    return std::pair(c.interior_sum(), d.interior_sum());
  };
  const auto ref = run(0);
  for (std::size_t tile : {1u, 2u, 3u, 5u, 8u, 20u, 64u}) {
    const auto got = run(tile);
    EXPECT_DOUBLE_EQ(got.first, ref.first) << "tile=" << tile;
    EXPECT_DOUBLE_EQ(got.second, ref.second) << "tile=" << tile;
  }
}

TEST(LoopChain, ReductionTerminatesSegmentAndStaysExact) {
  // b = lap(a); sum over b (radius-1 read); c = lap(b). The reduction
  // must close its segment (its rows run exactly once, in row order, so
  // the FP sum is bit-identical), and the chain continues after it.
  ops::Context ctx(serial());
  const long n = 18;
  ops::Block grid(ctx, "g", 2, {18, 18, 1});
  ops::Dat<double> a(grid, "a", 1, 1), b(grid, "b", 1, 1), c(grid, "c", 1, 1);
  for (long i = -1; i <= n; ++i)
    for (long j = -1; j <= n; ++j) a.at(i, j) = std::cos(0.4 * i) + 0.1 * j;

  auto lap = [](ops::ACC<double> out, ops::ACC<double> in) {
    out(0, 0) = 0.25 * (in(1, 0) + in(-1, 0) + in(0, 1) + in(0, -1));
  };
  std::size_t segs = 0;
  auto run = [&](std::size_t tile) {
    b.fill(0.0);
    c.fill(0.0);
    double s = 0.0;
    ops::LoopChain chain(ctx, grid);
    chain.enqueue({"p"}, lap, ops::arg(b, ops::S_PT, ops::Acc::W),
                  ops::arg(a, ops::S2D_5PT, ops::Acc::R));
    chain.enqueue({"sum"},
                  [](ops::ACC<double> x, ops::Reducer<double> r) {
                    r += x(0, 1) - 0.5 * x(1, 0);
                  },
                  ops::arg(b, ops::S2D_5PT, ops::Acc::R),
                  ops::reduce(s, ops::RedOp::Sum));
    chain.enqueue({"q"}, lap, ops::arg(c, ops::S_PT, ops::Acc::W),
                  ops::arg(b, ops::S2D_5PT, ops::Acc::R));
    chain.execute(tile);
    segs = chain.last_segments();
    return std::pair(s, c.interior_sum());
  };
  const auto ref = run(0);
  EXPECT_EQ(segs, 2u) << "reduction must terminate its segment";
  for (std::size_t tile : {2u, 5u, 9u, 18u}) {
    const auto got = run(tile);
    EXPECT_DOUBLE_EQ(got.first, ref.first) << "tile=" << tile;
    EXPECT_DOUBLE_EQ(got.second, ref.second) << "tile=" << tile;
  }
}

TEST(LoopChain, TiledReductionOverWideRowsIsBitExactOnThreads) {
  // Rows wider than one reduction block (1024 points): a tile is a run
  // of whole rows, so the tiled chain folds the same block partials in
  // the same order as the untiled loop - bit-identical on the pool, and
  // identical to the Serial backend.
  const long nx = 2100, ny = 9;
  auto run = [&](ops::Backend backend, std::size_t tile) {
    ops::Options o;
    o.backend = backend;
    ops::Context ctx(o);
    ops::Block grid(ctx, "g", 2, {static_cast<std::size_t>(ny),
                                  static_cast<std::size_t>(nx), 1});
    ops::Dat<double> a(grid, "a", 1, 1), b(grid, "b", 1, 1);
    for (long i = -1; i <= ny; ++i)
      for (long j = -1; j <= nx; ++j)
        a.at(i, j) = std::sin(0.31 * i + 0.017 * j) * 1e3;
    double s = 0.0, mx = -1e300;
    ops::LoopChain chain(ctx, grid);
    chain.enqueue({"p"},
                  [](ops::ACC<double> out, ops::ACC<double> in) {
                    out(0, 0) = 0.5 * (in(1, 0) + in(0, -1));
                  },
                  ops::arg(b, ops::S_PT, ops::Acc::W),
                  ops::arg(a, ops::S2D_5PT, ops::Acc::R));
    chain.enqueue({"sum"},
                  [](ops::ACC<double> x, ops::Reducer<double> r,
                     ops::Reducer<double> m) {
                    r += x(0, 1) / 3.0;
                    m.combine(x(0, 0));
                  },
                  ops::arg(b, ops::S2D_5PT, ops::Acc::R),
                  ops::reduce(s, ops::RedOp::Sum),
                  ops::reduce(mx, ops::RedOp::Max));
    chain.execute(tile);
    return std::pair(s, mx);
  };
  const auto ref = run(ops::Backend::Serial, 0);
  for (ops::Backend backend : {ops::Backend::Serial, ops::Backend::Threads})
    for (std::size_t tile : {0u, 1u, 2u, 4u}) {
      const auto got = run(backend, tile);
      EXPECT_EQ(std::memcmp(&got.first, &ref.first, sizeof(double)), 0)
          << "tile=" << tile;
      EXPECT_EQ(got.second, ref.second) << "tile=" << tile;
    }
}

TEST(LoopChain, OneDimensionalReductionSegmentStaysExact) {
  // In 1D the tiled dimension is the reduction's only one, so a forced
  // tile must not cut its blocks: the result matches the untiled chain.
  auto run = [](std::size_t tile) {
    ops::Options o;
    o.backend = ops::Backend::Threads;
    ops::Context ctx(o);
    ops::Block grid(ctx, "g", 1, {3000, 1, 1});
    ops::Dat<double> a(grid, "a", 1, 1), b(grid, "b", 1, 1);
    for (long i = -1; i <= 3000; ++i) a.at(i) = std::sin(0.013 * i) * 1e4;
    double s = 0.0;
    ops::LoopChain chain(ctx, grid);
    chain.enqueue({"p"},
                  [](ops::ACC<double> out, ops::ACC<double> in) {
                    out(0) = in(-1) / 3.0 + in(1);
                  },
                  ops::arg(b, ops::S_PT, ops::Acc::W),
                  ops::arg(a, ops::star(1, 1), ops::Acc::R));
    chain.enqueue({"sum"},
                  [](ops::ACC<double> x, ops::Reducer<double> r) {
                    r += x(0);
                  },
                  ops::arg(b, ops::S_PT, ops::Acc::R),
                  ops::reduce(s, ops::RedOp::Sum));
    chain.execute(tile);
    return s;
  };
  const double ref = run(0);
  for (std::size_t tile : {1u, 700u, 1500u}) {
    const double got = run(tile);
    EXPECT_EQ(std::memcmp(&got, &ref, sizeof(double)), 0) << "tile=" << tile;
  }
}

TEST(LoopChain, WriteAfterReadSplitsChain) {
  // b = f(a); a = g(b) - overlap re-execution of f would re-read
  // clobbered rows of a, so the chain must split at the WAR edge (two
  // segments) and stay bit-exact instead of throwing.
  ops::Context ctx(serial());
  const long n = 16;
  ops::Block grid(ctx, "g", 2, {16, 16, 1});
  ops::Dat<double> a(grid, "a", 1, 1), b(grid, "b", 1, 1);
  std::size_t segs = 0;
  auto run = [&](std::size_t tile) {
    for (long i = -1; i <= n; ++i)
      for (long j = -1; j <= n; ++j) a.at(i, j) = 0.3 * i - 0.7 * j;
    b.fill(0.0);
    ops::LoopChain chain(ctx, grid);
    chain.enqueue({"f"},
                  [](ops::ACC<double> out, ops::ACC<double> in) {
                    out(0, 0) = in(0, 1);
                  },
                  ops::arg(b, ops::S_PT, ops::Acc::W),
                  ops::arg(a, ops::S2D_5PT, ops::Acc::R));
    chain.enqueue({"g"},
                  [](ops::ACC<double> out, ops::ACC<double> in) {
                    out(0, 0) = in(0, -1);
                  },
                  ops::arg(a, ops::S_PT, ops::Acc::W),
                  ops::arg(b, ops::S2D_5PT, ops::Acc::R));
    chain.execute(tile);
    segs = chain.last_segments();
    return a.interior_sum() + 3.0 * b.interior_sum();
  };
  const double ref = run(0);
  EXPECT_EQ(segs, 2u) << "WAR edge must cut the chain";
  for (std::size_t tile : {1u, 3u, 4u, 8u, 16u}) {
    EXPECT_DOUBLE_EQ(run(tile), ref) << "tile=" << tile;
  }
}

TEST(LoopChain, InPlaceStencilReadIsolatesLoop) {
  // An RW dat read through a nonzero-radius stencil (in-place
  // Gauss-Seidel sweep) cannot be overlap-tiled: the loop must land in
  // its own segment, and the whole chain stays bit-exact.
  ops::Context ctx(serial());
  const long n = 16;
  ops::Block grid(ctx, "g", 2, {16, 16, 1});
  ops::Dat<double> a(grid, "a", 1, 1), b(grid, "b", 1, 1);
  std::size_t segs = 0;
  auto run = [&](std::size_t tile) {
    for (long i = -1; i <= n; ++i)
      for (long j = -1; j <= n; ++j) a.at(i, j) = std::sin(0.5 * i * j + i);
    b.fill(0.0);
    ops::LoopChain chain(ctx, grid);
    chain.enqueue({"gs"},
                  [](ops::ACC<double> x) {
                    x(0, 0) = 0.25 * (x(1, 0) + x(-1, 0) + x(0, 1) + x(0, -1));
                  },
                  ops::arg(a, ops::S2D_5PT, ops::Acc::RW));
    chain.enqueue({"obs"},
                  [](ops::ACC<double> out, ops::ACC<double> in) {
                    out(0, 0) = in(0, 0) + in(1, 0);
                  },
                  ops::arg(b, ops::S_PT, ops::Acc::W),
                  ops::arg(a, ops::S2D_5PT, ops::Acc::R));
    chain.execute(tile);
    segs = chain.last_segments();
    return std::pair(a.interior_sum(), b.interior_sum());
  };
  const auto ref = run(0);
  EXPECT_EQ(segs, 2u) << "in-place stencil read must be isolated";
  for (std::size_t tile : {2u, 5u, 16u}) {
    const auto got = run(tile);
    EXPECT_DOUBLE_EQ(got.first, ref.first) << "tile=" << tile;
    EXPECT_DOUBLE_EQ(got.second, ref.second) << "tile=" << tile;
  }
}

TEST(LoopChain, BoundaryAndRestrictedRangesTileExactly) {
  // Boundary loops (halo-extending range) and partial-range loops are
  // legal chain members: the first/last tiles absorb rows the interior
  // tile walk never visits, and restricted ranges clamp per tile.
  ops::Context ctx(serial());
  const long n = 20;
  ops::Block grid(ctx, "g", 2, {20, 20, 1});
  ops::Dat<double> a(grid, "a", 1, 2), b(grid, "b", 1, 2), c(grid, "c", 1, 2),
      d(grid, "d", 1, 2);
  for (long i = -2; i <= n + 1; ++i)
    for (long j = -2; j <= n + 1; ++j) a.at(i, j) = 0.05 * i * j - 0.3 * j;

  auto lap = [](ops::ACC<double> out, ops::ACC<double> in) {
    out(0, 0) = in(0, 0) + 0.1 * (in(1, 0) + in(-1, 0) + in(0, 1) + in(0, -1));
  };
  auto run = [&](std::size_t tile) {
    b.fill(0.0);
    c.fill(0.0);
    d.fill(0.0);
    ops::Range ext = ops::Range::all(grid);
    ext.lo[0] = -1;  // one halo row each side, like an app halo update
    ext.hi[0] = n + 1;
    ops::Range mid = ops::Range::all(grid);
    mid.lo[0] = 3;
    mid.hi[0] = n - 4;
    ops::LoopChain chain(ctx, grid);
    chain.enqueue({"ext"}, ext, lap, ops::arg(b, ops::S_PT, ops::Acc::W),
                  ops::arg(a, ops::S2D_5PT, ops::Acc::R));
    chain.enqueue({"full"}, lap, ops::arg(c, ops::S_PT, ops::Acc::W),
                  ops::arg(b, ops::S2D_5PT, ops::Acc::R));
    chain.enqueue({"mid"}, mid, lap, ops::arg(d, ops::S_PT, ops::Acc::W),
                  ops::arg(c, ops::S2D_5PT, ops::Acc::R));
    chain.execute(tile);
    return b.interior_sum() + 2.0 * c.interior_sum() + 4.0 * d.interior_sum();
  };
  const double ref = run(0);
  for (std::size_t tile : {1u, 2u, 5u, 7u, 20u}) {
    EXPECT_DOUBLE_EQ(run(tile), ref) << "tile=" << tile;
  }
}

TEST(LoopChain, ThreeDChainTiledBitExact) {
  // 3D chain with mixed slow-dimension radii (1 then 2): the suffix
  // expansion runs along the slowest dimension only and must stay
  // bit-exact for every tiling, as in 2D.
  ops::Context ctx(serial());
  const long n = 12;
  ops::Block grid(ctx, "g", 3, {12, 12, 12});
  ops::Dat<double> a(grid, "a", 1, 2), b(grid, "b", 1, 2), c(grid, "c", 1, 2);
  for (long i = -2; i <= n + 1; ++i)
    for (long j = -2; j <= n + 1; ++j)
      for (long k = -2; k <= n + 1; ++k)
        a.at(i, j, k) = std::sin(0.2 * i + 0.3 * j - 0.1 * k);

  auto run = [&](std::size_t tile) {
    b.fill(0.0);
    c.fill(0.0);
    ops::LoopChain chain(ctx, grid);
    chain.enqueue({"s7"},
                  [](ops::ACC<double> out, ops::ACC<double> in) {
                    out(0, 0, 0) =
                        in(0, 0, 0) +
                        0.1 * (in(1, 0, 0) + in(-1, 0, 0) + in(0, 1, 0) +
                               in(0, -1, 0) + in(0, 0, 1) + in(0, 0, -1));
                  },
                  ops::arg(b, ops::S_PT, ops::Acc::W),
                  ops::arg(a, ops::S3D_7PT, ops::Acc::R));
    chain.enqueue({"s13"},
                  [](ops::ACC<double> out, ops::ACC<double> in) {
                    out(0, 0, 0) =
                        in(0, 0, 0) +
                        0.02 * (in(2, 0, 0) + in(-2, 0, 0) + in(0, 2, 0) +
                                in(0, -2, 0) + in(0, 0, 2) + in(0, 0, -2));
                  },
                  ops::arg(c, ops::S_PT, ops::Acc::W),
                  ops::arg(b, ops::star(2, 3), ops::Acc::R));
    chain.execute(tile);
    return c.interior_sum();
  };
  const double ref = run(0);
  for (std::size_t tile : {1u, 2u, 3u, 5u, 12u}) {
    EXPECT_DOUBLE_EQ(run(tile), ref) << "tile=" << tile;
  }
}

TEST(LoopChain, ReenqueueAfterThrownChainWorks) {
  // A kernel throw mid-execute must unwind cleanly: the queue clears on
  // the way out and the chain object stays usable for new work.
  ops::Context ctx(serial());
  ops::Block grid(ctx, "g", 2, {8, 8, 1});
  ops::Dat<double> a(grid, "a", 1, 1), b(grid, "b", 1, 1), c(grid, "c", 1, 1);
  a.fill(1.5);
  b.fill(0.0);
  c.fill(0.0);

  auto twice = [](ops::ACC<double> out, ops::ACC<double> in) {
    out(0, 0) = 2.0 * in(0, 0);
  };
  ops::LoopChain chain(ctx, grid);
  chain.enqueue({"ok"}, twice, ops::arg(b, ops::S_PT, ops::Acc::W),
                ops::arg(a, ops::S_PT, ops::Acc::R));
  chain.enqueue({"boom"},
                [](ops::ACC<double> out, ops::ACC<double> in) {
                  if (in(0, 0) != 12345.0)
                    throw std::runtime_error("chain kernel failure");
                  out(0, 0) = in(0, 0);
                },
                ops::arg(c, ops::S_PT, ops::Acc::W),
                ops::arg(a, ops::S_PT, ops::Acc::R));
  EXPECT_THROW(chain.execute(4), std::runtime_error);
  EXPECT_EQ(chain.size(), 0u) << "queue must clear on unwind";

  chain.enqueue({"ok2"}, twice, ops::arg(c, ops::S_PT, ops::Acc::W),
                ops::arg(a, ops::S_PT, ops::Acc::R));
  chain.execute(0);
  EXPECT_EQ(chain.size(), 0u);
  EXPECT_DOUBLE_EQ(c.interior_sum(), 2.0 * a.interior_sum());
}

TEST(LoopChain, ChainSiteNamesArePerComposition) {
  // Autotune site names derive from the captured composition: stable
  // (interned) for the same chain, distinct across compositions - no
  // more single shared "(loop_chain)" entry.
  namespace df = ops::dataflow;
  std::vector<df::Node> one(1);
  one[0].name = "alpha";
  one[0].hi = {8, 8, 1};
  std::vector<df::Node> two = one;
  two.push_back(one[0]);
  two[1].name = "beta";

  const char* n1 = df::intern_chain_name(one);
  EXPECT_EQ(n1, df::intern_chain_name(one)) << "interned pointer is stable";
  EXPECT_STRNE(n1, df::intern_chain_name(two));
  EXPECT_EQ(std::string_view(n1).substr(0, 7), "(chain:");

  std::vector<df::Node> shifted = one;  // same loops, other box
  shifted[0].hi = {16, 16, 1};
  EXPECT_STRNE(n1, df::intern_chain_name(shifted));
}

TEST(LoopChain, FusedScopeParityAcrossFusionModes) {
  // The capture front end must produce bit-identical results under
  // SYCLPORT_FUSION=off (eager reference), =on (pinned fuse), and
  // =auto (hwmodel decides; tuner is off here).
  ops::Context ctx(serial());
  const long n = 16;
  ops::Block grid(ctx, "g", 2, {16, 16, 1});
  ops::Dat<double> a(grid, "a", 1, 1), b(grid, "b", 1, 1), c(grid, "c", 1, 1);
  for (long i = -1; i <= n; ++i)
    for (long j = -1; j <= n; ++j) a.at(i, j) = 0.1 * i + std::cos(0.2 * j);

  auto lap = [](ops::ACC<double> out, ops::ACC<double> in) {
    out(0, 0) = 0.25 * (in(1, 0) + in(-1, 0) + in(0, 1) + in(0, -1));
  };
  auto run_mode = [&](const char* mode) {
    setenv("SYCLPORT_FUSION", mode, 1);
    b.fill(0.0);
    c.fill(0.0);
    ops::FusedScope fs(ctx, grid);
    EXPECT_EQ(fs.capturing(), std::string_view(mode) != "off");
    fs.loop({"s1"}, lap, ops::arg(b, ops::S_PT, ops::Acc::W),
            ops::arg(a, ops::S2D_5PT, ops::Acc::R));
    fs.loop({"s2"}, lap, ops::arg(c, ops::S_PT, ops::Acc::W),
            ops::arg(b, ops::S2D_5PT, ops::Acc::R));
    fs.flush();
    return c.interior_sum();
  };
  const double off = run_mode("off");
  EXPECT_DOUBLE_EQ(run_mode("on"), off);
  EXPECT_DOUBLE_EQ(run_mode("auto"), off);
  unsetenv("SYCLPORT_FUSION");
}

TEST(LoopChain, FusedChainReportsEliminatedBytes) {
  // Telemetry: a fused producer-consumer chain reports its name-level
  // fusable bound and a positive modeled elimination, bounded by it,
  // and the record lands in launch_log when logging is on.
  ops::Context ctx(serial());
  const long n = 32;
  ops::Block grid(ctx, "g", 2, {32, 32, 1});
  ops::Dat<double> a(grid, "a", 1, 1), b(grid, "b", 1, 1), c(grid, "c", 1, 1);
  for (long i = -1; i <= n; ++i)
    for (long j = -1; j <= n; ++j) a.at(i, j) = 0.01 * (i + 2 * j);

  auto lap = [](ops::ACC<double> out, ops::ACC<double> in) {
    out(0, 0) = 0.25 * (in(1, 0) + in(-1, 0) + in(0, 1) + in(0, -1));
  };
  auto& log = ::sycl::launch_log::instance();
  log.set_enabled(true);
  log.clear();
  ops::LoopChain chain(ctx, grid);
  chain.enqueue({"e1"}, lap, ops::arg(b, ops::S_PT, ops::Acc::W),
                ops::arg(a, ops::S2D_5PT, ops::Acc::R));
  chain.enqueue({"e2"}, lap, ops::arg(c, ops::S_PT, ops::Acc::W),
                ops::arg(b, ops::S2D_5PT, ops::Acc::R));
  chain.execute(8, true);

  EXPECT_EQ(chain.last_segments(), 1u);
  EXPECT_TRUE(chain.last_fused());
  EXPECT_EQ(chain.last_tile(), 8u);
  // One internal edge (b): writeback + re-read round trip.
  const double interior = 32.0 * 32.0 * sizeof(double);
  EXPECT_DOUBLE_EQ(chain.last_fusable_bytes(), 2.0 * interior);
  EXPECT_GT(chain.last_eliminated_bytes(), 0.0);
  EXPECT_LE(chain.last_eliminated_bytes(), chain.last_fusable_bytes());

  const auto recs = log.fusions_snapshot();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_TRUE(recs[0].fused);
  EXPECT_EQ(recs[0].loops, 2u);
  EXPECT_DOUBLE_EQ(recs[0].eliminated_bytes, chain.last_eliminated_bytes());
  const auto stats = log.fusion_stats();
  EXPECT_EQ(stats.chains, 1u);
  EXPECT_DOUBLE_EQ(stats.eliminated_bytes, chain.last_eliminated_bytes());
  log.set_enabled(false);
  log.clear();
}

TEST(Fuzz, RandomChainShapesFusedEqualsUnfused) {
  // Random chain compositions mixing stencil writes (radius 0/1/2),
  // pointwise RW accumulation, in-place stencil RW, and reductions:
  // every dat (including halos) and every reduction must be
  // bit-identical between the unfused reference, a random forced tile,
  // and the default hwmodel-decided schedule.
  ops::Context ctx(serial());
  const long n = 14;
  ops::Block grid(ctx, "g", 2, {14, 14, 1});
  ops::Dat<double> d0(grid, "d0", 1, 2), d1(grid, "d1", 1, 2),
      d2(grid, "d2", 1, 2), d3(grid, "d3", 1, 2);
  ops::Dat<double>* dats[4] = {&d0, &d1, &d2, &d3};

  struct Op {
    int type;  // 0 copy, 1 star1, 2 star2, 3 rw-pointwise, 4 rw-stencil,
               // 5 reduction
    int dst;
    int src;
  };

  auto k_copy = [](ops::ACC<double> out, ops::ACC<double> in) {
    out(0, 0) = 1.01 * in(0, 0) + 0.1;
  };
  auto k_star1 = [](ops::ACC<double> out, ops::ACC<double> in) {
    out(0, 0) = in(0, 0) + 0.3 * (in(1, 0) + in(-1, 0) + in(0, 1) + in(0, -1));
  };
  auto k_star2 = [](ops::ACC<double> out, ops::ACC<double> in) {
    out(0, 0) =
        in(0, 0) + 0.05 * (in(2, 0) + in(-2, 0) + in(0, 2) + in(0, -2));
  };
  auto k_rwpt = [](ops::ACC<double> x, ops::ACC<double> in) {
    x(0, 0) = 0.7 * x(0, 0) + in(0, 0);
  };
  auto k_rwst = [](ops::ACC<double> x) {
    x(0, 0) = 0.5 * x(0, 0) + 0.125 * (x(1, 0) + x(-1, 0) + x(0, 1) + x(0, -1));
  };
  auto k_red = [](ops::ACC<double> x, ops::Reducer<double> r) {
    r += x(0, 1) - 0.5 * x(1, 0);
  };

  for (int trial = 0; trial < 30; ++trial) {
    std::mt19937 rng(777u + static_cast<unsigned>(trial));
    const double c1 = 0.1 + 0.01 * static_cast<double>(rng() % 40);
    const double c2 = 0.2 + 0.01 * static_cast<double>(rng() % 40);
    auto reinit = [&] {
      for (int k = 0; k < 4; ++k)
        for (long i = -2; i <= n + 1; ++i)
          for (long j = -2; j <= n + 1; ++j)
            dats[k]->at(i, j) = std::sin(c1 * i + c2 * j + k);
    };

    std::vector<Op> shape;
    const int len = 2 + static_cast<int>(rng() % 5);
    for (int l = 0; l < len; ++l) {
      Op op;
      const unsigned r = rng() % 10;
      op.type = r <= 1 ? 0 : r <= 4 ? 1 : r <= 6 ? 2 : static_cast<int>(r - 4);
      op.dst = static_cast<int>(rng() % 4);
      op.src = static_cast<int>(rng() % 4);
      if (op.src == op.dst) op.src = (op.dst + 1) % 4;
      shape.push_back(op);
    }

    auto build = [&](ops::LoopChain& chain, double& red) {
      for (const Op& op : shape) {
        ops::Dat<double>& dst = *dats[static_cast<std::size_t>(op.dst)];
        ops::Dat<double>& src = *dats[static_cast<std::size_t>(op.src)];
        switch (op.type) {
          case 0:
            chain.enqueue({"copy"}, k_copy, ops::arg(dst, ops::S_PT, ops::Acc::W),
                          ops::arg(src, ops::S_PT, ops::Acc::R));
            break;
          case 1:
            chain.enqueue({"star1"}, k_star1,
                          ops::arg(dst, ops::S_PT, ops::Acc::W),
                          ops::arg(src, ops::S2D_5PT, ops::Acc::R));
            break;
          case 2:
            chain.enqueue({"star2"}, k_star2,
                          ops::arg(dst, ops::S_PT, ops::Acc::W),
                          ops::arg(src, ops::star(2, 2), ops::Acc::R));
            break;
          case 3:
            chain.enqueue({"rwpt"}, k_rwpt,
                          ops::arg(dst, ops::S_PT, ops::Acc::RW),
                          ops::arg(src, ops::S_PT, ops::Acc::R));
            break;
          case 4:
            chain.enqueue({"rwst"}, k_rwst,
                          ops::arg(dst, ops::S2D_5PT, ops::Acc::RW));
            break;
          default:
            chain.enqueue({"red"}, k_red,
                          ops::arg(src, ops::S2D_5PT, ops::Acc::R),
                          ops::reduce(red, ops::RedOp::Sum));
            break;
        }
      }
    };

    auto snapshot = [&] {
      std::vector<double> s;
      for (int k = 0; k < 4; ++k)
        for (long i = -2; i <= n + 1; ++i)
          for (long j = -2; j <= n + 1; ++j) s.push_back(dats[k]->at(i, j));
      return s;
    };

    double red_ref = 0.0;
    reinit();
    {
      ops::LoopChain chain(ctx, grid);
      build(chain, red_ref);
      chain.execute(0);
    }
    const std::vector<double> ref = snapshot();

    const std::size_t tile = 1 + rng() % 12;
    for (int variant = 0; variant < 2; ++variant) {
      double red_got = 0.0;
      reinit();
      {
        ops::LoopChain chain(ctx, grid);
        build(chain, red_got);
        if (variant == 0)
          chain.execute(tile);
        else
          chain.execute();  // hwmodel-decided fuse + tile
      }
      const std::vector<double> got = snapshot();
      EXPECT_DOUBLE_EQ(red_got, red_ref)
          << "trial=" << trial << " variant=" << variant << " tile=" << tile;
      std::size_t bad = 0;
      for (std::size_t p = 0; p < ref.size(); ++p)
        if (ref[p] != got[p] && ++bad == 1)
          ADD_FAILURE() << "trial=" << trial << " variant=" << variant
                        << " tile=" << tile << " first mismatch at flat index "
                        << p << ": " << ref[p] << " vs " << got[p];
      EXPECT_EQ(bad, 0u) << "trial=" << trial << " variant=" << variant;
    }
  }
}
