// Randomized property tests across the stack: arbitrary nd_range
// shapes, random stencil footprints against the closed-form transfer
// formula, fiber stress, random loop chains and random out-of-order
// command chains - the "does it hold for inputs nobody hand-picked" layer.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "hwmodel/energy.hpp"
#include "ops/loop_chain.hpp"
#include "ops/ops.hpp"
#include "runtime/fiber.hpp"
#include "runtime/thread_pool.hpp"
#include "sycl/sycl.hpp"

namespace ops = syclport::ops;
namespace rt = syclport::rt;
namespace hw = syclport::hw;

TEST(Fuzz, RandomNdLocalShapesNeverChangeResults) {
  std::mt19937 rng(2024);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t ny = 5 + rng() % 40;
    const std::size_t nx = 5 + rng() % 40;
    ops::Options nd;
    nd.backend = ops::Backend::SyclNd;
    nd.nd_local = {1, 1 + rng() % 7, 1 + rng() % 70};
    auto run = [&](const ops::Options& o) {
      ops::Context ctx(o);
      ops::Block grid(ctx, "g", 2, {ny, nx, 1});
      ops::Dat<double> a(grid, "a", 1, 1), b(grid, "b", 1, 1);
      for (long i = -1; i <= static_cast<long>(ny); ++i)
        for (long j = -1; j <= static_cast<long>(nx); ++j)
          a.at(i, j) = 0.31 * i + 0.17 * j;
      ops::par_loop(ctx, {"k"}, grid, ops::Range::all(grid),
                    [](ops::ACC<double> out, ops::ACC<double> in) {
                      out(0, 0) = in(1, 0) + 2.0 * in(-1, 0) - in(0, 1);
                    },
                    ops::arg(b, ops::S_PT, ops::Acc::W),
                    ops::arg(a, ops::S2D_5PT, ops::Acc::R));
      return b.interior_sum();
    };
    ops::Options serial;
    serial.backend = ops::Backend::Serial;
    ASSERT_DOUBLE_EQ(run(nd), run(serial))
        << "trial " << trial << " local={1," << nd.nd_local[1] << ","
        << nd.nd_local[2] << "} grid " << ny << "x" << nx;
  }
}

TEST(Fuzz, RandomStencilFootprintsMatchClosedForm) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t nz = 3 + rng() % 12;
    const std::size_t ny = 3 + rng() % 12;
    const std::size_t nx = 3 + rng() % 12;
    const int rx = static_cast<int>(rng() % 3);
    const int ry = static_cast<int>(rng() % 3);
    const int rz = static_cast<int>(rng() % 3);
    const int ncomp = 1 + static_cast<int>(rng() % 4);

    ops::Options o;
    o.backend = ops::Backend::Serial;
    o.mode = ops::Mode::ModelOnly;
    ops::Context ctx(o);
    ops::Block grid(ctx, "g", 3, {nz, ny, nx});
    ops::Dat<double> in(grid, "in", ncomp, 2), out(grid, "out", ncomp, 2);
    ops::par_loop(ctx, {"k"}, grid, ops::Range::all(grid),
                  [](ops::ACC<double>, ops::ACC<double>) {},
                  ops::arg(out, ops::S_PT, ops::Acc::W),
                  ops::arg(in, ops::Stencil{rx, ry, rz, 1}, ops::Acc::R));
    ASSERT_EQ(ctx.profiles.size(), 1u);
    const auto& lp = ctx.profiles[0];
    const double read_expect = static_cast<double>(nz + 2 * rz) *
                               (ny + 2 * ry) * (nx + 2 * rx) * ncomp * 8;
    const double write_expect =
        static_cast<double>(nz) * ny * nx * ncomp * 8;
    EXPECT_DOUBLE_EQ(lp.bytes_read, read_expect) << "trial " << trial;
    EXPECT_DOUBLE_EQ(lp.bytes_written, write_expect);
    EXPECT_EQ(lp.radius_fast, rx);
    EXPECT_EQ(lp.radius_mid, ry);
    EXPECT_EQ(lp.radius_slow, rz);
  }
}

TEST(Fuzz, FiberBarrierStress) {
  // Many groups of random sizes with random barrier counts; a shared
  // per-group counter must advance in lock step.
  std::mt19937 rng(55);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 1 + rng() % 50;
    const int rounds = 1 + static_cast<int>(rng() % 6);
    std::vector<int> progress(n, 0);
    rt::run_barrier_group(n, [&](std::size_t i) {
      for (int r = 0; r < rounds; ++r) {
        progress[i] = r + 1;
        rt::group_barrier();
        for (std::size_t j = 0; j < n; ++j)
          ASSERT_GE(progress[j], r + 1) << "barrier leaked";
        rt::group_barrier();
      }
    });
  }
}

TEST(Fuzz, RandomLoopChainsTiledEqualUntiled) {
  std::mt19937 rng(31);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t n = 12 + rng() % 20;
    const int depth = 2 + static_cast<int>(rng() % 3);
    const std::size_t tile = 1 + rng() % n;

    ops::Options o;
    o.backend = ops::Backend::Serial;
    ops::Context ctx(o);
    ops::Block grid(ctx, "g", 2, {n, n, 1});
    std::vector<std::unique_ptr<ops::Dat<double>>> dats;
    for (int d = 0; d <= depth; ++d)
      dats.push_back(
          std::make_unique<ops::Dat<double>>(grid, "d", 1, 2));
    auto seed = [&] {
      for (long i = -2; i <= static_cast<long>(n) + 1; ++i)
        for (long j = -2; j <= static_cast<long>(n) + 1; ++j)
          dats[0]->at(i, j) = 0.01 * i * j - 0.3 * i;
      for (int d = 1; d <= depth; ++d) dats[static_cast<std::size_t>(d)]->fill(0.0);
    };
    auto build = [&](std::size_t t) {
      seed();
      ops::LoopChain chain(ctx, grid);
      for (int d = 0; d < depth; ++d) {
        chain.enqueue({"s"},
                      [](ops::ACC<double> out, ops::ACC<double> in) {
                        out(0, 0) = 0.3 * in(0, 0) + in(0, 1) - in(1, 0);
                      },
                      ops::arg(*dats[static_cast<std::size_t>(d + 1)],
                               ops::S_PT, ops::Acc::W),
                      ops::arg(*dats[static_cast<std::size_t>(d)],
                               ops::S2D_5PT, ops::Acc::R));
      }
      chain.execute(t);
      return dats[static_cast<std::size_t>(depth)]->interior_sum();
    };
    const double ref = build(0);
    ASSERT_DOUBLE_EQ(build(tile), ref)
        << "trial " << trial << " tile " << tile << " depth " << depth;
  }
}

TEST(Fuzz, EnergyModelSanity) {
  // Included here to keep hwmodel/energy covered: positive, monotone.
  for (syclport::PlatformId p : syclport::kAllPlatforms) {
    const double e1 = hw::run_energy_j(p, 1.0);
    const double e2 = hw::run_energy_j(p, 2.0);
    EXPECT_GT(e1, 0.0);
    EXPECT_NEAR(e2, 2.0 * e1, 1e-9);
    EXPECT_GT(hw::gb_per_joule(p, 1e9, 1.0), 0.0);
  }
  // GPUs beat CPUs on bandwidth per watt.
  EXPECT_GT(hw::gb_per_joule(syclport::PlatformId::A100, 1310e9, 1.0),
            3.0 * hw::gb_per_joule(syclport::PlatformId::Xeon8360Y, 296e9, 1.0));
}

// ---------------------------------------------------------------------
// Scheduled launches: whatever schedule x grain a context pins, on every
// parallel lowering (pool sweep, SYCL flat, SYCL nd_range), the results
// must be bit-identical to the serial reference loop - on shapes nobody
// hand-picked, stencil and reduction.

TEST(Fuzz, ScheduledLaunchesStayBitExact) {
  std::mt19937 rng(417);
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t ny = 7 + rng() % 60;
    const std::size_t nx = 7 + rng() % 60;
    // Integer-valued input: the reduction below is exact in double for
    // any accumulation order, so a mismatch can only mean a schedule
    // visited an index twice, skipped one, or mis-handled a row end.
    auto run = [&](ops::Backend be, std::optional<rt::Schedule> schedule,
                   std::optional<std::size_t> grain) {
      ops::Options o;
      o.backend = be;
      o.schedule = schedule;
      o.grain = grain;
      o.record = false;
      ops::Context ctx(o);
      ops::Block grid(ctx, "g", 2, {ny, nx, 1});
      ops::Dat<double> a(grid, "a", 1, 1), b(grid, "b", 1, 1);
      for (long i = -1; i <= static_cast<long>(ny); ++i)
        for (long j = -1; j <= static_cast<long>(nx); ++j)
          a.at(i, j) = static_cast<double>(3 * i - 2 * j);
      ops::par_loop(ctx, {"fz_sweep"}, grid, ops::Range::all(grid),
                    [](ops::ACC<double> out, ops::ACC<double> in) {
                      out(0, 0) = in(0, 0) + 0.2 * (in(1, 0) + in(-1, 0) +
                                                    in(0, 1) + in(0, -1));
                    },
                    ops::arg(b, ops::S_PT, ops::Acc::W),
                    ops::arg(a, ops::S2D_5PT, ops::Acc::R));
      double red = 0.0;
      ops::par_loop(ctx, {"fz_red", hw::KernelClass::Reduction, 1.0}, grid,
                    ops::Range::all(grid),
                    [](ops::ACC<double> in, ops::Reducer<double> r) {
                      r += in(0, 0);
                    },
                    ops::arg(a, ops::S_PT, ops::Acc::R),
                    ops::reduce(red, ops::RedOp::Sum));
      return std::pair{b.interior_sum(), red};
    };
    const auto ref = run(ops::Backend::Serial, std::nullopt, std::nullopt);
    for (const ops::Backend be :
         {ops::Backend::Threads, ops::Backend::SyclFlat, ops::Backend::SyclNd})
      for (const rt::Schedule sched :
           {rt::Schedule::Static, rt::Schedule::Dynamic, rt::Schedule::Steal})
        for (int g = 0; g < 3; ++g) {
          const std::size_t grain = std::size_t{1} << (rng() % 12);
          EXPECT_EQ(run(be, sched, grain), ref)
              << "trial " << trial << " grid " << ny << "x" << nx
              << " backend " << static_cast<int>(be) << " schedule "
              << rt::to_string(sched) << " grain " << grain;
        }
  }
}

// ---------------------------------------------------------------------
// Out-of-order queue: random command-group chains with random footprints
// must produce bit-for-bit the same buffers as in-order execution - the
// dependency DAG may only reorder commands that commute.

TEST(Fuzz, RandomCommandChainsMatchInOrderExecution) {
  constexpr std::size_t kN = 128;
  constexpr int kBuffers = 4;
  struct Use {
    int buf;
    sycl::access_mode mode;
  };
  struct Cmd {
    std::vector<Use> uses;
    bool wait_event;
  };
  for (unsigned seed : {11u, 23u, 47u, 91u, 2024u}) {
    std::mt19937 rng(seed);
    std::vector<Cmd> cmds;
    for (int c = 0; c < 48; ++c) {
      Cmd cmd;
      const int k = 1 + static_cast<int>(rng() % 3);
      std::vector<int> picked;
      while (static_cast<int>(picked.size()) < k) {
        const int b = static_cast<int>(rng() % kBuffers);
        if (std::find(picked.begin(), picked.end(), b) == picked.end())
          picked.push_back(b);
      }
      for (int b : picked)
        cmd.uses.push_back({b, static_cast<sycl::access_mode>(rng() % 3)});
      cmd.wait_event = (rng() % 8) == 0;
      cmds.push_back(std::move(cmd));
    }

    auto run = [&](sycl::queue q) {
      std::vector<std::vector<long long>> bufs(
          kBuffers, std::vector<long long>(kN));
      for (int b = 0; b < kBuffers; ++b)
        for (std::size_t i = 0; i < kN; ++i)
          bufs[static_cast<std::size_t>(b)][i] =
              b * 1000 + static_cast<long long>(i);
      std::vector<long long*> ptr;
      for (auto& v : bufs) ptr.push_back(v.data());
      int tag = 0;
      for (const auto& cmd : cmds) {
        sycl::event ev = q.submit([&](sycl::handler& h) {
          for (const auto& u : cmd.uses)
            h.require(ptr[static_cast<std::size_t>(u.buf)], u.mode);
          h.parallel_for(
              sycl::range<1>(kN),
              [uses = cmd.uses, ps = ptr, tag](sycl::id<1> it) {
                const auto i = it[0];
                // Reads first, then writes: deterministic regardless of
                // the order uses were listed in.
                long long sum = 0;
                for (const auto& u : uses)
                  if (u.mode != sycl::access_mode::write)
                    sum += ps[static_cast<std::size_t>(u.buf)][i];
                for (const auto& u : uses) {
                  if (u.mode == sycl::access_mode::read) continue;
                  long long* out = ps[static_cast<std::size_t>(u.buf)];
                  const long long base =
                      u.mode == sycl::access_mode::write ? 0 : out[i];
                  out[i] = base * 3 + sum + tag * 17 +
                           static_cast<long long>(i);
                }
              });
        });
        if (cmd.wait_event) ev.wait();
        ++tag;
      }
      q.wait();
      return bufs;
    };

    const auto ooo = run(sycl::queue{});
    const auto ordered = run(sycl::queue{
        sycl::property_list{sycl::property::queue::in_order{}}});
    EXPECT_EQ(ooo, ordered) << "seed " << seed;
  }
}
