// Unit tests for miniSYCL: ranges, flat and nd_range parallel_for,
// barriers, local memory, reductions, atomics, buffers and USM.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/thread_pool.hpp"
#include "sycl/sycl.hpp"

TEST(Range, SizeAndIndexing) {
  sycl::range<3> r(4, 5, 6);
  EXPECT_EQ(r.size(), 120u);
  EXPECT_EQ(r[0], 4u);
  EXPECT_EQ(r[2], 6u);
}

TEST(Range, LinearizeRoundTrip) {
  sycl::range<3> r(3, 4, 5);
  for (std::size_t lin = 0; lin < r.size(); ++lin) {
    auto idx = sycl::detail::delinearize(lin, r);
    EXPECT_EQ(sycl::detail::linearize(idx, r), lin);
  }
}

TEST(Range, LastDimensionMovesFastest) {
  sycl::range<2> r(2, 8);
  auto i0 = sycl::detail::delinearize(0, r);
  auto i1 = sycl::detail::delinearize(1, r);
  EXPECT_EQ(i0[1] + 1, i1[1]);
  EXPECT_EQ(i0[0], i1[0]);
}

TEST(NdRange, RejectsNonDividingLocal) {
  EXPECT_THROW(sycl::nd_range<1>(sycl::range<1>(100), sycl::range<1>(32)),
               std::invalid_argument);
  EXPECT_NO_THROW(sycl::nd_range<1>(sycl::range<1>(128), sycl::range<1>(32)));
}

TEST(Queue, FlatParallelForVisitsAllItems1D) {
  sycl::queue q;
  std::vector<int> v(1000, 0);
  int* p = v.data();
  q.parallel_for(sycl::range<1>(1000), [=](sycl::item<1> it) {
    p[it.get_linear_id()] += static_cast<int>(it[0]);
  });
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
}

TEST(Queue, FlatParallelForAcceptsIdKernel) {
  sycl::queue q;
  std::vector<int> v(64, 0);
  int* p = v.data();
  q.parallel_for(sycl::range<1>(64), [=](sycl::id<1> i) { p[i[0]] = 7; });
  for (int x : v) EXPECT_EQ(x, 7);
}

TEST(Queue, FlatParallelFor3D) {
  sycl::queue q;
  const std::size_t nx = 5, ny = 6, nz = 7;
  std::vector<int> v(nx * ny * nz, 0);
  int* p = v.data();
  q.parallel_for(sycl::range<3>(nx, ny, nz), [=](sycl::item<3> it) {
    p[(it[0] * ny + it[1]) * nz + it[2]] += 1;
  });
  for (int x : v) EXPECT_EQ(x, 1);
}

TEST(Queue, NdRangeGlobalIdsCoverSpace) {
  sycl::queue q;
  const std::size_t n = 256;
  std::vector<int> hits(n, 0);
  int* p = hits.data();
  q.parallel_for(sycl::nd_range<1>(sycl::range<1>(n), sycl::range<1>(32)),
                 [=](sycl::nd_item<1> it) { p[it.get_global_id(0)] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Queue, NdRangeGroupDecomposition) {
  sycl::queue q;
  std::vector<int> group_of(64, -1), local_of(64, -1);
  int* g = group_of.data();
  int* l = local_of.data();
  q.parallel_for(sycl::nd_range<1>(sycl::range<1>(64), sycl::range<1>(16)),
                 [=](sycl::nd_item<1> it) {
                   g[it.get_global_id(0)] = static_cast<int>(it.get_group(0));
                   l[it.get_global_id(0)] =
                       static_cast<int>(it.get_local_id(0));
                 });
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(group_of[i], static_cast<int>(i / 16));
    EXPECT_EQ(local_of[i], static_cast<int>(i % 16));
  }
}

TEST(Queue, NdRange2DShape) {
  sycl::queue q;
  const std::size_t ny = 8, nx = 12;
  std::vector<int> v(ny * nx, 0);
  int* p = v.data();
  q.parallel_for(
      sycl::nd_range<2>(sycl::range<2>(ny, nx), sycl::range<2>(2, 4)),
      [=](sycl::nd_item<2> it) {
        p[it.get_global_id(0) * nx + it.get_global_id(1)] += 1;
      });
  for (int x : v) EXPECT_EQ(x, 1);
}

TEST(Queue, WorkGroupSizeLimitEnforced) {
  sycl::device_profile prof;
  prof.max_work_group_size = 64;
  sycl::queue q{sycl::device(prof)};
  EXPECT_THROW(
      q.parallel_for(sycl::nd_range<1>(sycl::range<1>(256), sycl::range<1>(128)),
                     [](sycl::nd_item<1>) {}),
      sycl::exception);
}

TEST(Queue, BarrierAndLocalMemoryReverse) {
  // Stage values into local memory, barrier, read back reversed.
  sycl::queue q;
  const std::size_t n = 128, wg = 16;
  std::vector<int> out(n, 0);
  int* p = out.data();
  sycl::local_accessor<int, 1> scratch{sycl::range<1>(wg)};
  q.parallel_for(sycl::nd_range<1>(sycl::range<1>(n), sycl::range<1>(wg)),
                 [=](sycl::nd_item<1> it) {
                   const std::size_t li = it.get_local_id(0);
                   scratch[li] = static_cast<int>(it.get_global_id(0));
                   it.barrier();
                   p[it.get_global_id(0)] = scratch[wg - 1 - li];
                 });
  for (std::size_t g = 0; g < n / wg; ++g)
    for (std::size_t li = 0; li < wg; ++li)
      EXPECT_EQ(out[g * wg + li], static_cast<int>(g * wg + (wg - 1 - li)));
}

TEST(Queue, LocalMemoryIsZeroInitialisedPerGroup) {
  sycl::queue q;
  const std::size_t n = 64, wg = 8;
  std::vector<int> first(n / wg, -1);
  int* p = first.data();
  sycl::local_accessor<int, 1> counter{sycl::range<1>(1)};
  q.parallel_for(sycl::nd_range<1>(sycl::range<1>(n), sycl::range<1>(wg)),
                 [=](sycl::nd_item<1> it) {
                   if (it.get_local_id(0) == 0)
                     p[it.get_group(0)] = counter[0];  // must read 0
                 });
  for (int v : first) EXPECT_EQ(v, 0);
}

TEST(Reduction, FlatSum) {
  sycl::queue q;
  double sum = 0.0;
  q.parallel_for(sycl::range<1>(1000),
                 sycl::reduction(&sum, sycl::plus<double>{}),
                 [=](sycl::item<1> it, auto& r) {
                   r += static_cast<double>(it[0] + 1);
                 });
  EXPECT_DOUBLE_EQ(sum, 1000.0 * 1001.0 / 2.0);
}

TEST(Reduction, CombinesWithExistingValue) {
  sycl::queue q;
  double sum = 100.0;
  q.parallel_for(sycl::range<1>(10), sycl::reduction(&sum, sycl::plus<double>{}),
                 [=](sycl::item<1>, auto& r) { r += 1.0; });
  EXPECT_DOUBLE_EQ(sum, 110.0);
}

TEST(Reduction, Minimum) {
  sycl::queue q;
  double mn = std::numeric_limits<double>::max();
  q.parallel_for(sycl::range<1>(100),
                 sycl::reduction(&mn, sycl::minimum<double>{}),
                 [=](sycl::item<1> it, auto& r) {
                   r.combine(100.0 - static_cast<double>(it[0]));
                 });
  EXPECT_DOUBLE_EQ(mn, 1.0);
}

TEST(Reduction, Maximum) {
  sycl::queue q;
  double mx = std::numeric_limits<double>::lowest();
  q.parallel_for(sycl::range<1>(100),
                 sycl::reduction(&mx, sycl::maximum<double>{}),
                 [=](sycl::item<1> it, auto& r) {
                   r.combine(static_cast<double>(it[0]));
                 });
  EXPECT_DOUBLE_EQ(mx, 99.0);
}

TEST(Reduction, NdRangeSum) {
  sycl::queue q;
  double sum = 0.0;
  q.parallel_for(sycl::nd_range<1>(sycl::range<1>(512), sycl::range<1>(64)),
                 sycl::reduction(&sum, sycl::plus<double>{}),
                 [=](sycl::nd_item<1>, auto& r) { r += 1.0; });
  EXPECT_DOUBLE_EQ(sum, 512.0);
}

TEST(Queue, NdRangeBarrierInSomeGroupsOnly) {
  // Barriers are uniform within each group but not across the launch:
  // every third group reverses its slice through local memory, the
  // others copy theirs straight through with no barrier.
  sycl::queue q;
  const std::size_t n = 48 * 16, wg = 16;
  std::vector<int> in(n), out(n, -1);
  std::iota(in.begin(), in.end(), 0);
  const int* src = in.data();
  int* dst = out.data();
  sycl::local_accessor<int, 1> tile{sycl::range<1>(wg)};
  sycl::launch_log::instance().clear();
  sycl::launch_log::instance().set_enabled(true);
  q.parallel_for("some_barriers",
                 sycl::nd_range<1>(sycl::range<1>(n), sycl::range<1>(wg)),
                 [=](sycl::nd_item<1> it) {
                   const std::size_t g = it.get_global_id(0);
                   const std::size_t l = it.get_local_id(0);
                   if (it.get_group(0) % 3 != 0) {
                     dst[g] = src[g];
                     return;
                   }
                   tile[l] = src[g];
                   it.barrier();
                   dst[g] = tile[wg - 1 - l];
                 });
  sycl::launch_log::instance().set_enabled(false);
  const auto records = sycl::launch_log::instance().snapshot();
  sycl::launch_log::instance().clear();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t grp = i / wg, l = i % wg;
    const std::size_t from = grp % 3 != 0 ? i : grp * wg + wg - 1 - l;
    ASSERT_EQ(out[i], static_cast<int>(from)) << "item " << i;
  }
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].used_barrier);
}

TEST(Reduction, NdRangeBitIdenticalAcrossSchedulesAndGrains) {
  // Terms of very different magnitudes, so any change in summation
  // order changes the bits. Each group adds its items in local linear
  // order and the group partials fold in group order: the reference
  // below, whatever the schedule, grain or pool size.
  const std::size_t ny = 24, nx = 40, ly = 4, lx = 8;
  std::vector<double> v(ny * nx);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = (i % 7 == 0 ? 1e12 : 1.0) / static_cast<double>(i + 3);
  double ref = 0.5;
  for (std::size_t gy = 0; gy < ny / ly; ++gy)
    for (std::size_t gx = 0; gx < nx / lx; ++gx) {
      double part = 0.0;
      for (std::size_t y = 0; y < ly; ++y)
        for (std::size_t x = 0; x < lx; ++x)
          part += v[(gy * ly + y) * nx + gx * lx + x];
      ref += part;
    }
  const double* p = v.data();
  sycl::queue q;
  for (auto sched : {syclport::rt::Schedule::Static,
                     syclport::rt::Schedule::Dynamic,
                     syclport::rt::Schedule::Steal})
    for (std::optional<std::size_t> grain :
         {std::optional<std::size_t>{}, std::optional<std::size_t>{1},
          std::optional<std::size_t>{3}, std::optional<std::size_t>{7}}) {
      const syclport::rt::ScopedLaunchParams params(sched, grain);
      double sum = 0.5;
      q.parallel_for(
          sycl::nd_range<2>(sycl::range<2>(ny, nx), sycl::range<2>(ly, lx)),
          sycl::reduction(&sum, sycl::plus<double>{}),
          [=](sycl::nd_item<2> it, auto& r) {
            r += p[it.get_global_id(0) * nx + it.get_global_id(1)];
          });
      EXPECT_EQ(std::memcmp(&sum, &ref, sizeof sum), 0)
          << syclport::rt::to_string(sched) << " grain "
          << grain.value_or(0) << ": " << sum << " vs " << ref;
    }
}

TEST(Reduction, TwoDimensionalIterationSpace) {
  sycl::queue q;
  double sum = 0.0;
  q.parallel_for(sycl::range<2>(20, 30),
                 sycl::reduction(&sum, sycl::plus<double>{}),
                 [=](sycl::item<2>, auto& r) { r += 1.0; });
  EXPECT_DOUBLE_EQ(sum, 600.0);
}

TEST(Atomics, ConcurrentFloatFetchAdd) {
  sycl::queue q;
  double total = 0.0;
  double* t = &total;
  q.parallel_for(sycl::range<1>(10000), [=](sycl::item<1>) {
    sycl::atomic_ref<double> a(*t);
    a.fetch_add(1.0);
  });
  EXPECT_DOUBLE_EQ(total, 10000.0);
}

TEST(Atomics, FetchMinMax) {
  sycl::queue q;
  int mn = 1 << 30, mx = -(1 << 30);
  int* pmn = &mn;
  int* pmx = &mx;
  q.parallel_for(sycl::range<1>(1000), [=](sycl::item<1> it) {
    const int v = static_cast<int>(it[0]) - 500;
    sycl::atomic_ref<int>(*pmn).fetch_min(v);
    sycl::atomic_ref<int>(*pmx).fetch_max(v);
  });
  EXPECT_EQ(mn, -500);
  EXPECT_EQ(mx, 499);
}

TEST(Buffer, AccessorReadsAndWritesHostData) {
  std::vector<float> host(100);
  std::iota(host.begin(), host.end(), 0.0f);
  sycl::queue q;
  {
    sycl::buffer<float, 1> buf(host.data(), sycl::range<1>(100));
    q.submit([&](sycl::handler& h) {
      sycl::accessor<float, 1> acc(buf, h, sycl::read_write);
      h.parallel_for(sycl::range<1>(100),
                     [=](sycl::item<1> it) { acc[it.get_id()] *= 2.0f; });
    });
  }
  for (std::size_t i = 0; i < 100; ++i)
    EXPECT_FLOAT_EQ(host[i], 2.0f * static_cast<float>(i));
}

TEST(Buffer, OwnedBufferZeroInitialised) {
  sycl::buffer<double, 2> buf(sycl::range<2>(4, 4));
  sycl::host_accessor<double, 2> acc(buf);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      EXPECT_EQ((acc[sycl::id<2>(i, j)]), 0.0);
}

TEST(Usm, AllocFreeTracksOutstanding) {
  sycl::queue q;
  const std::size_t before = sycl::usm_outstanding();
  double* p = sycl::malloc_device<double>(256, q);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(sycl::usm_outstanding(), before + 1);
  q.fill(p, 3.0, 256);
  EXPECT_DOUBLE_EQ(p[255], 3.0);
  sycl::free(p, q);
  EXPECT_EQ(sycl::usm_outstanding(), before);
}

TEST(Usm, MemcpyCopiesBytes) {
  sycl::queue q;
  std::vector<int> src(64);
  std::iota(src.begin(), src.end(), 5);
  int* dst = sycl::malloc_shared<int>(64, q);
  q.memcpy(dst, src.data(), 64 * sizeof(int));
  for (int i = 0; i < 64; ++i) EXPECT_EQ(dst[static_cast<std::size_t>(i)], src[static_cast<std::size_t>(i)]);
  sycl::free(dst, q);
}

TEST(LaunchLog, RecordsShapesAndFlatness) {
  auto& log = sycl::launch_log::instance();
  log.clear();
  log.set_enabled(true);
  sycl::queue q;
  q.parallel_for("flat_kernel", sycl::range<2>(8, 16), [](sycl::item<2>) {});
  q.parallel_for("nd_kernel",
                 sycl::nd_range<2>(sycl::range<2>(8, 16), sycl::range<2>(2, 8)),
                 [](sycl::nd_item<2>) {});
  log.set_enabled(false);
  auto recs = log.snapshot();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].kernel_name, "flat_kernel");
  EXPECT_FALSE(recs[0].local.has_value());
  EXPECT_EQ(recs[0].global[1], 16u);
  EXPECT_EQ(recs[1].kernel_name, "nd_kernel");
  ASSERT_TRUE(recs[1].local.has_value());
  EXPECT_EQ((*recs[1].local)[0], 2u);
  log.clear();
}

TEST(LaunchLog, DisabledLogRecordsNothing) {
  auto& log = sycl::launch_log::instance();
  log.clear();
  sycl::queue q;
  q.parallel_for(sycl::range<1>(8), [](sycl::item<1>) {});
  EXPECT_EQ(log.size(), 0u);
}

TEST(SingleTask, Runs) {
  sycl::queue q;
  int x = 0;
  q.single_task([&] { x = 9; });
  EXPECT_EQ(x, 9);
}

// Parameterized sweep: nd_range results must be identical for any legal
// work-group size (SYCL portability invariant the whole study rests on).
class WorkGroupSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WorkGroupSweep, SaxpyIndependentOfGroupSize) {
  const std::size_t wg = GetParam();
  const std::size_t n = 768;  // divisible by all tested sizes
  sycl::queue q;
  std::vector<float> x(n, 2.0f), y(n, 1.0f);
  float* xp = x.data();
  float* yp = y.data();
  q.parallel_for(sycl::nd_range<1>(sycl::range<1>(n), sycl::range<1>(wg)),
                 [=](sycl::nd_item<1> it) {
                   const std::size_t i = it.get_global_id(0);
                   yp[i] = 3.0f * xp[i] + yp[i];
                 });
  for (float v : y) EXPECT_FLOAT_EQ(v, 7.0f);
}

INSTANTIATE_TEST_SUITE_P(Sizes, WorkGroupSweep,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128, 256));

// ---------------------------------------------------------------------
// Out-of-order queue: accessor-derived dependency DAG, real
// synchronization points, asynchronous error capture.

namespace {

/// Declare a raw allocation in a command group's footprint.
void touch(sycl::handler& h, const void* p, sycl::access_mode m) {
  h.require(p, m);
}

}  // namespace

TEST(OutOfOrder, RawChainExecutesInSubmissionOrder) {
  sycl::queue q;
  std::vector<int> v(64, 0);
  int* p = v.data();
  // write -> read-modify -> read-modify: each step depends on the last.
  q.submit([&](sycl::handler& h) {
    touch(h, p, sycl::access_mode::write);
    h.parallel_for(sycl::range<1>(v.size()),
                   [p](sycl::id<1> i) { p[i[0]] = 1; });
  });
  for (int step = 0; step < 4; ++step) {
    q.submit([&](sycl::handler& h) {
      touch(h, p, sycl::access_mode::read_write);
      h.parallel_for(sycl::range<1>(v.size()),
                     [p](sycl::id<1> i) { p[i[0]] = 2 * p[i[0]] + 1; });
    });
  }
  q.wait();
  // 1 -> 3 -> 7 -> 15 -> 31: any reordering gives a different value.
  for (int x : v) EXPECT_EQ(x, 31);
}

TEST(OutOfOrder, IndependentCommandsRunConcurrently) {
  // Two commands with disjoint footprints must be in flight at the same
  // time: each raises its flag and then waits (with a deadline) to see
  // the other's. A serializing scheduler times out on both.
  sycl::queue q;
  int a = 0, b = 0;
  std::atomic<bool> fa{false}, fb{false};
  std::atomic<bool> saw_a{false}, saw_b{false};
  auto handshake = [](std::atomic<bool>& mine, std::atomic<bool>& other,
                      std::atomic<bool>& saw) {
    mine.store(true);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
      if (other.load()) {
        saw.store(true);
        return;
      }
      std::this_thread::yield();
    }
  };
  q.submit([&](sycl::handler& h) {
    touch(h, &a, sycl::access_mode::write);
    h.single_task([&] { handshake(fa, fb, saw_a); });
  });
  q.submit([&](sycl::handler& h) {
    touch(h, &b, sycl::access_mode::write);
    h.single_task([&] { handshake(fb, fa, saw_b); });
  });
  q.wait();
  EXPECT_TRUE(saw_a.load());
  EXPECT_TRUE(saw_b.load());
}

TEST(OutOfOrder, WarHazardDefersWriterUntilReaderFinishes) {
  sycl::queue q;
  std::vector<int> src(256);
  std::iota(src.begin(), src.end(), 0);
  std::vector<int> copy(src.size(), -1);
  int* sp = src.data();
  int* cp = copy.data();
  // Slow reader: copies src while stalling, so an unordered writer
  // would race it and corrupt the copy.
  q.submit([&](sycl::handler& h) {
    touch(h, sp, sycl::access_mode::read);
    touch(h, cp, sycl::access_mode::write);
    h.single_task([sp, cp, n = src.size()] {
      for (std::size_t i = 0; i < n; ++i) {
        cp[i] = sp[i];
        if (i % 64 == 0)
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  });
  // Writer conflicts (WAR) and must wait for the reader.
  q.submit([&](sycl::handler& h) {
    touch(h, sp, sycl::access_mode::write);
    h.parallel_for(sycl::range<1>(src.size()),
                   [sp](sycl::id<1> i) { sp[i[0]] = -7; });
  });
  q.wait();
  for (std::size_t i = 0; i < copy.size(); ++i)
    EXPECT_EQ(copy[i], static_cast<int>(i)) << "reader saw the writer";
  for (int x : src) EXPECT_EQ(x, -7);
}

TEST(OutOfOrder, AccessorsDeriveTheFootprint) {
  // Same RAW chain, but the footprint comes from buffer accessors
  // instead of explicit require() calls.
  std::vector<float> host(128, 0.0f);
  {
    sycl::buffer<float, 1> buf(host.data(), sycl::range<1>(host.size()));
    sycl::queue q;
    q.submit([&](sycl::handler& h) {
      sycl::accessor out(buf, h, sycl::write_only);
      h.parallel_for(sycl::range<1>(host.size()),
                     [out](sycl::id<1> i) { out[i[0]] = 2.0f; });
    });
    q.submit([&](sycl::handler& h) {
      sycl::accessor io(buf, h, sycl::read_write);
      h.parallel_for(sycl::range<1>(host.size()),
                     [io](sycl::id<1> i) { io[i[0]] += 3.0f; });
    });
    // Buffer destruction is a synchronization point: no q.wait() needed.
  }
  for (float x : host) EXPECT_FLOAT_EQ(x, 5.0f);
}

TEST(OutOfOrder, HostAccessorSynchronizes) {
  std::vector<int> host(64, 0);
  sycl::buffer<int, 1> buf(host.data(), sycl::range<1>(host.size()));
  sycl::queue q;
  q.submit([&](sycl::handler& h) {
    sycl::accessor out(buf, h, sycl::write_only);
    h.single_task([out, n = host.size()] {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      for (std::size_t i = 0; i < n; ++i) out[i] = 9;
    });
  });
  sycl::host_accessor ha(buf);
  for (std::size_t i = 0; i < host.size(); ++i) EXPECT_EQ(ha[i], 9);
}

TEST(OutOfOrder, UndeclaredFootprintRunsSynchronously) {
  // A command group with no accessors / require / depends_on cannot be
  // placed in the DAG; it must have run by the time submit returns.
  sycl::queue q;
  int x = 0;
  q.submit([&](sycl::handler& h) { h.single_task([&x] { x = 42; }); });
  EXPECT_EQ(x, 42);
}

TEST(OutOfOrder, InOrderPropertyKeepsSynchronousSemantics) {
  sycl::queue q(sycl::property_list{sycl::property::queue::in_order{}});
  EXPECT_TRUE(q.is_in_order());
  int x = 0;
  q.submit([&](sycl::handler& h) {
    h.require(&x, sycl::access_mode::write);
    h.single_task([&x] { x = 7; });
  });
  EXPECT_EQ(x, 7);  // visible immediately: no wait() was issued

  sycl::queue ooo;
  EXPECT_FALSE(ooo.is_in_order());
}

TEST(OutOfOrder, EventWaitRethrowsKernelException) {
  sycl::queue q;
  int x = 0;
  sycl::event ev = q.submit([&](sycl::handler& h) {
    h.require(&x, sycl::access_mode::write);
    h.single_task([] { throw std::runtime_error("boom"); });
  });
  EXPECT_THROW(ev.wait(), std::runtime_error);
  // Consumed: the queue has nothing left to surface.
  EXPECT_NO_THROW(q.wait_and_throw());
}

TEST(OutOfOrder, WaitAndThrowRethrowsWithoutHandler) {
  sycl::queue q;
  int x = 0;
  q.submit([&](sycl::handler& h) {
    h.require(&x, sycl::access_mode::write);
    h.single_task([] { throw std::logic_error("async"); });
  });
  EXPECT_THROW(q.wait_and_throw(), std::logic_error);
}

TEST(OutOfOrder, QueueStaysUsableAfterDeliveredException) {
  // Regression for the resilience paths: after wait_and_throw delivers
  // a kernel exception, the queue, the scheduler DAG and the shared
  // command pool must accept and order new work as if nothing happened.
  sycl::queue q;
  std::vector<int> v(32, 0);
  int* p = v.data();
  q.submit([&](sycl::handler& h) {
    h.require(p, sycl::access_mode::write);
    h.single_task([] { throw std::runtime_error("first wave"); });
  });
  EXPECT_THROW(q.wait_and_throw(), std::runtime_error);

  // Same footprint, new work: a RAW chain that only yields 7 when the
  // dependency edges are honoured.
  q.submit([&](sycl::handler& h) {
    h.require(p, sycl::access_mode::write);
    h.parallel_for(sycl::range<1>(v.size()),
                   [p](sycl::id<1> i) { p[i[0]] = 3; });
  });
  q.submit([&](sycl::handler& h) {
    h.require(p, sycl::access_mode::read_write);
    h.parallel_for(sycl::range<1>(v.size()),
                   [p](sycl::id<1> i) { p[i[0]] = 2 * p[i[0]] + 1; });
  });
  EXPECT_NO_THROW(q.wait_and_throw());
  for (int x : v) ASSERT_EQ(x, 7);

  // Other queues on the same scheduler are unaffected.
  sycl::queue q2;
  int y = 0;
  q2.submit([&](sycl::handler& h) {
    h.require(&y, sycl::access_mode::write);
    h.single_task([&y] { y = 5; });
  });
  EXPECT_NO_THROW(q2.wait_and_throw());
  EXPECT_EQ(y, 5);
}

TEST(OutOfOrder, AsyncHandlerReceivesExceptionList) {
  std::size_t delivered = 0;
  std::string what;
  sycl::queue q([&](sycl::exception_list l) {
    delivered = l.size();
    for (auto& e : l) {
      try {
        std::rethrow_exception(e);
      } catch (const std::exception& ex) {
        what = ex.what();
      }
    }
  });
  int x = 0;
  q.submit([&](sycl::handler& h) {
    h.require(&x, sycl::access_mode::write);
    h.single_task([] { throw std::runtime_error("handled"); });
  });
  EXPECT_NO_THROW(q.wait_and_throw());
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(what, "handled");
}

TEST(OutOfOrder, DependsOnOrdersDisjointFootprints) {
  // Two commands with unrelated footprints, ordered only by the event:
  // the second copies what the first (slowly) produced.
  sycl::queue q;
  int* src = sycl::malloc_shared<int>(64, q);
  int* dst = sycl::malloc_shared<int>(64, q);
  sycl::event first = q.submit([&](sycl::handler& h) {
    h.require(src, sycl::access_mode::write);
    h.single_task([src] {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      for (int i = 0; i < 64; ++i) src[i] = i * i;
    });
  });
  q.submit([&](sycl::handler& h) {
    h.require(dst, sycl::access_mode::write);
    h.depends_on(first);
    h.single_task([src, dst] {
      for (int i = 0; i < 64; ++i) dst[i] = src[i];
    });
  });
  q.wait();
  for (int i = 0; i < 64; ++i) EXPECT_EQ(dst[i], i * i);
  sycl::free(src, q);
  sycl::free(dst, q);
}

TEST(OutOfOrder, CommandRecordsCarryDagAndTimestamps) {
  auto& log = sycl::launch_log::instance();
  log.clear();
  log.set_enabled(true);
  sycl::queue q;
  std::vector<double> v(32, 0.0);
  double* p = v.data();
  // submit() counts only edges to commands still in flight, so the first
  // command is held until the second has been submitted; otherwise a
  // fast worker could retire it first and the RAW edge would go
  // uncounted. submit() never runs a command inline while the scheduler
  // is live, so holding it cannot deadlock.
  std::atomic<bool> release{false};
  q.submit([&](sycl::handler& h) {
    touch(h, p, sycl::access_mode::write);
    h.single_task([p, &release] {
      while (!release.load(std::memory_order_acquire))
        std::this_thread::yield();
      p[0] = 1.0;
    });
  });
  q.submit([&](sycl::handler& h) {
    touch(h, p, sycl::access_mode::read_write);
    h.single_task([p] { p[0] += 1.0; });
  });
  release.store(true, std::memory_order_release);
  q.wait();
  log.set_enabled(false);
  const auto cmds = log.commands_snapshot();
  log.clear();
  ASSERT_EQ(cmds.size(), 2u);
  EXPECT_EQ(cmds[0].profile.dep_edges, 0u);
  EXPECT_EQ(cmds[1].profile.dep_edges, 1u);  // the RAW edge
  for (const auto& c : cmds) {
    EXPECT_GE(c.profile.start_seconds, c.profile.submit_seconds);
    EXPECT_GE(c.profile.end_seconds, c.profile.start_seconds);
  }
  EXPECT_EQ(cmds[0].queue_id, cmds[1].queue_id);
  EXPECT_EQ(v[0], 2.0);
}

TEST(OutOfOrder, QueueWaitScopesToTheQueue) {
  // wait() on one queue must not be confused by another queue's
  // commands; both drain correctly regardless.
  sycl::queue q1, q2;
  int a = 0, b = 0;
  q1.submit([&](sycl::handler& h) {
    h.require(&a, sycl::access_mode::write);
    h.single_task([&a] { a = 1; });
  });
  q2.submit([&](sycl::handler& h) {
    h.require(&b, sycl::access_mode::write);
    h.single_task([&b] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      b = 2;
    });
  });
  q1.wait();
  EXPECT_EQ(a, 1);
  q2.wait();
  EXPECT_EQ(b, 2);
}
