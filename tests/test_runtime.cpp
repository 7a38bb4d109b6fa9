// Unit tests for the runtime substrate: thread pool scheduling (static /
// dynamic / work-stealing), launch params, and fiber-based work-group
// barriers with pooled stacks.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "runtime/fiber.hpp"
#include "runtime/thread_pool.hpp"

namespace rt = syclport::rt;

TEST(ThreadPool, RunsEveryChunkExactlyOnce) {
  rt::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.run_chunks(100, [&](std::size_t c) { hits[c].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForCoversRangeWithoutOverlap) {
  rt::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1234);
  pool.parallel_for(1234, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SizeOnePoolIsSerial) {
  rt::ThreadPool pool(1);
  int counter = 0;  // unsynchronized on purpose: must be safe when serial
  pool.run_chunks(50, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter, 50);
}

TEST(ThreadPool, EmptyJobIsNoop) {
  rt::ThreadPool pool(2);
  pool.run_chunks(0, [&](std::size_t) { FAIL() << "must not run"; });
  pool.parallel_for(0, [&](std::size_t, std::size_t) { FAIL(); });
}

TEST(ThreadPool, PropagatesFirstException) {
  rt::ThreadPool pool(2);
  EXPECT_THROW(pool.run_chunks(8,
                               [&](std::size_t c) {
                                 if (c == 3) throw std::runtime_error("boom");
                               }),
               std::runtime_error);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  rt::ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> n{0};
    pool.run_chunks(16, [&](std::size_t) { n.fetch_add(1); });
    ASSERT_EQ(n.load(), 16);
  }
}

TEST(ThreadPool, GlobalPoolHasAtLeastTwoWorkers) {
  EXPECT_GE(rt::ThreadPool::global().size(), 2u);
}

// --- scheduling policies and launch params ----------------------------------

namespace {

/// RAII helper pinning the process schedule/grain for one test.
struct WithParams {
  explicit WithParams(rt::Schedule s, std::size_t grain = 1)
      : scope(s, grain) {}
  rt::ScopedLaunchParams scope;
};

/// A little spin work so chunks are not instantaneous (volatile so the
/// loop survives optimisation even when the result is discarded).
double spin(int iters) {
  volatile double x = 1.0;
  for (int i = 0; i < iters; ++i) x = x * 1.0000001 + 1e-9;
  return x;
}

}  // namespace

TEST(ThreadPool, ScheduleParsing) {
  EXPECT_EQ(rt::parse_schedule("static"), rt::Schedule::Static);
  EXPECT_EQ(rt::parse_schedule("dynamic"), rt::Schedule::Dynamic);
  EXPECT_EQ(rt::parse_schedule("steal"), rt::Schedule::Steal);
  EXPECT_FALSE(rt::parse_schedule("guided").has_value());
  EXPECT_FALSE(rt::parse_schedule("").has_value());
  EXPECT_STREQ(rt::to_string(rt::Schedule::Steal), "steal");
  EXPECT_STREQ(rt::to_string(rt::Schedule::Static), "static");
  EXPECT_STREQ(rt::to_string(rt::Schedule::Dynamic), "dynamic");
}

TEST(ThreadPool, ScopedLaunchParamsRestores) {
  const rt::LaunchParams before = rt::launch_params();
  {
    rt::ScopedLaunchParams scope(rt::Schedule::Static, std::size_t{128});
    EXPECT_EQ(rt::launch_params().schedule, rt::Schedule::Static);
    EXPECT_EQ(rt::launch_params().grain, 128u);
    {
      // Partial override: only the grain changes.
      rt::ScopedLaunchParams inner(std::nullopt, std::size_t{7});
      EXPECT_EQ(rt::launch_params().schedule, rt::Schedule::Static);
      EXPECT_EQ(rt::launch_params().grain, 7u);
    }
    EXPECT_EQ(rt::launch_params().grain, 128u);
  }
  EXPECT_EQ(rt::launch_params().schedule, before.schedule);
  EXPECT_EQ(rt::launch_params().grain, before.grain);
}

TEST(ThreadPool, EveryScheduleCoversAllChunksExactlyOnce) {
  for (const auto sched : {rt::Schedule::Static, rt::Schedule::Dynamic,
                           rt::Schedule::Steal}) {
    WithParams params(sched);
    rt::ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(503);
    pool.run_chunks(503, [&](std::size_t c) { hits[c].fetch_add(1); });
    for (auto& h : hits) ASSERT_EQ(h.load(), 1) << rt::to_string(sched);
    const auto st = rt::ThreadPool::last_stats();
    EXPECT_EQ(st.schedule, sched);
    EXPECT_EQ(st.chunks, 503u);
  }
}

TEST(ThreadPool, StealingRebalancesUnbalancedChunks) {
  WithParams params(rt::Schedule::Steal);
  rt::ThreadPool pool(4);
  // Front-loaded work: the first workers' static shares are ~100x the
  // last's, so idle workers must steal to finish early chunks.
  std::vector<std::atomic<int>> hits(256);
  pool.run_chunks(256, [&](std::size_t c) {
    spin(c < 64 ? 20000 : 200);
    hits[c].fetch_add(1);
  });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
  const auto st = rt::ThreadPool::last_stats();
  EXPECT_TRUE(st.parallel);
  EXPECT_EQ(st.chunks, 256u);
  // stolen_chunks never exceeds the launch's chunk count.
  EXPECT_LE(st.stolen_chunks, 256u);
}

TEST(ThreadPool, ExceptionCancelsRemainingChunks) {
  for (const auto sched : {rt::Schedule::Static, rt::Schedule::Dynamic,
                           rt::Schedule::Steal}) {
    WithParams params(sched);
    rt::ThreadPool pool(2);
    const std::size_t nchunks = 20000;
    std::atomic<std::size_t> executed{0};
    std::atomic<bool> thrown{false};
    EXPECT_THROW(pool.run_chunks(nchunks,
                                 [&](std::size_t) {
                                   if (!thrown.exchange(true))
                                     throw std::runtime_error("boom");
                                   executed.fetch_add(1);
                                   spin(100);
                                 }),
                 std::runtime_error)
        << rt::to_string(sched);
    // The cancel flag set by the first exception must skip (nearly all of)
    // the remaining chunks instead of running the job to completion.
    EXPECT_LT(executed.load(), nchunks - 1) << rt::to_string(sched);
  }
}

TEST(ThreadPool, ExceptionUnderStealingStillPropagates) {
  WithParams params(rt::Schedule::Steal);
  rt::ThreadPool pool(4);
  // Heavy head so thieves are active when the late chunk throws.
  EXPECT_THROW(pool.run_chunks(512,
                               [&](std::size_t c) {
                                 if (c < 32) spin(20000);
                                 if (c == 500)
                                   throw std::logic_error("stolen boom");
                               }),
               std::logic_error);
  // The pool must remain usable after a cancelled job.
  std::atomic<int> n{0};
  pool.run_chunks(64, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 64);
}

TEST(ThreadPool, GrainControlsMinimumChunkSize) {
  WithParams params(rt::Schedule::Steal, 256);
  rt::ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  pool.parallel_for(1000, [&](std::size_t b, std::size_t e) {
    std::lock_guard lock(mu);
    ranges.emplace_back(b, e);
  });
  std::size_t covered = 0;
  for (const auto& [b, e] : ranges) {
    ASSERT_LT(b, e);
    covered += e - b;
    // Every chunk except the tail must honour the 256-iteration grain.
    if (e != 1000) {
      EXPECT_GE(e - b, 256u);
    }
  }
  EXPECT_EQ(covered, 1000u);
}

TEST(ThreadPool, MoveOnlyCallableProvesNoStdFunctionOnFastPath) {
  // std::function requires a copyable callable; accepting a move-only
  // lambda proves the templated launch path never constructs one.
  rt::ThreadPool pool(3);
  auto flag = std::make_unique<std::atomic<int>>(0);
  std::atomic<int>* raw = flag.get();
  auto fn = [p = std::move(flag)](std::size_t) { p->fetch_add(1); };
  static_assert(!std::is_copy_constructible_v<decltype(fn)>);
  pool.run_chunks(100, fn);
  EXPECT_EQ(raw->load(), 100);
  std::atomic<int> total{0};
  auto fn2 = [q = std::make_unique<int>(1), &total](std::size_t b,
                                                    std::size_t e) {
    total.fetch_add(static_cast<int>(e - b) * *q);
  };
  static_assert(!std::is_copy_constructible_v<decltype(fn2)>);
  pool.parallel_for(1000, fn2);
  EXPECT_EQ(total.load(), 1000);
}

TEST(ThreadPool, ReentrantLaunchRunsInlineWithoutDeadlock) {
  rt::ThreadPool pool(3);
  std::atomic<int> inner_total{0};
  pool.run_chunks(6, [&](std::size_t) {
    // A launch from inside a running chunk must not block on the busy
    // workers; it degrades to inline serial execution.
    pool.run_chunks(10, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 60);
}

TEST(ThreadPool, RepeatedLaunchesStressAllSchedules) {
  for (const auto sched : {rt::Schedule::Static, rt::Schedule::Dynamic,
                           rt::Schedule::Steal}) {
    WithParams params(sched);
    rt::ThreadPool pool(4);
    for (int round = 0; round < 200; ++round) {
      std::atomic<int> n{0};
      pool.run_chunks(17, [&](std::size_t) { n.fetch_add(1); });
      ASSERT_EQ(n.load(), 17) << rt::to_string(sched) << " round " << round;
    }
  }
}

TEST(Fiber, RunsToCompletion) {
  int x = 0;
  rt::Fiber f([&] { x = 42; });
  EXPECT_FALSE(f.resume());
  EXPECT_TRUE(f.done());
  EXPECT_EQ(x, 42);
}

TEST(Fiber, YieldSuspendsAndResumes) {
  std::vector<int> trace;
  rt::Fiber f([&] {
    trace.push_back(1);
    rt::Fiber::yield();
    trace.push_back(2);
  });
  EXPECT_TRUE(f.resume());
  EXPECT_EQ(trace, (std::vector<int>{1}));
  EXPECT_FALSE(f.resume());
  EXPECT_EQ(trace, (std::vector<int>{1, 2}));
}

TEST(Fiber, PropagatesException) {
  rt::Fiber f([] { throw std::logic_error("inside fiber"); });
  EXPECT_THROW(f.resume(), std::logic_error);
  EXPECT_TRUE(f.done());
}

TEST(BarrierGroup, FastPathWhenNoBarrier) {
  std::vector<int> out(16, 0);
  const bool used = rt::run_barrier_group(16, [&](std::size_t i) {
    out[i] = static_cast<int>(i);
  });
  EXPECT_FALSE(used);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
}

TEST(BarrierGroup, BarrierSynchronizesPhases) {
  // Phase 1: each item writes its slot. Barrier. Phase 2: each item reads
  // its neighbour's slot - only correct if the barrier is honoured.
  const std::size_t n = 32;
  std::vector<int> a(n, -1), b(n, -1);
  const bool used = rt::run_barrier_group(n, [&](std::size_t i) {
    a[i] = static_cast<int>(i) * 10;
    rt::group_barrier();
    b[i] = a[(i + 1) % n];
  });
  EXPECT_TRUE(used);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(b[i], static_cast<int>((i + 1) % n) * 10);
}

TEST(BarrierGroup, MultipleBarriers) {
  const std::size_t n = 8;
  std::vector<int> v(n, 0);
  rt::run_barrier_group(n, [&](std::size_t i) {
    for (int round = 0; round < 5; ++round) {
      v[i] += 1;
      rt::group_barrier();
      // All items must observe everyone having completed the round.
      int sum = std::accumulate(v.begin(), v.end(), 0);
      EXPECT_EQ(sum, static_cast<int>(n) * (round + 1));
      rt::group_barrier();
    }
  });
}

TEST(BarrierGroup, TreeReductionPattern) {
  // The user-defined binary-tree reduction the paper mentions (S4.2).
  const std::size_t n = 64;
  std::vector<double> scratch(n);
  rt::run_barrier_group(n, [&](std::size_t i) {
    scratch[i] = static_cast<double>(i + 1);
    rt::group_barrier();
    for (std::size_t stride = n / 2; stride > 0; stride /= 2) {
      if (i < stride) scratch[i] += scratch[i + stride];
      rt::group_barrier();
    }
  });
  EXPECT_DOUBLE_EQ(scratch[0], 64.0 * 65.0 / 2.0);
}

TEST(BarrierGroup, BarrierOutsideGroupThrows) {
  EXPECT_THROW(rt::group_barrier(), std::logic_error);
}

TEST(BarrierGroup, ExceptionInTaskPropagates) {
  EXPECT_THROW(rt::run_barrier_group(4,
                                     [&](std::size_t i) {
                                       if (i == 2)
                                         throw std::runtime_error("task");
                                     }),
               std::runtime_error);
}

TEST(BarrierGroup, SingleItemGroupWithBarrier) {
  int phases = 0;
  const bool used = rt::run_barrier_group(1, [&](std::size_t) {
    ++phases;
    rt::group_barrier();
    ++phases;
  });
  EXPECT_TRUE(used);
  EXPECT_EQ(phases, 2);  // nothing is re-executed
}

TEST(BarrierGroup, NoReexecutionOfPreBarrierWrites) {
  // Read-modify-writes before the first barrier must happen exactly once
  // (item 0 continues past its barrier rather than restarting).
  const std::size_t n = 4;
  std::vector<int> v(n, 0);
  rt::run_barrier_group(n, [&](std::size_t i) {
    v[i] += 1;
    rt::group_barrier();
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(v[i], 1);
}

TEST(BarrierGroup, NonUniformBarrierIsAnError) {
  EXPECT_THROW(rt::run_barrier_group(4,
                                     [&](std::size_t i) {
                                       if (i == 2) rt::group_barrier();
                                     }),
               std::logic_error);
}

TEST(BarrierGroup, MoveOnlyTaskRunsWithoutStdFunction) {
  // The templated fast path must invoke the work-item body without
  // constructing a std::function (which would require copyability).
  std::vector<int> out(8, 0);
  auto guard = std::make_unique<int>(1);
  auto task = [&out, g = std::move(guard)](std::size_t i) {
    out[i] = static_cast<int>(i) * *g;
  };
  static_assert(!std::is_copy_constructible_v<decltype(task)>);
  EXPECT_FALSE(rt::run_barrier_group(8, task));
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
}

TEST(BarrierGroup, FiberItemReturningWhileItem0WaitsIsAnError) {
  // Item 0 reaches a second barrier the other items never reach.
  EXPECT_THROW(rt::run_barrier_group(4,
                                     [&](std::size_t i) {
                                       rt::group_barrier();
                                       if (i == 0) rt::group_barrier();
                                     }),
               std::logic_error);
}

TEST(BarrierGroup, FiberItemBarrierAfterItem0ReturnedIsAnError) {
  // The other items reach a second barrier item 0 never reaches; the
  // error unwinds the fiber item that reached it.
  int unwound = 0;
  struct Unwind {
    int* n;
    ~Unwind() { ++*n; }
  };
  EXPECT_THROW(rt::run_barrier_group(4,
                                     [&](std::size_t i) {
                                       Unwind u{&unwound};
                                       rt::group_barrier();
                                       if (i != 0) rt::group_barrier();
                                     }),
               std::logic_error);
  EXPECT_EQ(unwound, 2);  // item 0 returned; item 1 unwound at the barrier
}

TEST(BarrierGroup, ExceptionFromItem0AfterFibersStartedLeavesThreadClean) {
  EXPECT_THROW(rt::run_barrier_group(4,
                                     [&](std::size_t i) {
                                       rt::group_barrier();
                                       if (i == 0)
                                         throw std::runtime_error("item 0");
                                       rt::group_barrier();
                                     }),
               std::runtime_error);
  // The failed group is no longer this thread's group...
  EXPECT_THROW(rt::group_barrier(), std::logic_error);
  // ...and the next groups on this thread run as if it never existed.
  const std::size_t n = 8;
  std::vector<int> a(n, 0), b(n, 0);
  EXPECT_TRUE(rt::run_barrier_group(n, [&](std::size_t i) {
    a[i] = static_cast<int>(i) + 1;
    rt::group_barrier();
    b[i] = a[n - 1 - i];
  }));
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(b[i], static_cast<int>(n - i));
  EXPECT_FALSE(rt::run_barrier_group(n, [&](std::size_t i) { a[i] = 0; }));
}

TEST(BarrierGroup, NestedGroupInsideWorkItem) {
  // Every item of an outer barrier group - item 0 on the caller's
  // stack, the others on fibers - runs an inner barrier group and then
  // meets the outer barrier; the inner groups' barriers must not step
  // the outer group.
  const std::size_t n = 4, m = 3;
  std::vector<int> inner_sum(n, 0), seen(n, 0);
  const bool used = rt::run_barrier_group(n, [&](std::size_t i) {
    std::vector<int> slot(m, 0);
    EXPECT_TRUE(rt::run_barrier_group(m, [&](std::size_t j) {
      slot[j] = static_cast<int>(10 * i + j);
      rt::group_barrier();
      if (j == 0) inner_sum[i] = slot[0] + slot[1] + slot[2];
    }));
    rt::group_barrier();
    seen[i] = inner_sum[(i + 1) % n];
  });
  EXPECT_TRUE(used);
  for (std::size_t i = 0; i < n; ++i) {
    const int k = static_cast<int>((i + 1) % n);
    EXPECT_EQ(seen[i], 30 * k + 3);
  }
  // A barrier group nested in the barrier-free tail of another group.
  std::vector<int> tail(n, 0);
  EXPECT_FALSE(rt::run_barrier_group(n, [&](std::size_t i) {
    std::vector<int> v(m, 0);
    rt::run_barrier_group(m, [&](std::size_t j) {
      v[j] = 1;
      rt::group_barrier();
      if (j == m - 1) tail[i] = v[0] + v[1] + v[2];
    });
  }));
  for (int t : tail) EXPECT_EQ(t, 3);
}

TEST(FiberStackPool, RepeatedGroupsReuseStacks) {
  // Warm the pool: the first barrier group on this thread may allocate.
  rt::run_barrier_group(4, [&](std::size_t) { rt::group_barrier(); });
  const auto before = rt::fiber_stack_stats();
  for (int round = 0; round < 10; ++round) {
    std::vector<int> v(4, 0), w(4, 0);
    rt::run_barrier_group(4, [&](std::size_t i) {
      v[i] = static_cast<int>(i) + 1;
      rt::group_barrier();
      w[i] = v[(i + 1) % 4];
    });
    for (std::size_t i = 0; i < 4; ++i)
      ASSERT_EQ(w[i], static_cast<int>((i + 1) % 4) + 1);
  }
  const auto after = rt::fiber_stack_stats();
  // 10 rounds x 3 fibers (items 1..3; item 0 runs on the caller's
  // stack) ran entirely off recycled stacks.
  EXPECT_EQ(after.allocated, before.allocated);
  EXPECT_EQ(after.reused, before.reused + 30);
}

TEST(FiberStackPool, BarrierFreeGroupsTakeNoStack) {
  const auto before = rt::fiber_stack_stats();
  for (int round = 0; round < 50; ++round) {
    std::vector<int> out(64, 0);
    rt::run_barrier_group(64, [&](std::size_t i) {
      out[i] = 1;
    });
  }
  const auto after = rt::fiber_stack_stats();
  EXPECT_EQ(after.allocated, before.allocated);
  EXPECT_EQ(after.reused, before.reused);
}

TEST(ThreadPool, ScopedSerialExecutionForcesInlineRuns) {
  auto& pool = rt::ThreadPool::global();
  std::atomic<std::size_t> n{0};
  {
    rt::ScopedSerialExecution serial;
    EXPECT_TRUE(rt::serial_execution_forced());
    pool.parallel_for(10'000, [&](std::size_t b, std::size_t e) {
      n.fetch_add(e - b, std::memory_order_relaxed);
    });
    EXPECT_FALSE(rt::ThreadPool::last_stats().parallel);
    {
      rt::ScopedSerialExecution nested;
      EXPECT_TRUE(rt::serial_execution_forced());
    }
    EXPECT_TRUE(rt::serial_execution_forced());  // nesting restores
  }
  EXPECT_FALSE(rt::serial_execution_forced());
  EXPECT_EQ(n.load(), 10'000u);
}
