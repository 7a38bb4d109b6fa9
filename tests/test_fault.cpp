// Chaos harness for the fault-injection and resilience subsystem
// (docs/resilience.md): plan grammar and determinism, per-layer
// injection sites (mem, thread pool, OoO scheduler),
// recovery paths, checkpoint/restart, and seeded fault
// schedules over the mini-apps. The invariant every schedule asserts:
// a run under injection either completes with a bit-exact answer or
// raises a typed error - never a hang, crash, or silent corruption.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/apps.hpp"
#include "ops/ops.hpp"
#include "runtime/fault/checkpoint.hpp"
#include "runtime/fault/fault.hpp"
#include "runtime/mem/mem.hpp"
#include "sycl/sycl.hpp"

namespace fault = syclport::rt::fault;
namespace mem = syclport::rt::mem;
namespace ops = syclport::ops;
namespace apps = syclport::apps;

namespace {

/// Install a fault plan for one test scope; disarm and reset stats on
/// the way out so tests never leak chaos into each other.
class ScopedPlan {
 public:
  explicit ScopedPlan(const std::string& spec) {
    fault::clear();
    fault::reset_stats_for_testing();
    EXPECT_TRUE(fault::configure(spec)) << "spec: " << spec;
  }
  ~ScopedPlan() { fault::clear(); }
};

}  // namespace

// ---------------------------------------------------------------------------
// Plan grammar and determinism
// ---------------------------------------------------------------------------

TEST(FaultPlan, ParsesValidSpecsAndArms) {
  ScopedPlan plan("7:mem.alloc=@1");
  EXPECT_TRUE(fault::armed());
  EXPECT_EQ(fault::seed(), 7u);
  EXPECT_TRUE(fault::configure("9:mem.*=0.5x3,sched.delay=%2,pool.stall=@4"));
  EXPECT_EQ(fault::seed(), 9u);
}

TEST(FaultPlan, RejectsMalformedSpecsAndStaysDisarmed) {
  fault::clear();
  EXPECT_FALSE(fault::configure("no-colon"));
  EXPECT_FALSE(fault::configure("5:"));
  EXPECT_FALSE(fault::configure("5:bogus.site=@1"));
  EXPECT_FALSE(fault::configure("5:mem.alloc=1.5"));   // prob > 1
  EXPECT_FALSE(fault::configure("5:mem.alloc=@0"));    // nth must be >= 1
  EXPECT_FALSE(fault::configure("5:mem.alloc=@2x0"));  // cap must be >= 1
  EXPECT_FALSE(fault::configure("seed:mem.alloc=@1")); // non-numeric seed
  EXPECT_FALSE(fault::configure("5:rank.kill=@1"));    // retired site
  EXPECT_FALSE(fault::armed());
  EXPECT_FALSE(fault::roll(fault::Site::MemAlloc).fire);
}

TEST(FaultPlan, EmptySpecDisarms) {
  EXPECT_TRUE(fault::configure("3:mem.alloc=@1"));
  EXPECT_TRUE(fault::armed());
  EXPECT_TRUE(fault::configure(""));
  EXPECT_FALSE(fault::armed());
}

TEST(FaultPlan, NthTriggerFiresExactlyOnce) {
  ScopedPlan plan("1:pool.stall=@3");
  int fires = 0, fired_at = 0;
  for (int occ = 1; occ <= 10; ++occ)
    if (fault::roll(fault::Site::PoolStall).fire) {
      ++fires;
      fired_at = occ;
    }
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(fired_at, 3);
  EXPECT_EQ(fault::stats().injected_at(fault::Site::PoolStall), 1u);
}

TEST(FaultPlan, EveryNthRespectsInjectionCap) {
  ScopedPlan plan("1:pool.stall=%2x2");
  std::vector<int> fired;
  for (int occ = 1; occ <= 10; ++occ)
    if (fault::roll(fault::Site::PoolStall).fire) fired.push_back(occ);
  EXPECT_EQ(fired, (std::vector<int>{2, 4}));  // the cap stops 6, 8, 10
}

TEST(FaultPlan, WildcardArmsEveryGroupSite) {
  ScopedPlan plan("3:sched.*=@1");
  EXPECT_TRUE(fault::roll(fault::Site::SchedDelay).fire);
  EXPECT_TRUE(fault::roll(fault::Site::SchedReorder).fire);
  EXPECT_TRUE(fault::roll(fault::Site::SchedThrow).fire);
  // Sites outside the group stay cold.
  EXPECT_FALSE(fault::roll(fault::Site::MemAlloc).fire);
  EXPECT_FALSE(fault::roll(fault::Site::PoolStall).fire);
}

TEST(FaultPlan, ProbabilityDrawsAreSeedDeterministic) {
  const auto pattern = [](const std::string& spec) {
    ScopedPlan plan(spec);
    std::vector<bool> fires;
    fires.reserve(200);
    for (int i = 0; i < 200; ++i)
      fires.push_back(fault::roll(fault::Site::PoolStall).fire);
    return fires;
  };
  const auto a = pattern("11:pool.stall=0.3");
  const auto b = pattern("11:pool.stall=0.3");
  EXPECT_EQ(a, b);  // same seed: identical decisions
  const auto c = pattern("12:pool.stall=0.3");
  EXPECT_NE(a, c);  // different seed: different schedule
}

TEST(FaultPlan, ProbabilityDrawsMatchPinnedSchedule) {
  // The occurrences seed 11 fires at p = 0.3 for two sites, pinned so
  // that a change to the draw (or to a site's number) shows here: every
  // baked-in chaos seed must keep firing the same occurrences.
  const auto fired = [](const std::string& spec, fault::Site site) {
    ScopedPlan plan(spec);
    std::vector<int> occ;
    for (int i = 1; i <= 40; ++i)
      if (fault::roll(site).fire) occ.push_back(i);
    return occ;
  };
  EXPECT_EQ(fired("11:pool.stall=0.3", fault::Site::PoolStall),
            (std::vector<int>{2, 3, 4, 9, 10, 13, 25, 28, 30, 38}));
  EXPECT_EQ(fired("11:sched.throw=0.3", fault::Site::SchedThrow),
            (std::vector<int>{1, 9, 12, 14, 15, 16, 17, 36, 38, 39}));
}

TEST(FaultPlan, SiteNamesRoundTrip) {
  for (std::size_t s = 0; s < fault::kSiteCount; ++s) {
    const auto site = static_cast<fault::Site>(s);
    const auto back = fault::site_from_string(fault::to_string(site));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, site);
  }
  EXPECT_FALSE(fault::site_from_string("not.a.site").has_value());
}

TEST(FaultPlan, RetiredCacheSiteIsRejected) {
  // No layer reads a tuning cache or sends a halo message any more, so
  // `cache.corrupt`, the `comm.*` sites and their groups name nothing:
  // a plan naming them is malformed and leaves the layer disarmed
  // rather than arming a site no code rolls.
  fault::clear();
  EXPECT_FALSE(fault::site_from_string("cache.corrupt").has_value());
  EXPECT_FALSE(fault::site_from_string("comm.drop").has_value());
  EXPECT_FALSE(fault::configure("6:cache.corrupt=@1"));
  EXPECT_FALSE(fault::configure("6:cache.*=0.5"));
  EXPECT_FALSE(fault::configure("6:comm.drop=@1"));
  EXPECT_FALSE(fault::configure("6:comm.*=0.5"));
  EXPECT_FALSE(fault::configure("6:comm.drop=@1,cache.corrupt=@1"));
  EXPECT_FALSE(fault::configure("6:mem.alloc=@1,comm.drop=@1"));
  EXPECT_FALSE(fault::armed());
  for (std::size_t s = 0; s < fault::kSiteCount; ++s) {
    const std::string name = fault::to_string(static_cast<fault::Site>(s));
    EXPECT_NE(name, "cache.corrupt");
    EXPECT_NE(name.rfind("comm.", 0), 0u) << name;
  }
}

// ---------------------------------------------------------------------------
// Memory subsystem: injected allocation failure and arena pressure
// ---------------------------------------------------------------------------

TEST(FaultMem, InjectedAllocFailureDegradesToDirectAllocation) {
  mem::set_config_for_testing(mem::config());  // flush pool
  mem::reset_stats_for_testing();
  ScopedPlan plan("5:mem.alloc=@1");
  void* p = mem::alloc(4096, mem::Init::Zero);
  ASSERT_NE(p, nullptr);
  auto* bytes = static_cast<unsigned char*>(p);
  for (int i = 0; i < 4096; ++i) ASSERT_EQ(bytes[i], 0u);
  bytes[0] = 0xAB;  // the block is real, writable memory
  mem::dealloc(p);
  const auto ms = mem::stats();
  EXPECT_EQ(ms.pool_fallbacks, 1u);
  const auto fs = fault::stats();
  EXPECT_EQ(fs.injected_at(fault::Site::MemAlloc), 1u);
  EXPECT_EQ(fs.recovered_at(fault::Site::MemAlloc), 1u);
}

TEST(FaultMem, ArenaPressureForcesFreshPathAndRecovers) {
  mem::set_config_for_testing(mem::config());
  // Park a block in the pool so a clean alloc would be a pool hit.
  void* warm = mem::alloc(8192, mem::Init::None);
  mem::dealloc(warm);
  mem::reset_stats_for_testing();
  ScopedPlan plan("5:mem.arena=@1");
  void* p = mem::alloc(8192, mem::Init::None);
  ASSERT_NE(p, nullptr);
  mem::dealloc(p);
  const auto ms = mem::stats();
  EXPECT_EQ(ms.pool_hits, 0u);  // the pool was bypassed under pressure
  EXPECT_EQ(ms.fresh_allocs, 1u);
  const auto fs = fault::stats();
  EXPECT_EQ(fs.injected_at(fault::Site::MemArena), 1u);
  EXPECT_EQ(fs.recovered_at(fault::Site::MemArena), 1u);
  mem::set_config_for_testing(mem::config());
}

// ---------------------------------------------------------------------------
// Scheduler: injected kernel failure, delay and reordering
// ---------------------------------------------------------------------------

TEST(FaultSched, InjectedThrowSurfacesAsTypedAsyncErrorAndQueueSurvives) {
  ScopedPlan plan("2:sched.throw=@1");
  sycl::queue q;
  int x = 0;
  q.submit([&](sycl::handler& h) {
    h.require(&x, sycl::access_mode::write);
    h.single_task([&x] { x = 1; });
  });
  EXPECT_THROW(q.wait_and_throw(), fault::fault_injected_error);
  // The faulted command did not run its actions; the scheduler and the
  // queue remain fully usable for the retry.
  fault::clear();
  q.submit([&](sycl::handler& h) {
    h.require(&x, sycl::access_mode::write);
    h.single_task([&x] { x = 2; });
  });
  EXPECT_NO_THROW(q.wait_and_throw());
  EXPECT_EQ(x, 2);
}

TEST(FaultSched, DelayAndReorderPreserveDependencyOrder) {
  // The RAW chain computes 1 -> 3 -> 7 -> 15 -> 31; any DAG violation
  // under injected delays/reordering yields a different value.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    ScopedPlan plan(std::to_string(seed) +
                    ":sched.delay=0.5x4,sched.reorder=0.5x4");
    sycl::queue q;
    std::vector<int> v(64, 0);
    int* p = v.data();
    q.submit([&](sycl::handler& h) {
      h.require(p, sycl::access_mode::write);
      h.parallel_for(sycl::range<1>(v.size()),
                     [p](sycl::id<1> i) { p[i[0]] = 1; });
    });
    for (int step = 0; step < 4; ++step) {
      q.submit([&](sycl::handler& h) {
        h.require(p, sycl::access_mode::read_write);
        h.parallel_for(sycl::range<1>(v.size()),
                       [p](sycl::id<1> i) { p[i[0]] = 2 * p[i[0]] + 1; });
      });
    }
    q.wait_and_throw();
    for (int x : v) ASSERT_EQ(x, 31) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Checkpoint/restart
// ---------------------------------------------------------------------------

TEST(Checkpoint, SnapshotRoundTripsBitExactly) {
  const std::string path = "test_fault_ckpt_rt.bin";
  std::vector<double> a(257), b(63);
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = 1.0 / (static_cast<double>(i) + 0.25);
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = -static_cast<double>(i) * 3.5e-300;  // denormal-adjacent
  const std::vector<double> a_ref = a, b_ref = b;

  fault::Snapshot snap;
  snap.add("a", a.data(), a.size() * sizeof(double));
  snap.add("b", b.data(), b.size() * sizeof(double));
  EXPECT_EQ(snap.regions(), 2u);
  snap.save(path);

  for (auto& v : a) v = 0.0;
  for (auto& v : b) v = 42.0;
  snap.restore(path);
  EXPECT_EQ(std::memcmp(a.data(), a_ref.data(), a.size() * sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(b.data(), b_ref.data(), b.size() * sizeof(double)), 0);
  std::remove(path.c_str());
}

TEST(Checkpoint, CorruptFileIsDetectedAndLeavesStateUntouched) {
  const std::string path = "test_fault_ckpt_corrupt.bin";
  std::vector<std::uint32_t> region(64);
  for (std::size_t i = 0; i < region.size(); ++i)
    region[i] = static_cast<std::uint32_t>(i * 2654435761u);
  fault::Snapshot snap;
  snap.add("r", region.data(), region.size() * sizeof(std::uint32_t));
  snap.save(path);

  // Flip one payload byte on disk.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(40);
    char c = 0;
    f.seekg(40);
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x10);
    f.seekp(40);
    f.write(&c, 1);
  }
  std::vector<std::uint32_t> live = region;
  for (auto& v : live) v ^= 0xFFFFFFFFu;  // current (diverged) state
  fault::Snapshot snap2;
  snap2.add("r", live.data(), live.size() * sizeof(std::uint32_t));
  const std::vector<std::uint32_t> live_before = live;
  EXPECT_THROW(snap2.restore(path), fault::checkpoint_error);
  // All-or-nothing: the failed restore modified nothing.
  EXPECT_EQ(std::memcmp(live.data(), live_before.data(),
                        live.size() * sizeof(std::uint32_t)),
            0);
  std::remove(path.c_str());
}

TEST(Checkpoint, TruncatedAndMismatchedFilesAreRejected) {
  const std::string path = "test_fault_ckpt_trunc.bin";
  std::vector<float> data(128, 1.5f);
  fault::Snapshot snap;
  snap.add("field", data.data(), data.size() * sizeof(float));
  snap.save(path);

  // Truncate to 60% of its size.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    bytes = std::move(ss).str();
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() * 6 / 10));
  }
  EXPECT_THROW(snap.restore(path), fault::checkpoint_error);

  // Restore into a mismatched region set (different name) is rejected.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  std::vector<float> other(128);
  fault::Snapshot wrong;
  wrong.add("renamed", other.data(), other.size() * sizeof(float));
  EXPECT_THROW(wrong.restore(path), fault::checkpoint_error);
  // Missing file.
  EXPECT_THROW(snap.restore("test_fault_ckpt_missing.bin"),
               fault::checkpoint_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, DuplicateRegionNamesAreRejected) {
  int x = 0, y = 0;
  fault::Snapshot snap;
  snap.add("v", &x, sizeof x);
  EXPECT_THROW(snap.add("v", &y, sizeof y), fault::checkpoint_error);
}

// ---------------------------------------------------------------------------
// OPS checkpoint: rollback-and-recompute across an injected failure
// ---------------------------------------------------------------------------

namespace {

/// A tiny 2D heat-smoothing simulation over two OPS dats whose steps go
/// through the out-of-order scheduler (deferred submits with declared
/// footprints), so sched.* injection applies to it. Deterministic:
/// pure stencil, no reductions.
class HeatSim {
 public:
  HeatSim() : ctx_(make_opts()), blk_(ctx_, "heat", 2, {20, 24, 1}),
              a_(blk_, "ta", 1, 1), b_(blk_, "tb", 1, 1) {
    for (long j = 0; j < nj(); ++j)
      for (long i = 0; i < ni(); ++i)
        a_.at(j, i) = static_cast<double>((j * 31 + i * 7) % 17) * 0.125;
  }

  [[nodiscard]] long nj() const { return 20; }
  [[nodiscard]] long ni() const { return 24; }

  /// One smoothing step: dst = 0.25 * 4-neighbour average of src, then
  /// the roles swap. Throws whatever the scheduler surfaced.
  void step() {
    ops::Dat<double>& src = flip_ ? b_ : a_;
    ops::Dat<double>& dst = flip_ ? a_ : b_;
    double* sp = src.origin();
    double* dp = dst.origin();
    const std::ptrdiff_t sm = src.stride_mid();
    const auto w = static_cast<std::size_t>(ni());
    ctx_.queue.submit([&](sycl::handler& h) {
      h.require(src.storage(), sycl::access_mode::read);
      h.require(dst.storage(), sycl::access_mode::write);
      h.parallel_for(
          sycl::range<1>(static_cast<std::size_t>(nj()) * w),
          [sp, dp, sm, w](sycl::id<1> id) {
            const auto j = static_cast<std::ptrdiff_t>(id[0] / w);
            const auto i = static_cast<std::ptrdiff_t>(id[0] % w);
            const auto c = j * sm + i;
            dp[c] = 0.25 * (sp[c - sm] + sp[c + sm] + sp[c - 1] + sp[c + 1]);
          });
    });
    ctx_.queue.wait_and_throw();
    flip_ = !flip_;
  }

  void checkpoint(const std::string& path) {
    ops::checkpoint(ctx_, path, a_, b_);
  }
  void restore(const std::string& path) { ops::restore(ctx_, path, a_, b_); }

  /// Raw bit pattern of both fields (halos included).
  [[nodiscard]] std::string bits() {
    std::string out;
    out.append(reinterpret_cast<const char*>(a_.storage()), a_.alloc_bytes());
    out.append(reinterpret_cast<const char*>(b_.storage()), b_.alloc_bytes());
    return out;
  }

 private:
  static ops::Options make_opts() {
    ops::Options o;
    o.record = false;
    return o;
  }
  ops::Context ctx_;
  ops::Block blk_;
  ops::Dat<double> a_, b_;
  bool flip_ = false;
};

}  // namespace

TEST(Checkpoint, OpsRollbackAndRecomputeIsBitExactAcrossInjectedFailure) {
  const std::string path = "test_fault_ckpt_heat.bin";
  fault::clear();

  // Uninterrupted reference: 8 steps.
  HeatSim clean;
  for (int s = 0; s < 8; ++s) clean.step();
  const std::string reference = clean.bits();

  // Faulted run: checkpoint at step 4, then an injected kernel failure
  // aborts the epilogue; roll back and recompute to the same answer.
  HeatSim sim;
  for (int s = 0; s < 4; ++s) sim.step();
  sim.checkpoint(path);

  int completed = 0;
  EXPECT_TRUE(fault::configure("8:sched.throw=@2"));
  try {
    for (int s = 0; s < 4; ++s) {
      sim.step();
      ++completed;
    }
  } catch (const fault::fault_injected_error&) {
    completed = -1;  // the failure fired mid-epilogue
  }
  fault::clear();
  ASSERT_EQ(completed, -1) << "injection did not fire";

  // Recovery: restore the step-4 state and recompute all 4 steps.
  HeatSim recovered;
  recovered.restore(path);
  for (int s = 0; s < 4; ++s) {
    // Parity: the restored state corresponds to 4 completed steps.
    recovered.step();
  }
  // recovered ran 0 pre-steps, so its flip parity differs; recompute
  // bits must still match because restore rewrote both fields and the
  // stencil is symmetric in which buffer holds the live field after an
  // even number of steps.
  EXPECT_EQ(recovered.bits(), reference);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Seeded chaos schedules over the mini-apps
// ---------------------------------------------------------------------------

namespace {

struct AppCase {
  const char* app;
  const char* spec;
  std::uint64_t seed;
};

[[nodiscard]] double run_app_checksum(const std::string& app) {
  ops::Options opt;
  opt.backend = ops::Backend::Threads;
  opt.record = false;
  if (app == "cloverleaf2d")
    return apps::run_cloverleaf2d(opt, {{20, 20, 1}, 3}).checksum;
  if (app == "acoustic")
    return apps::run_acoustic(opt, {{18, 18, 18}, 3}).checksum;
  return apps::run_rtm(opt, {{24, 24, 24}, 3}).checksum;
}

/// Clean-run references, computed once per app.
[[nodiscard]] double clean_reference(const std::string& app) {
  static std::vector<std::pair<std::string, double>> cache;
  for (const auto& [k, v] : cache)
    if (k == app) return v;
  fault::clear();
  const double v = run_app_checksum(app);
  // Guard the premise: the workload itself is run-to-run deterministic.
  EXPECT_EQ(run_app_checksum(app), v) << app << " is nondeterministic";
  cache.emplace_back(app, v);
  return v;
}

}  // namespace

class AppChaos : public ::testing::TestWithParam<AppCase> {};

TEST_P(AppChaos, CompletesBitExactUnderInjection) {
  const AppCase& c = GetParam();
  const double reference = clean_reference(c.app);
  // Cold pool: mem.alloc only rolls on the fresh-allocation path, so a
  // pool warmed by the reference run would mask the injections.
  mem::trim();
  ScopedPlan plan(std::to_string(c.seed) + ":" + c.spec);
  const double chaotic = run_app_checksum(c.app);
  const auto fs = fault::stats();
  fault::clear();
  EXPECT_EQ(chaotic, reference)
      << c.app << " under " << c.spec << " seed " << c.seed;
  // Every recoverable injection was in fact recovered.
  EXPECT_EQ(fs.total_recovered(),
            fs.injected_at(fault::Site::MemAlloc) +
                fs.injected_at(fault::Site::MemArena));
}

namespace {

[[nodiscard]] std::vector<AppCase> app_chaos_cases() {
  const char* specs[] = {
      "mem.alloc=@1",
      "mem.arena=%2x8",
      "pool.stall=0.2x6",
      "mem.alloc=%3x4,mem.arena=0.2x6,pool.stall=0.1x4",
  };
  std::vector<AppCase> cases;
  for (const char* app : {"cloverleaf2d", "acoustic", "rtm"})
    for (const char* spec : specs)
      for (const std::uint64_t seed : {101u, 202u})
        cases.push_back({app, spec, seed});
  return cases;  // 3 apps x 4 specs x 2 seeds = 24 schedules
}

}  // namespace

INSTANTIATE_TEST_SUITE_P(Schedules, AppChaos,
                         ::testing::ValuesIn(app_chaos_cases()),
                         [](const auto& ti) {
                           return std::string(ti.param.app) + "_" +
                                  std::to_string(ti.index);
                         });

TEST(AppChaos, SameSeedYieldsIdenticalInjectionCounts) {
  const auto counts = [] {
    ScopedPlan plan("77:mem.arena=%3x6,pool.stall=0.2x4");
    (void)run_app_checksum("cloverleaf2d");
    const auto fs = fault::stats();
    return std::make_pair(fs.injected_at(fault::Site::MemArena),
                          fs.total_injected());
  };
  const auto a = counts();
  const auto b = counts();
  EXPECT_EQ(a, b);
}

// Randomized-seed schedule: the CI chaos job exports SYCLPORT_CHAOS_SEED
// so one fresh schedule runs per pipeline; the seed is part of the test
// output, making a red run reproducible locally.
TEST(AppChaos, RandomizedSeedScheduleFromEnvironment) {
  std::uint64_t seed = 424242;
  if (const char* s = std::getenv("SYCLPORT_CHAOS_SEED"))
    seed = static_cast<std::uint64_t>(std::strtoull(s, nullptr, 10));
  std::printf("[chaos] SYCLPORT_CHAOS_SEED=%llu\n",
              static_cast<unsigned long long>(seed));
  const double reference = clean_reference("cloverleaf2d");
  ScopedPlan plan(std::to_string(seed) +
                  ":mem.*=0.1x8,pool.stall=0.1x4");
  EXPECT_EQ(run_app_checksum("cloverleaf2d"), reference)
      << "reproduce with SYCLPORT_CHAOS_SEED=" << seed;
}
