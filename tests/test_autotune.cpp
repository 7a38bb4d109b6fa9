// Tests for the online autotuner (runtime/autotune): config/site/cache
// round-trips, successive-halving convergence, fingerprint guarding,
// tuned-vs-untuned determinism, hardened env parsing, exploration
// thread safety under the out-of-order queue, and cache files that
// survive many concurrent writers (the Autotune suite runs under the
// TSan preset).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ops/ops.hpp"
#include "runtime/autotune/autotune.hpp"
#include "runtime/autotune/cache.hpp"
#include "runtime/autotune/row_walk.hpp"
#include "runtime/env.hpp"
#include "sycl/sycl.hpp"

namespace at = syclport::rt::autotune;
namespace env = syclport::rt::env;
namespace ops = syclport::ops;
namespace rt = syclport::rt;

namespace {

at::Site sched_site(const char* name = "k") {
  at::Site s;
  s.name = name;
  s.dims = 1;
  s.global = {1u << 16, 1, 1};
  s.axes = at::kScheduleGrain;
  return s;
}

/// A site with the axis set flat 2D sweeps declare (schedule x grain x
/// cache block); the fast extent leaves room for a nonzero block.
at::Site flat_sweep_site(const char* name = "fk") {
  at::Site s = sched_site(name);
  s.dims = 2;
  s.global = {64, 4096, 1};
  s.axes = at::kScheduleGrain | at::kCacheBlock;
  return s;
}

/// Deterministic synthetic cost: static beats dynamic beats steal,
/// grain 1024 beats 1 beats 16384. The unique minimum is
/// {static, 1024}.
double synthetic_cost(const at::Config& c) {
  double t = 1e-3;
  if (c.schedule == rt::Schedule::Dynamic) t *= 2.0;
  if (c.schedule == rt::Schedule::Steal) t *= 3.0;
  if (c.grain == 1u) t *= 1.5;
  if (c.grain == 16384u) t *= 2.5;
  return t;
}

/// Drive a tuner to convergence on `site` against the synthetic cost.
void drive(at::Autotuner& tuner, const at::Site& site) {
  for (int i = 0; i < 10000 && !tuner.converged(site); ++i) {
    const auto d = tuner.decide(site);
    tuner.report(d, synthetic_cost(d.config));
  }
}

/// Restore the process-wide tuner to "off" when a test ends, so the
/// suites sharing the binary stay independent.
struct GlobalTunerGuard {
  ~GlobalTunerGuard() {
    at::Autotuner::instance().reset(at::Autotuner::Mode::Off, "", "");
  }
};

struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

}  // namespace

TEST(Autotune, ConfigToStringParseRoundTrip) {
  at::Config c;
  c.schedule = rt::Schedule::Steal;
  c.grain = 4096;
  c.local = {{1, 4, 64}};
  c.overlap_queue = true;
  c.tile = 32;
  const auto back = at::Config::parse(c.to_string());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, c);

  at::Config sparse;  // only the axes a site declared are set
  sparse.tile = 0;
  const auto sback = at::Config::parse(sparse.to_string());
  ASSERT_TRUE(sback.has_value());
  EXPECT_EQ(*sback, sparse);

  // The cache-block axis (cache v3) round-trips too.
  at::Config v;
  v.schedule = rt::Schedule::Static;
  v.cache_block = 512;
  const auto vback = at::Config::parse(v.to_string());
  ASSERT_TRUE(vback.has_value());
  EXPECT_EQ(*vback, v);

  // The unstructured-locality axes (cache v4) round-trip too.
  at::Config u;
  u.layout = 1;    // SoA
  u.indirect = 4;  // Staged
  EXPECT_EQ(u.to_string(), "layout=soa indirect=staged");
  const auto uback = at::Config::parse(u.to_string());
  ASSERT_TRUE(uback.has_value());
  EXPECT_EQ(*uback, u);

  EXPECT_FALSE(at::Config::parse("schedule=warp").has_value());
  EXPECT_FALSE(at::Config::parse("grain=12abc").has_value());
  EXPECT_FALSE(at::Config::parse("local=8x8").has_value());
  EXPECT_FALSE(at::Config::parse("bogus=1").has_value());
  // Tokens of axes the tuner no longer has are unknown, not ignored.
  EXPECT_FALSE(at::Config::parse("reg_tile=2 vec=4 unroll=1").has_value());
  EXPECT_FALSE(at::Config::parse("cache_block=12ab").has_value());
  EXPECT_FALSE(at::Config::parse("layout=csr").has_value());
  EXPECT_FALSE(at::Config::parse("indirect=mutex").has_value());
}

TEST(Autotune, SiteKeyIsStableAndSanitized) {
  at::Site s = sched_site("jacobi step");
  const std::string key = s.key();
  EXPECT_EQ(key, s.key()) << "key must be deterministic";
  EXPECT_EQ(key.find(' '), std::string::npos)
      << "spaces must be sanitized (cache format is line-oriented)";
  EXPECT_NE(key.find("jacobi_step"), std::string::npos);
  EXPECT_NE(key.find("|flat|"), std::string::npos);

  // The footprint class buckets the iteration count: same shape class,
  // same key; a different formulation or extent class changes it.
  at::Site nd = s;
  nd.nd = true;
  EXPECT_NE(s.key(), nd.key());
  at::Site big = s;
  big.global = {1u << 20, 1, 1};
  EXPECT_NE(s.key(), big.key());

  // The declared axis set is part of the key: two same-named
  // same-shaped sites whose lowerings race different knobs (a flat
  // sweep with cache blocks vs a plain schedule-only site) must never
  // collide in the cache.
  at::Site blocked = s;
  blocked.axes = at::kScheduleGrain | at::kCacheBlock;
  EXPECT_NE(s.key(), blocked.key());
  EXPECT_NE(blocked.key().find("|ax"), std::string::npos);
}

TEST(Autotune, CacheRoundTripAndMalformedEntries) {
  const std::string path = "test_autotune_cache_rt.json";
  at::CacheData data;
  data.fingerprint = "cores=8;l1d=32768;l2=1048576;llc=16777216;triad_log2=4";
  at::Config a;
  a.schedule = rt::Schedule::Static;
  a.grain = 1024;
  at::Config b;
  b.local = {{1, 8, 32}};
  b.overlap_queue = false;
  data.entries = {{"k1|1|65536x1x1|flat|fp16|ax1", a, ""},
                  {"k2|2|512x512x1|nd|fp18|ax3", b, "cores=64;llc=1"}};
  ASSERT_TRUE(at::write_cache(path, data));

  const auto back = at::read_cache(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->fingerprint, data.fingerprint);
  ASSERT_EQ(back->entries.size(), 2u);
  EXPECT_EQ(back->entries[0].key, data.entries[0].key);
  EXPECT_EQ(back->entries[0].config, a);
  EXPECT_EQ(back->entries[1].config, b);
  // The per-entry fingerprint (v3: transfer-donor provenance) survives.
  EXPECT_EQ(back->entries[1].fp, "cores=64;llc=1");

  // Unparseable configs are dropped individually, not fatally.
  {
    std::FILE* f = std::fopen(path.c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs("    { \"key\": \"k3|1|8x1x1|flat|fp3\", \"config\": "
               "\"schedule=warp\" },\n",
               f);
    std::fclose(f);
  }
  const auto again = at::read_cache(path);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->entries.size(), 2u);

  EXPECT_FALSE(at::read_cache("does_not_exist.json").has_value());
  std::remove(path.c_str());
}

TEST(Autotune, SuccessiveHalvingConvergesToFastestCandidate) {
  at::Autotuner tuner(at::Autotuner::Mode::On, "fp-test", "");
  const at::Site site = sched_site();
  EXPECT_FALSE(tuner.converged(site));
  drive(tuner, site);
  ASSERT_TRUE(tuner.converged(site));
  const auto best = tuner.best(site);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->schedule, rt::Schedule::Static);
  EXPECT_EQ(best->grain, 1024u);
  EXPECT_GT(tuner.explored_launches(), 0u);
}

TEST(Autotune, CachedWinnerSkipsSearch) {
  const std::string path = "test_autotune_cache_warm.json";
  std::remove(path.c_str());
  const at::Site site = sched_site();
  {
    at::Autotuner cold(at::Autotuner::Mode::On, "fp-warm", path);
    drive(cold, site);
    ASSERT_TRUE(cold.converged(site));
  }
  at::Autotuner warm(at::Autotuner::Mode::On, "fp-warm", path);
  const auto d = warm.decide(site);
  EXPECT_EQ(d.phase, at::Phase::Exploiting)
      << "a cache hit must serve the winner from the first launch";
  EXPECT_EQ(d.config.schedule, rt::Schedule::Static);
  EXPECT_EQ(d.config.grain, 1024u);
  EXPECT_EQ(warm.explored_launches(), 0u);
  std::remove(path.c_str());
}

TEST(Autotune, FingerprintMismatchRetunes) {
  const std::string path = "test_autotune_cache_fp.json";
  std::remove(path.c_str());
  const at::Site site = sched_site();
  {
    at::Autotuner cold(at::Autotuner::Mode::On, "fp-machine-a", path);
    drive(cold, site);
  }
  at::Autotuner other(at::Autotuner::Mode::On, "fp-machine-b", path);
  const auto d = other.decide(site);
  EXPECT_EQ(d.phase, at::Phase::Exploring)
      << "another machine's winners must not be trusted";
  std::remove(path.c_str());
}

TEST(Autotune, ForceModeReExploresDespiteValidCache) {
  const std::string path = "test_autotune_cache_force.json";
  std::remove(path.c_str());
  const at::Site site = sched_site();
  {
    at::Autotuner cold(at::Autotuner::Mode::On, "fp-force", path);
    drive(cold, site);
  }
  at::Autotuner force(at::Autotuner::Mode::Force, "fp-force", path);
  const auto d = force.decide(site);
  EXPECT_EQ(d.phase, at::Phase::Exploring);
  drive(force, site);
  EXPECT_TRUE(force.converged(site));
  std::remove(path.c_str());
}

TEST(Autotune, TunedRunIsNumericallyIdenticalToUntuned) {
  GlobalTunerGuard guard;
  at::Autotuner::instance().reset(at::Autotuner::Mode::On, "fp-det", "");

  const std::size_t n = 48;
  auto sweep_sum = [&](std::optional<bool> tune, int iters) {
    ops::Options o;
    o.backend = ops::Backend::Threads;
    o.tune = tune;
    o.record = false;
    ops::Context ctx(o);
    ops::Block grid(ctx, "g", 2, {n, n, 1});
    ops::Dat<double> a(grid, "a", 1, 1), b(grid, "b", 1, 1);
    for (long i = -1; i <= static_cast<long>(n); ++i)
      for (long j = -1; j <= static_cast<long>(n); ++j)
        a.at(i, j) = 0.25 * static_cast<double>(i) -
                     0.125 * static_cast<double>(j);
    double sum = 0.0;
    for (int it = 0; it < iters; ++it) {
      ops::par_loop(ctx, {"det_sweep"}, grid, ops::Range::all(grid),
                    [](ops::ACC<double> out, ops::ACC<double> in) {
                      out(0, 0) = in(0, 0) + 0.2 * (in(1, 0) + in(-1, 0) +
                                                    in(0, 1) + in(0, -1));
                    },
                    ops::arg(b, ops::S_PT, ops::Acc::W),
                    ops::arg(a, ops::S2D_5PT, ops::Acc::R));
      const double s = b.interior_sum();
      if (it == 0) sum = s;
      // Every iteration - whichever candidate served it - must produce
      // bit-identical results: the tuner only moves work distribution.
      EXPECT_EQ(s, sum) << "iteration " << it;
    }
    return sum;
  };

  const double untuned = sweep_sum(false, 1);
  const double tuned = sweep_sum(true, 80);  // spans explore + exploit
  EXPECT_EQ(tuned, untuned);
}

TEST(Autotune, ExplorationIsThreadSafeUnderOutOfOrderQueue) {
  GlobalTunerGuard guard;
  at::Autotuner::instance().reset(at::Autotuner::Mode::On, "fp-mt", "");

  // Concurrent deferred command groups with disjoint footprints all
  // tune the same handler-level site; decide()/report() race across
  // scheduler workers and submitting threads (TSan-checked).
  constexpr int kThreads = 4;
  constexpr int kSubmitsPerThread = 24;
  constexpr std::size_t kElems = 2048;
  std::vector<std::vector<double>> bufs(
      kThreads, std::vector<double>(kElems, 0.0));
  {
    sycl::queue q;  // out-of-order
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        double* p = bufs[static_cast<std::size_t>(t)].data();
        for (int s = 0; s < kSubmitsPerThread; ++s) {
          q.submit([&](sycl::handler& h) {
            h.require(p, sycl::access_mode::read_write);
            h.parallel_for(sycl::range<1>(kElems), [p](sycl::id<1> i) {
              p[i[0]] += 1.0;
            });
          });
        }
      });
    }
    for (auto& th : threads) th.join();
    q.wait();
  }
  for (const auto& buf : bufs)
    for (const double v : buf)
      EXPECT_EQ(v, static_cast<double>(kSubmitsPerThread));
}

TEST(EnvParse, RejectsMalformedIntegersDeterministically) {
  env::reset_warnings_for_testing();
  ::setenv("SYCLPORT_TEST_KNOB", "12abc", 1);
  testing::internal::CaptureStderr();
  EXPECT_FALSE(env::get_long("SYCLPORT_TEST_KNOB", 1, 4096).has_value());
  // Warn-once: the second failed parse must stay silent.
  EXPECT_FALSE(env::get_long("SYCLPORT_TEST_KNOB", 1, 4096).has_value());
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("SYCLPORT_TEST_KNOB"), std::string::npos);
  EXPECT_EQ(err.find("SYCLPORT_TEST_KNOB", err.find("SYCLPORT_TEST_KNOB") + 1),
            std::string::npos)
      << "must warn exactly once per variable";

  ::setenv("SYCLPORT_TEST_KNOB", "9999999", 1);  // out of range
  env::reset_warnings_for_testing();
  testing::internal::CaptureStderr();
  EXPECT_FALSE(env::get_long("SYCLPORT_TEST_KNOB", 1, 4096).has_value());
  EXPECT_NE(testing::internal::GetCapturedStderr().find("SYCLPORT_TEST_KNOB"),
            std::string::npos);

  ::setenv("SYCLPORT_TEST_KNOB", "64", 1);
  EXPECT_EQ(env::get_long("SYCLPORT_TEST_KNOB", 1, 4096), 64);
  ::unsetenv("SYCLPORT_TEST_KNOB");
  EXPECT_FALSE(env::get_long("SYCLPORT_TEST_KNOB", 1, 4096).has_value());
}

TEST(EnvParse, ChoiceKnobsMatchDocumentedSpellingsOnly) {
  env::reset_warnings_for_testing();
  constexpr std::string_view kChoices[] = {"off", "on", "force"};
  ::setenv("SYCLPORT_TEST_MODE", "on", 1);
  EXPECT_EQ(env::get_choice("SYCLPORT_TEST_MODE", kChoices), 1u);
  ::setenv("SYCLPORT_TEST_MODE", "ON", 1);  // case-sensitive by contract
  testing::internal::CaptureStderr();
  EXPECT_FALSE(env::get_choice("SYCLPORT_TEST_MODE", kChoices).has_value());
  EXPECT_NE(testing::internal::GetCapturedStderr().find("SYCLPORT_TEST_MODE"),
            std::string::npos);
  ::unsetenv("SYCLPORT_TEST_MODE");
  EXPECT_FALSE(env::get_choice("SYCLPORT_TEST_MODE", kChoices).has_value());
}

TEST(Autotune, CacheRejectsForeignVersionTamperAndTruncation) {
  const std::string path = "test_autotune_cache_guard.json";
  at::CacheData data;
  data.fingerprint = "cores=8;l1d=32768;l2=1048576;llc=16777216;triad_log2=4";
  at::Config cfg;
  cfg.grain = 1024;
  data.entries = {{"k1|1|65536x1x1|flat|fp16", cfg, ""}};
  ASSERT_TRUE(at::write_cache(path, data));
  ASSERT_TRUE(at::read_cache(path).has_value());

  const auto slurp = [&] {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return std::move(ss).str();
  };
  const auto spit = [&](const std::string& text) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
  };
  const std::string pristine = slurp();

  // A v2 file (no per-entry fp) is a foreign format: the caller
  // silently retunes instead of trusting it. Same for v1.
  std::string v2 = pristine;
  const auto vpos = v2.find("\"syclport_tune_cache\": 5");
  ASSERT_NE(vpos, std::string::npos);
  v2.replace(vpos, 24, "\"syclport_tune_cache\": 2");
  spit(v2);
  EXPECT_FALSE(at::read_cache(path).has_value());
  std::string v1 = pristine;
  v1.replace(v1.find("\"syclport_tune_cache\": 5"), 24,
             "\"syclport_tune_cache\": 1");
  spit(v1);
  EXPECT_FALSE(at::read_cache(path).has_value());

  // Tampering with a winner invalidates the content checksum.
  std::string tampered = pristine;
  const auto gpos = tampered.find("grain=1024");
  ASSERT_NE(gpos, std::string::npos);
  tampered.replace(gpos, 10, "grain=9999");
  spit(tampered);
  EXPECT_FALSE(at::read_cache(path).has_value());

  // Truncation (torn write, full disk) is rejected wholesale.
  spit(pristine.substr(0, pristine.size() / 2));
  EXPECT_FALSE(at::read_cache(path).has_value());

  // The pristine bytes still load: rejection was not sticky.
  spit(pristine);
  EXPECT_TRUE(at::read_cache(path).has_value());
  std::remove(path.c_str());
}

TEST(Autotune, TransferSeedsFromNearestPlatformDonor) {
  const std::string path = "test_autotune_cache_transfer.json";
  std::remove(path.c_str());
  const std::string fp_me =
      "cores=8;l1d=32768;l2=1048576;llc=16777216;triad_log2=4";
  const std::string fp_near =
      "cores=16;l1d=32768;l2=1048576;llc=16777216;triad_log2=4";
  const std::string fp_far =
      "cores=256;l1d=131072;l2=4194304;llc=1073741824;triad_log2=10";

  // One shared cache holding the same kernel tuned on two machines:
  // one a core-count doubling away, one a different platform class.
  at::Site donor_site = flat_sweep_site("donor");
  at::Config near_cfg;
  near_cfg.schedule = rt::Schedule::Static;
  near_cfg.grain = 1;
  near_cfg.cache_block = 1024;
  at::Config far_cfg = near_cfg;
  far_cfg.schedule = rt::Schedule::Dynamic;
  far_cfg.cache_block = 0;
  at::CacheData data;
  data.fingerprint = fp_far;
  data.entries = {{donor_site.key(), far_cfg, fp_far},
                  {donor_site.key(), near_cfg, fp_near}};
  ASSERT_TRUE(at::write_cache(path, data));

  at::Autotuner tuner(at::Autotuner::Mode::On, fp_me, path);
  const at::Site recv = flat_sweep_site("recv");
  const auto d = tuner.decide(recv);
  EXPECT_EQ(d.phase, at::Phase::Exploring)
      << "a foreign donor seeds the race, it is never served directly";
  ASSERT_NE(d.seeded_from, nullptr);
  const std::string prov = d.seeded_from;
  EXPECT_NE(prov.find("donor"), std::string::npos) << prov;
  EXPECT_NE(prov.find("@" + fp_near), std::string::npos)
      << "nearest platform by fingerprint distance must win: " << prov;
  EXPECT_EQ(prov.find("@" + fp_far), std::string::npos) << prov;
  EXPECT_EQ(tuner.seeded_from(recv), prov);
  std::remove(path.c_str());
}

TEST(Autotune, TransferWarmStartExploresFewerLaunchesThanCold) {
  const std::string path = "test_autotune_cache_warmstart.json";
  std::remove(path.c_str());
  const at::Site site = flat_sweep_site("warmstart");
  std::uint64_t cold_explored = 0;
  {
    at::Autotuner cold(at::Autotuner::Mode::On, "fp-machine-a", path);
    drive(cold, site);
    ASSERT_TRUE(cold.converged(site));
    EXPECT_TRUE(cold.seeded_from(site).empty())
        << "nothing tuned yet: the first site runs the full search";
    cold_explored = cold.explored_launches();
  }
  // A different machine, same cache file: the cold winner is not
  // trusted (fingerprint gate) but seeds the warm race.
  at::Autotuner warm(at::Autotuner::Mode::On, "fp-machine-b", path);
  drive(warm, site);
  ASSERT_TRUE(warm.converged(site));
  EXPECT_FALSE(warm.seeded_from(site).empty());
  EXPECT_LT(warm.explored_launches() * 2, cold_explored)
      << "warm-start-from-neighbor must converge in <50% of cold ("
      << warm.explored_launches() << " vs " << cold_explored << ")";
  std::remove(path.c_str());
}

TEST(Autotune, TransferAlsoSeedsAcrossSitesInProcess) {
  // No cache file at all: a second kernel with the same axis set seeds
  // from the first kernel's in-memory winner.
  at::Autotuner tuner(at::Autotuner::Mode::On, "fp-local", "");
  const at::Site first = flat_sweep_site("first_kernel");
  drive(tuner, first);
  ASSERT_TRUE(tuner.converged(first));
  const std::uint64_t after_first = tuner.explored_launches();
  const at::Site second = flat_sweep_site("second_kernel");
  drive(tuner, second);
  ASSERT_TRUE(tuner.converged(second));
  EXPECT_FALSE(tuner.seeded_from(second).empty());
  EXPECT_EQ(tuner.seeded_from(second).find('@'), std::string::npos)
      << "an in-process donor is local: no @fingerprint suffix";
  EXPECT_LT((tuner.explored_launches() - after_first) * 2, after_first);
}

TEST(Autotune, TransferOffRunsTheFullSearch) {
  const std::string path = "test_autotune_cache_notransfer.json";
  std::remove(path.c_str());
  const at::Site site = flat_sweep_site("notransfer");
  std::uint64_t cold_explored = 0;
  {
    at::Autotuner cold(at::Autotuner::Mode::On, "fp-machine-a", path);
    drive(cold, site);
    cold_explored = cold.explored_launches();
  }
  at::Autotuner warm(at::Autotuner::Mode::On, "fp-machine-b", path);
  warm.set_transfer(false);  // SYCLPORT_TUNE_TRANSFER=off
  drive(warm, site);
  ASSERT_TRUE(warm.converged(site));
  EXPECT_TRUE(warm.seeded_from(site).empty());
  EXPECT_EQ(warm.explored_launches(), cold_explored)
      << "with transfer off, a foreign cache must not shrink the race";
  std::remove(path.c_str());
}

TEST(Autotune, OpsSweepWarmStartHalvesExplorationBitExact) {
  // The tuned 768 x 768 5-point ops::par_loop sweep of
  // bench/ablation_autotune on the Threads backend: a cold race on
  // machine A, then a race on machine B against A's cache file, which
  // seeds B's pool instead of serving it. Successive halving explores a
  // number of launches fixed by the candidate count, so the bound below
  // does not depend on timing.
  GlobalTunerGuard guard;
  const std::string path = "test_autotune_cache_ops_warmstart.json";
  std::remove(path.c_str());
  constexpr std::size_t n = 768;
  at::Site site;
  site.name = "warm_sweep";
  site.dims = 2;
  site.global = {n, n, 1};
  site.axes = at::kScheduleGrain | at::kCacheBlock;

  auto run = [&](ops::Backend be, bool tune, int max_iters) {
    ops::Options o;
    o.backend = be;
    o.tune = tune;
    o.record = false;
    ops::Context ctx(o);
    ops::Block grid(ctx, "g", 2, {n, n, 1});
    ops::Dat<double> a(grid, "a", 1, 1), b(grid, "b", 1, 1);
    for (long i = -1; i <= static_cast<long>(n); ++i)
      for (long j = -1; j <= static_cast<long>(n); ++j)
        a.at(i, j) = 0.01 * static_cast<double>(i - j);
    std::vector<double> sums;
    // Run until the race locks in, then a few launches of the winner.
    int exploit_left = 4;
    for (int it = 0; it < max_iters && exploit_left > 0; ++it) {
      ops::par_loop(ctx, {"warm_sweep"}, grid, ops::Range::all(grid),
                    [](ops::ACC<double> out, ops::ACC<double> in) {
                      out(0, 0) = in(0, 0) +
                                  0.2 * (in(1, 0) + in(-1, 0) + in(0, 1) +
                                         in(0, -1) - 4.0 * in(0, 0));
                    },
                    ops::arg(b, ops::S_PT, ops::Acc::W),
                    ops::arg(a, ops::S2D_5PT, ops::Acc::R));
      sums.push_back(b.interior_sum());
      if (!tune || at::Autotuner::instance().converged(site)) --exploit_left;
    }
    return sums;
  };
  const double ref = run(ops::Backend::Serial, false, 1).front();

  auto race = [&](const char* fp) {
    at::Autotuner::instance().reset(at::Autotuner::Mode::On, fp, path);
    const auto sums = run(ops::Backend::Threads, true, 400);
    EXPECT_TRUE(at::Autotuner::instance().converged(site)) << fp;
    for (std::size_t it = 0; it < sums.size(); ++it)
      EXPECT_EQ(sums[it], ref) << fp << " iteration " << it;
    return at::Autotuner::instance().explored_launches();
  };
  const std::uint64_t cold = race("fp-machine-a");
  const std::uint64_t warm = race("fp-machine-b");
  EXPECT_FALSE(at::Autotuner::instance().seeded_from(site).empty())
      << "machine B's race must be seeded from machine A's winner";
  EXPECT_LT(warm * 2, cold) << "warm explored " << warm << " launches, cold "
                            << cold;
  std::remove(path.c_str());
}

TEST(Autotune, V2CacheFileRetunesSilently) {
  // A file from an older release (v2: no per-entry fp; v4: kernel-variant
  // tokens this tuner no longer parses) must be rejected wholesale and
  // the tuner must simply re-explore - no crash, no stale winner.
  for (const int stale : {2, 4}) {
    SCOPED_TRACE("cache version " + std::to_string(stale));
    const std::string path =
        "test_autotune_cache_v" + std::to_string(stale) + ".json";
    std::remove(path.c_str());
    const at::Site site = sched_site("stale_kernel");
    {
      at::Autotuner cold(at::Autotuner::Mode::On, "fp-stale", path);
      drive(cold, site);
    }
    std::string text;
    {
      std::ifstream in(path, std::ios::binary);
      std::ostringstream ss;
      ss << in.rdbuf();
      text = std::move(ss).str();
    }
    const auto vpos = text.find("\"syclport_tune_cache\": 5");
    ASSERT_NE(vpos, std::string::npos);
    text.replace(vpos, 24,
                 "\"syclport_tune_cache\": " + std::to_string(stale));
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(text.data(), static_cast<std::streamsize>(text.size()));
    }
    at::Autotuner retune(at::Autotuner::Mode::On, "fp-stale", path);
    const auto d = retune.decide(site);
    EXPECT_EQ(d.phase, at::Phase::Exploring);
    EXPECT_EQ(d.seeded_from, nullptr)
        << "a rejected file contributes no donors either";
    drive(retune, site);
    EXPECT_TRUE(retune.converged(site));
    std::remove(path.c_str());
  }
}

TEST(Autotune, CacheSurvivesManyConcurrentWriters) {
  namespace at = rt::autotune;
  TempFile file("tune_cache_stress.json");

  constexpr std::size_t kWriters = 16;
  constexpr std::size_t kRoundsPerWriter = 20;
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w)
    writers.emplace_back([&, w] {
      for (std::size_t round = 0; round < kRoundsPerWriter; ++round) {
        at::CacheData data;
        data.fingerprint = "stress-machine";
        at::CacheData::Entry e;
        e.key = "kernel_" + std::to_string(w);
        e.config.grain = round + 1;
        data.entries.push_back(e);
        // Unique temp + rename + merge-on-load: every published image
        // must be complete and internally consistent, whatever the
        // interleaving.
        EXPECT_TRUE(at::write_cache_merged(file.path, data));
      }
    });
  for (auto& th : writers) th.join();

  const auto final_image = at::read_cache(file.path);
  ASSERT_TRUE(final_image.has_value()) << "torn or corrupt cache image";
  EXPECT_EQ(final_image->fingerprint, "stress-machine");
  std::set<std::string> keys;
  for (const auto& e : final_image->entries) {
    EXPECT_EQ(e.key.rfind("kernel_", 0), 0u);
    keys.insert(e.key);
  }
  EXPECT_EQ(keys.size(), final_image->entries.size()) << "duplicate keys";
  // The last writer to publish merged the file it saw, so its own key
  // is certainly present; merge-on-load keeps the union growing toward
  // all writers (every writer's final round re-merges what survived).
  EXPECT_GE(keys.size(), 1u);

  // One more merged write from this thread must preserve whatever
  // survived the stress *and* its own entry.
  at::CacheData data;
  data.fingerprint = "stress-machine";
  data.entries.push_back({"kernel_final", at::Config{}, ""});
  EXPECT_TRUE(at::write_cache_merged(file.path, data));
  const auto merged = at::read_cache(file.path);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->entries.size(), keys.size() + 1);
}

TEST(RowSegments, BlockedParallelForCoversEachPointOnceWithinRows) {
  // cb = 4 does not divide fast = 13: the last block of every row is a
  // 1-point remainder.
  constexpr std::size_t rows = 9, fast = 13, cb = 4;
  std::vector<std::atomic<int>> hits(rows * fast);
  std::atomic<int> bad_segments{0};
  at::blocked_parallel_for(rows, fast, cb,
                           [&](std::size_t row, std::size_t jb,
                               std::size_t je) {
                             if (row >= rows || jb >= je || je > fast ||
                                 je - jb > cb || jb % cb != 0)
                               bad_segments.fetch_add(1);
                             else
                               for (std::size_t j = jb; j < je; ++j)
                                 hits[row * fast + j].fetch_add(1);
                           });
  EXPECT_EQ(bad_segments.load(), 0);
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i].load(), 1) << "row " << i / fast << " j " << i % fast;
}

TEST(RowSegments, SpansSplitAtRowEndsInAscendingOrder) {
  // Every span [b, e) of a 6 x 5 space - including empty, mid-row and
  // multi-row spans - must come back as its own indices, in order, in
  // pieces that never cross a row end.
  constexpr std::size_t rows = 6, fast = 5;
  for (std::size_t b = 0; b <= rows * fast; ++b)
    for (std::size_t e = b; e <= rows * fast; ++e) {
      std::vector<std::size_t> seen;
      at::for_each_row_segment(
          b, e, fast, [&](std::size_t row, std::size_t jb, std::size_t je) {
            ASSERT_LT(jb, je);
            ASSERT_LE(je, fast);
            for (std::size_t j = jb; j < je; ++j)
              seen.push_back(row * fast + j);
          });
      ASSERT_EQ(seen.size(), e - b) << "[" << b << ", " << e << ")";
      for (std::size_t k = 0; k < seen.size(); ++k)
        ASSERT_EQ(seen[k], b + k) << "[" << b << ", " << e << ")";
    }
}
