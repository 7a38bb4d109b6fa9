#include "probes.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "core/timing.hpp"
#include "hwmodel/device_model.hpp"
#include "json.hpp"
#include "ops/ops.hpp"
#include "runtime/mem/mem.hpp"
#include "runtime/thread_pool.hpp"
#include "spans.hpp"
#include "study/study.hpp"
#include "sycl/sycl.hpp"

namespace perfbench {

using namespace syclport;

namespace {

/// Median wall seconds of `reps` calls of fn().
template <typename F>
double median_s(int reps, F&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    WallTimer w;
    fn();
    t.push_back(w.seconds());
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

/// Median per-call microseconds of fn() over `batches` batches of
/// `calls`, after one untimed warm-up batch.
template <typename F>
double per_call_us(int batches, int calls, F&& fn) {
  for (int i = 0; i < calls; ++i) fn();
  return median_s(batches, [&] {
           for (int i = 0; i < calls; ++i) fn();
         }) /
         calls * 1e6;
}

}  // namespace

long sample_threads_peak() {
  static long peak = 0;
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      long n = 0;
      status >> n;
      peak = std::max(peak, n);
      break;
    }
    status.ignore(1 << 12, '\n');
  }
  return peak;
}

std::string probe_runtime(std::size_t big_bytes) {
  JsonObject m;
  rt::ThreadPool& pool = rt::ThreadPool::global();
  const std::size_t n = pool.size() * 4;
  const auto empty = [](std::size_t, std::size_t) {};
  struct Named {
    rt::Schedule s;
    const char* name;
  };
  for (const Named k : {Named{rt::Schedule::Static, "runtime.launch_us.static"},
                        Named{rt::Schedule::Dynamic, "runtime.launch_us.dynamic"},
                        Named{rt::Schedule::Steal, "runtime.launch_us.steal"}}) {
    rt::ScopedLaunchParams scope(k.s, std::nullopt);
    Span span("ThreadPool::parallel_for", "runtime");
    m.num(k.name, per_call_us(7, 1000, [&] { pool.parallel_for(n, empty); }));
  }
  {
    rt::ScopedLaunchParams scope(rt::Schedule::Steal, std::nullopt);
    Span span("ThreadPool::parallel_for", "runtime");
    const int launches = 5000;
    std::size_t steals = 0;
    for (int i = 0; i < launches; ++i) {
      pool.parallel_for(n, empty);
      steals += rt::ThreadPool::last_stats().steals;
    }
    m.num("runtime.steals_per_launch",
          static_cast<double>(steals) / launches);
  }
  {
    Span span("mem::alloc+dealloc", "runtime");
    m.num("runtime.mem.alloc_us", per_call_us(7, 20000, [] {
            rt::mem::dealloc(rt::mem::alloc(std::size_t{64} << 10,
                                            rt::mem::Init::None));
          }));
  }
  {
    void* p = rt::mem::alloc(big_bytes, rt::mem::Init::None);
    Span span("mem::zero_fill", "runtime");
    rt::mem::zero_fill(p, big_bytes);  // commit the pages first
    const double s = median_s(3, [&] { rt::mem::zero_fill(p, big_bytes); });
    rt::mem::dealloc(p);
    m.num("runtime.mem.fill_gbs", static_cast<double>(big_bytes) / s / 1e9);
  }
  return m.done();
}

std::string probe_sycl() {
  JsonObject m;
  sycl::queue q;
  const std::size_t n = 4096;
  {
    Span span("queue::parallel_for(range)", "sycl");
    m.num("sycl.flat_launch_us", per_call_us(7, 500, [&] {
            q.parallel_for(sycl::range<1>(n), [](sycl::item<1>) {});
            q.wait();
          }));
  }
  {
    Span span("queue::parallel_for(nd_range)", "sycl");
    m.num("sycl.nd_launch_us", per_call_us(7, 500, [&] {
            q.parallel_for(
                sycl::nd_range<1>(sycl::range<1>(n), sycl::range<1>(64)),
                [](sycl::nd_item<1>) {});
            q.wait();
          }));
  }
  return m.done();
}

namespace {

ops::Options on(ops::Backend b) {
  ops::Options o;
  o.backend = b;
  return o;
}

/// A 1-D OPS problem of `n` points with `k` double dats.
struct Line {
  ops::Context ctx;
  ops::Block block;
  std::vector<std::unique_ptr<ops::Dat<double>>> d;

  Line(ops::Backend b, std::size_t n, int k)
      : ctx(on(b)), block(ctx, "probe", 1, {n, 1, 1}) {
    for (int i = 0; i < k; ++i) {
      d.push_back(std::make_unique<ops::Dat<double>>(block, "d", 1, 0));
      d.back()->fill(0.1 * (i + 1));
    }
  }
};

void triad(Line& l) {
  ops::par_loop(l.ctx, {"probe_triad", hw::KernelClass::Interior, 2.0},
                l.block, ops::Range::all(l.block),
                [](ops::ACC<double> a, ops::ACC<double> b,
                   ops::ACC<double> c) { a(0) = b(0) + 0.4 * c(0); },
                ops::arg(*l.d[0], ops::S_PT, ops::Acc::W),
                ops::arg(*l.d[1], ops::S_PT, ops::Acc::R),
                ops::arg(*l.d[2], ops::S_PT, ops::Acc::R));
  l.ctx.clear_profiles();
}

double dot(Line& l) {
  double s = 0.0;
  ops::par_loop(l.ctx, {"probe_dot", hw::KernelClass::Reduction, 2.0},
                l.block, ops::Range::all(l.block),
                [](ops::ACC<double> a, ops::ACC<double> b,
                   ops::Reducer<double> r) { r += a(0) * b(0); },
                ops::arg(*l.d[0], ops::S_PT, ops::Acc::R),
                ops::arg(*l.d[1], ops::S_PT, ops::Acc::R),
                ops::reduce(s, ops::RedOp::Sum));
  l.ctx.clear_profiles();
  return s;
}

/// Eight pointwise loops d[i+1] = d[i] + 1 over a 64x64 grid, either
/// eager or captured in one LoopChain.
void eight_loops(ops::Context& ctx, ops::Block& blk,
                 std::vector<std::unique_ptr<ops::Dat<double>>>& d,
                 bool chained) {
  const auto body = [](ops::ACC<double> out, ops::ACC<double> in) {
    out(0) = in(0) + 1.0;
  };
  const ops::Meta meta{"probe_chain", hw::KernelClass::Interior, 1.0};
  if (chained) {
    ops::LoopChain chain(ctx, blk);
    for (std::size_t i = 0; i + 1 < d.size(); ++i)
      chain.enqueue(meta, body, ops::arg(*d[i + 1], ops::S_PT, ops::Acc::W),
                    ops::arg(*d[i], ops::S_PT, ops::Acc::R));
    chain.execute();
  } else {
    for (std::size_t i = 0; i + 1 < d.size(); ++i)
      ops::par_loop(ctx, meta, blk, ops::Range::all(blk), body,
                    ops::arg(*d[i + 1], ops::S_PT, ops::Acc::W),
                    ops::arg(*d[i], ops::S_PT, ops::Acc::R));
  }
  ctx.clear_profiles();
}

}  // namespace

std::string probe_ops(std::size_t big_bytes, std::size_t dot_n) {
  JsonObject m;
  struct Named {
    ops::Backend b;
    const char* name;
  };
  for (const Named k :
       {Named{ops::Backend::Threads, "ops.par_loop_us.threads"},
        Named{ops::Backend::SyclFlat, "ops.par_loop_us.sycl-flat"},
        Named{ops::Backend::SyclNd, "ops.par_loop_us.sycl-nd"}}) {
    ops::Context ctx(on(k.b));
    ops::Block blk(ctx, "probe", 2, {64, 64, 1});
    ops::Dat<double> a(blk, "a", 1, 0);
    Span span("ops::par_loop", "ops");
    m.num(k.name, per_call_us(7, 200, [&] {
            ops::par_loop(ctx, {"probe_set", hw::KernelClass::Interior, 0.0},
                          blk, ops::Range::all(blk),
                          [](ops::ACC<double> x) { x(0) = 1.0; },
                          ops::arg(a, ops::S_PT, ops::Acc::W));
            ctx.clear_profiles();
          }));
  }
  {
    ops::Context ctx;
    ops::Block blk(ctx, "probe", 2, {64, 64, 1});
    std::vector<std::unique_ptr<ops::Dat<double>>> d;
    for (int i = 0; i < 9; ++i)
      d.push_back(std::make_unique<ops::Dat<double>>(blk, "d", 1, 0));
    Span span("ops::LoopChain vs eager", "ops");
    const double chained =
        per_call_us(7, 100, [&] { eight_loops(ctx, blk, d, true); });
    const double eager =
        per_call_us(7, 100, [&] { eight_loops(ctx, blk, d, false); });
    m.num("ops.chain_us_per_loop", (chained - eager) / 8.0);
  }
  {
    const std::size_t n = big_bytes / (3 * sizeof(double));
    Line l(ops::Backend::Threads, n, 3);
    Span span("ops::par_loop triad", "ops");
    triad(l);
    const double s = median_s(5, [&] { triad(l); });
    m.num("ops.triad_gbs", 3.0 * sizeof(double) * n / s / 1e9);
  }
  for (const Named k : {Named{ops::Backend::Serial, "ops.dot_gbs.serial"},
                        Named{ops::Backend::Threads, "ops.dot_gbs.threads"}}) {
    Line l(k.b, dot_n, 2);
    Span span("ops::par_loop dot", "ops");
    (void)dot(l);
    const double s = median_s(3, [&] { (void)dot(l); });
    m.num(k.name, 2.0 * sizeof(double) * dot_n / s / 1e9);
  }
  return m.done();
}

std::string probe_machine(std::size_t big_bytes) {
  const std::size_t n = big_bytes / (3 * sizeof(double));
  const unsigned nt = std::max(1u, std::thread::hardware_concurrency());
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]),
      c(new double[n]);
  // Each thread owns one contiguous slice, for first touch and sweeps.
  const auto sweep = [&](auto&& body) {
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < nt; ++t)
      ts.emplace_back([&, t] {
        body(n * t / nt, n * (t + 1) / nt);
      });
    for (auto& t : ts) t.join();
  };
  sweep([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 0.2;
      c[i] = 0.1;
    }
  });
  const auto triad = [&] {
    sweep([&](std::size_t lo, std::size_t hi) {
      double* __restrict pa = a.get();
      const double* __restrict pb = b.get();
      const double* __restrict pc = c.get();
      for (std::size_t i = lo; i < hi; ++i) pa[i] = pb[i] + 0.4 * pc[i];
    });
  };
  Span span("std::thread triad", "machine");
  triad();
  const double s = median_s(5, triad);
  JsonObject m;
  m.num("machine.triad_gbs", 3.0 * sizeof(double) * n / s / 1e9);
  return m.done();
}

std::string probe_op2(apps::mgcfd::MultigridMesh& mesh) {
  JsonObject m;
  auto& fine = mesh.levels.front();
  struct Named {
    Strategy s;
    const char* name;
  };
  for (const Named k :
       {Named{Strategy::Atomics, "op2.flux_ms.atomics"},
        Named{Strategy::GlobalColor, "op2.flux_ms.global"},
        Named{Strategy::Hierarchical, "op2.flux_ms.hierarchical"},
        Named{Strategy::Staged, "op2.flux_ms.staged"}}) {
    op2::Options o;
    o.strategy = k.s;
    op2::Context ctx(o);
    op2::Dat<double> q(*fine.nodes, 5, "q"), f(*fine.nodes, 5, "f");
    op2::Dat<double> w(*fine.edges, 3, "w");
    for (std::size_t i = 0; i < fine.nodes->size(); ++i)
      for (int c = 0; c < 5; ++c)
        q.at(i, c) = 1.0 + 1e-3 * static_cast<double>((i * 5 + c) % 97);
    for (std::size_t e = 0; e < fine.edges->size(); ++e)
      for (int c = 0; c < 3; ++c) w.at(e, c) = 0.5;
    const auto flux = [&] {
      op2::par_loop(ctx, {"probe_flux", 20.0}, *fine.edges,
                    [](const double* wv, const double* qa, const double* qb,
                       op2::Inc<double> fa, op2::Inc<double> fb) {
                      const double s = wv[0] + wv[1] + wv[2];
                      for (int c = 0; c < 5; ++c) {
                        const double x = s * (qb[c] - qa[c]);
                        fa.add(c, x);
                        fb.add(c, -x);
                      }
                    },
                    op2::arg_direct(w, op2::Acc::R),
                    op2::arg_indirect(q, *fine.e2n, 0, op2::Acc::R),
                    op2::arg_indirect(q, *fine.e2n, 1, op2::Acc::R),
                    op2::arg_inc(f, *fine.e2n, 0),
                    op2::arg_inc(f, *fine.e2n, 1));
      ctx.clear_profiles();
    };
    Span span("op2::par_loop flux", "op2");
    flux();  // builds and caches the plan
    m.num(k.name, median_s(5, flux) * 1e3);
  }
  for (const Named k : {Named{Strategy::GlobalColor, "op2.plan_ms.global"},
                        Named{Strategy::Hierarchical,
                              "op2.plan_ms.hierarchical"}}) {
    Span span("op2::build_plan", "op2");
    m.num(k.name, median_s(3, [&] {
            (void)op2::build_plan(*fine.e2n, k.s, 256);
          }) * 1e3);
  }
  return m.done();
}

std::string probe_study() {
  JsonObject m;
  // One representative variant per app: a DPC++ nd_range cell on the
  // A100 (the MG-CFD one carries its default race strategy).
  const auto variant_for = [](AppId a) {
    return a == AppId::MGCFD ? study::mgcfd_variants(PlatformId::A100).front()
                             : Variant{Model::SYCLNDRange, Toolchain::DPCPP};
  };
  study::StudyRunner runner;
  {
    Span span("StudyRunner::schedule_for (cold)", "study");
    WallTimer t;
    for (const AppId a : kAllApps) (void)runner.schedule_for(a, variant_for(a));
    m.num("study.schedule_ms", t.milliseconds());
  }
  {
    Span span("DeviceModel::kernel_time", "hwmodel");
    std::size_t profiles = 0;
    const double s = median_s(5, [&] {
      profiles = 0;
      for (const AppId a : kAllApps) {
        const hw::DeviceModel dm(PlatformId::A100, variant_for(a), a);
        for (const auto& lp : runner.schedule_for(a, variant_for(a))) {
          (void)dm.kernel_time(lp);
          ++profiles;
        }
      }
    });
    m.num("hwmodel.kernel_time_ns", s / static_cast<double>(profiles) * 1e9);
  }
  {
    // Warm every schedule class first, so only aggregation is timed.
    long long cells = 0;
    for (const AppId a : kAllApps)
      for (const PlatformId p : kAllPlatforms)
        for (const Variant& v : a == AppId::MGCFD ? study::mgcfd_variants(p)
                                                  : study::structured_variants(p)) {
          (void)runner.schedule_for(a, v);
          ++cells;
        }
    Span span("study::aggregate_cell", "study");
    const double s = median_s(5, [&] {
      for (const AppId a : kAllApps)
        for (const PlatformId p : kAllPlatforms)
          for (const Variant& v : a == AppId::MGCFD
                                      ? study::mgcfd_variants(p)
                                      : study::structured_variants(p))
            (void)study::aggregate_cell(runner.schedule_for(a, v), a, p, v);
    });
    m.num("study.aggregate_us", s / static_cast<double>(cells) * 1e6);
    m.integer("study.cells", cells);
  }
  return m.done();
}

}  // namespace perfbench
