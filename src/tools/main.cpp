// syclport CLI: drive the study from the command line.
//
//   syclport list
//       Platforms, applications and variant families.
//   syclport run --app <app> [--platform <p>] [--variant <v>]
//       Model one cell (or a row over all platforms / variants) at the
//       paper's problem size; prints runtime, effective bandwidth and
//       architectural efficiency.
//   syclport validate --app <app> [--backend <b>]
//       Functional execution at validation size; prints the checksum
//       per backend (all backends when none given).
//   syclport stream
//       Table 1 (BabelStream Triad per platform).
//
// Variant names: cuda, hip, openmp-offload, cray-offload, mpi,
// mpi+openmp, openmp, dpcpp-flat, dpcpp-nd, opensycl-flat, opensycl-nd;
// MG-CFD adds --strategy atomics|global|hierarchical.

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "apps/acoustic/acoustic.hpp"
#include "core/pp_metric.hpp"
#include "runtime/fault/fault.hpp"
#include "core/report.hpp"
#include "stream/babelstream.hpp"
#include "sycl/launch_log.hpp"
#include "study/study.hpp"
#include "study/trace.hpp"

using namespace syclport;

namespace {

int usage() {
  std::cout <<
      "usage: syclport <list|run|validate|stream|report> [options]\n"
      "  run      --app <app> [--platform <platform>] [--variant <v>]\n"
      "           [--strategy atomics|global|hierarchical] [--trace <f.json>]\n"
      "  validate --app <app> [--backend serial|threads|sycl-flat|sycl-nd|mpi]\n"
      "  report   [--out <file.md>]   full study as a markdown report\n"
      "run 'syclport list' for the valid names.\n";
  return 2;
}

std::optional<Variant> parse_variant(const std::string& name) {
  static const std::map<std::string, Variant> table = {
      {"cuda", {Model::CUDA, Toolchain::Native}},
      {"hip", {Model::HIP, Toolchain::Native}},
      {"openmp-offload", {Model::OpenMPOffload, Toolchain::Native}},
      {"cray-offload", {Model::OpenMPOffload, Toolchain::Cray}},
      {"mpi", {Model::MPI, Toolchain::Native}},
      {"mpi+openmp", {Model::MPI_OpenMP, Toolchain::Native}},
      {"openmp", {Model::OpenMP, Toolchain::Native}},
      {"dpcpp-flat", {Model::SYCLFlat, Toolchain::DPCPP}},
      {"dpcpp-nd", {Model::SYCLNDRange, Toolchain::DPCPP}},
      {"opensycl-flat", {Model::SYCLFlat, Toolchain::OpenSYCL}},
      {"opensycl-nd", {Model::SYCLNDRange, Toolchain::OpenSYCL}},
  };
  auto it = table.find(name);
  if (it == table.end()) return std::nullopt;
  return it->second;
}

std::optional<Strategy> parse_strategy(const std::string& name) {
  if (name == "atomics") return Strategy::Atomics;
  if (name == "global") return Strategy::GlobalColor;
  if (name == "hierarchical") return Strategy::Hierarchical;
  return std::nullopt;
}

/// CLI-friendly app names (lowercase slugs next to paper names).
std::optional<AppId> parse_app_slug(const std::string& name) {
  static const std::map<std::string, AppId> table = {
      {"cloverleaf2d", AppId::CloverLeaf2D},
      {"cloverleaf3d", AppId::CloverLeaf3D},
      {"opensbli-sa", AppId::OpenSBLI_SA},
      {"opensbli-sn", AppId::OpenSBLI_SN},
      {"rtm", AppId::RTM},
      {"acoustic", AppId::Acoustic},
      {"mgcfd", AppId::MGCFD},
  };
  if (auto it = table.find(name); it != table.end()) return it->second;
  return parse_app(name);  // paper-style names also accepted
}

std::optional<PlatformId> parse_platform_slug(const std::string& name) {
  static const std::map<std::string, PlatformId> table = {
      {"a100", PlatformId::A100},       {"mi250x", PlatformId::MI250X},
      {"max1100", PlatformId::Max1100}, {"xeon", PlatformId::Xeon8360Y},
      {"genoax", PlatformId::GenoaX},   {"altra", PlatformId::Altra},
  };
  if (auto it = table.find(name); it != table.end()) return it->second;
  return parse_platform(name);
}

int cmd_list() {
  std::cout << "platforms:\n";
  for (PlatformId p : kAllPlatforms)
    std::cout << "  " << to_string(p) << "  (slug: "
              << (p == PlatformId::A100      ? "a100"
                  : p == PlatformId::MI250X  ? "mi250x"
                  : p == PlatformId::Max1100 ? "max1100"
                  : p == PlatformId::Xeon8360Y ? "xeon"
                  : p == PlatformId::GenoaX  ? "genoax"
                                             : "altra")
              << ", STREAM " << hw::platform(p).stream_bw_gbs << " GB/s)\n";
  std::cout << "\napplications:\n";
  for (AppId a : kAllApps) std::cout << "  " << to_string(a) << "\n";
  std::cout << "\nvariants: cuda hip openmp-offload cray-offload mpi "
               "mpi+openmp openmp\n          dpcpp-flat dpcpp-nd "
               "opensycl-flat opensycl-nd\n"
               "strategies (MG-CFD): atomics global hierarchical\n";
  return 0;
}

void print_cell(report::Table& t, study::StudyRunner& runner, AppId app,
                PlatformId p, const Variant& v) {
  const auto r = runner.run(app, p, v);
  if (!r.ok()) {
    t.add_row({std::string(to_string(p)), to_string(v),
               std::string(to_string(r.status)), "-", "-", "-"});
    return;
  }
  t.add_row({std::string(to_string(p)), to_string(v), "ok",
             report::fmt(r.runtime_s, 3) + " s",
             report::fmt(r.eff_bw_gbs, 0) + " GB/s",
             report::fmt_percent(r.efficiency)});
}

int cmd_run(AppId app, std::optional<PlatformId> platform,
            std::optional<Variant> variant, std::optional<Strategy> strategy,
            const std::string& trace_path) {
  study::StudyRunner runner;
  report::Table t({"platform", "variant", "status", "runtime", "eff bw",
                   "efficiency"});
  std::vector<PlatformId> platforms =
      platform ? std::vector<PlatformId>{*platform}
               : std::vector<PlatformId>(kAllPlatforms.begin(),
                                         kAllPlatforms.end());
  for (PlatformId p : platforms) {
    if (variant) {
      Variant v = *variant;
      if (app == AppId::MGCFD)
        v.strategy = strategy.value_or(Strategy::Atomics);
      print_cell(t, runner, app, p, v);
    } else {
      const auto vars = app == AppId::MGCFD ? study::mgcfd_variants(p)
                                            : study::structured_variants(p);
      for (const Variant& v : vars) print_cell(t, runner, app, p, v);
    }
  }
  std::cout << to_string(app) << " at the paper's problem size:\n";
  t.render(std::cout);
  if (!trace_path.empty()) {
    const PlatformId p = platform.value_or(PlatformId::A100);
    Variant v = variant.value_or(study::native_variant(p));
    if (app == AppId::MGCFD && v.strategy == Strategy::None)
      v.strategy = strategy.value_or(Strategy::Atomics);
    if (study::write_modeled_trace_json(
            trace_path, runner.schedule_for(app, v), p, v, app)) {
      std::cout << "trace written to " << trace_path << "\n";
    } else {
      std::cerr << "cannot write " << trace_path << "\n";
      return 1;
    }
  }
  return 0;
}

int cmd_validate(AppId app, const std::string& backend_name) {
  struct Be { const char* name; ops::Backend b; };
  const std::vector<Be> all = {{"serial", ops::Backend::Serial},
                               {"threads", ops::Backend::Threads},
                               {"sycl-flat", ops::Backend::SyclFlat},
                               {"sycl-nd", ops::Backend::SyclNd},
                               {"mpi", ops::Backend::MPI}};
  report::Table t({"backend", "checksum"});
  for (const Be& be : all) {
    if (!backend_name.empty() && backend_name != be.name) continue;
    ops::Options o;
    o.backend = be.b;
    apps::RunSummary rs;
    switch (app) {
      case AppId::CloverLeaf2D:
        rs = apps::run_cloverleaf2d(o, apps::cloverleaf2d_small());
        break;
      case AppId::CloverLeaf3D:
        rs = apps::run_cloverleaf3d(o, apps::cloverleaf3d_small());
        break;
      case AppId::OpenSBLI_SA:
        rs = apps::run_opensbli_sa(o, apps::opensbli_small());
        break;
      case AppId::OpenSBLI_SN:
        rs = apps::run_opensbli_sn(o, apps::opensbli_small());
        break;
      case AppId::RTM:
        rs = apps::run_rtm(o, apps::rtm_small());
        break;
      case AppId::Acoustic:
        rs = apps::run_acoustic(o, apps::acoustic_small());
        break;
      case AppId::MGCFD: {
        op2::Options oo;  // OP2 app: backend name maps onto exec kinds
        oo.exec = be.b == ops::Backend::Serial ? op2::Exec::Serial
                  : be.b == ops::Backend::SyclFlat ||
                          be.b == ops::Backend::SyclNd
                      ? op2::Exec::Sycl
                      : op2::Exec::Threads;
        rs = apps::run_mgcfd(oo, apps::mgcfd_small());
        break;
      }
    }
    t.add_row({be.name, report::fmt(rs.checksum, 9)});
  }
  std::cout << to_string(app) << " functional validation:\n";
  t.render(std::cout);
  std::cout << "(all backends must print the same checksum)\n";
  return 0;
}

int cmd_stream() {
  ops::Options o;
  o.mode = ops::Mode::ModelOnly;
  const auto rs = stream::run(o, 1u << 28, 1);
  report::Table t({"platform", "Triad GB/s"});
  for (PlatformId p : kAllPlatforms) {
    const Variant v = p == PlatformId::Max1100
                          ? Variant{Model::SYCLNDRange, Toolchain::DPCPP}
                          : study::native_variant(p);
    const hw::DeviceModel dm(p, v, AppId::CloverLeaf2D);
    for (const auto& lp : rs.profiles)
      if (lp.name == "stream_triad")
        t.add_row({std::string(to_string(p)),
                   report::fmt(lp.total_bytes() /
                                   dm.kernel_time(lp).seconds / 1e9,
                               0)});
  }
  t.render(std::cout);
  return 0;
}

int cmd_report(const std::string& out_path) {
  study::StudyRunner runner;
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << "# syclport study report\n\n"
      << "Architectural efficiency (fraction of the platform's STREAM "
         "Triad bandwidth)\nfor every application x platform x variant, "
         "at the paper's problem sizes.\nFailed cells carry the paper's "
         "reported failure mode.\n";

  auto emit = [&](AppId app) {
    out << "\n## " << to_string(app) << "\n\n";
    out << "| platform | variant | runtime | efficiency |\n";
    out << "|---|---|---|---|\n";
    for (PlatformId p : kAllPlatforms) {
      const auto vars = app == AppId::MGCFD ? study::mgcfd_variants(p)
                                            : study::structured_variants(p);
      for (const Variant& v : vars) {
        const auto r = runner.run(app, p, v);
        out << "| " << to_string(p) << " | " << to_string(v) << " | ";
        if (r.ok()) {
          out << report::fmt(r.runtime_s, 3) << " s | "
              << report::fmt_percent(r.efficiency) << " |\n";
        } else {
          out << "— | *" << to_string(r.status) << "* |\n";
        }
      }
    }
  };
  for (AppId a : kAllApps) emit(a);

  out << "\n## Pennycook PP metric (structured apps, supported-only)\n\n"
      << "| variant family | PP |\n|---|---|\n";
  struct Fam { Model m; Toolchain tc; const char* name; };
  for (const Fam f :
       {Fam{Model::SYCLNDRange, Toolchain::DPCPP, "DPC++ nd_range"},
        Fam{Model::SYCLNDRange, Toolchain::OpenSYCL, "OpenSYCL nd_range"},
        Fam{Model::SYCLFlat, Toolchain::DPCPP, "DPC++ flat"},
        Fam{Model::SYCLFlat, Toolchain::OpenSYCL, "OpenSYCL flat"}}) {
    std::vector<double> per_app;
    for (AppId a : kStructuredApps) {
      std::vector<double> effs;
      for (PlatformId p : kAllPlatforms) {
        double e = 0.0;
        for (const Variant& v : study::structured_variants(p)) {
          if (v.model != f.m || v.toolchain != f.tc) continue;
          const auto r = runner.run(a, p, v);
          if (r.ok()) e = r.efficiency;
        }
        effs.push_back(e);
      }
      per_app.push_back(pp_supported_only(effs));
    }
    double mean = 0.0;
    for (double v : per_app) mean += v;
    mean /= static_cast<double>(per_app.size());
    out << "| " << f.name << " | " << report::fmt(mean, 2) << " |\n";
  }

  // Allocation/page-placement telemetry of this process: a small
  // functional BabelStream run exercises the rt::mem paths (pooled
  // dats, parallel first-touch, streaming fills), then the cumulative
  // counters are reported.
  {
    ops::Options o;
    (void)stream::run(o, 1u << 21, 2);
    const auto ms = sycl::launch_log::memory_stats();
    out << "\n## Memory subsystem (rt::mem telemetry, this process)\n\n"
        << "| metric | value |\n|---|---|\n"
        << "| allocations | " << ms.alloc_calls << " |\n"
        << "| pool hit rate | " << report::fmt_percent(ms.pool_hit_rate())
        << " |\n"
        << "| bytes allocated | " << ms.bytes_allocated << " |\n"
        << "| bytes first-touched (parallel) | " << ms.bytes_first_touched
        << " |\n"
        << "| huge-page coverage | "
        << report::fmt_percent(ms.hugepage_coverage()) << " |\n"
        << "| streaming fill bytes | " << ms.stream_fill_bytes << " |\n"
        << "| streaming copy bytes | " << ms.stream_copy_bytes << " |\n"
        << "| pool fallbacks (degraded allocations) | " << ms.pool_fallbacks
        << " |\n";

    // Resilience telemetry (docs/resilience.md): zero everywhere unless
    // SYCLPORT_FAULT armed a plan for this process, in which case every
    // injected fault must show a matching recovery (or the run ended
    // with a typed error before this report was written).
    const auto fs = sycl::launch_log::fault_stats();
    namespace fault = syclport::rt::fault;
    out << "\n## Resilience (fault injection telemetry, this process)\n\n"
        << "| site | injected | recovered |\n|---|---|---|\n";
    for (std::size_t s = 0; s < fault::kSiteCount; ++s) {
      const auto site = static_cast<fault::Site>(s);
      if (fs.injected_at(site) == 0 && fs.recovered_at(site) == 0) continue;
      out << "| " << fault::to_string(site) << " | " << fs.injected_at(site)
          << " | " << fs.recovered_at(site) << " |\n";
    }
    out << "| total | " << fs.total_injected() << " | "
        << fs.total_recovered() << " |\n";
  }

  // Cross-loop fusion telemetry (docs/fusion.md): a small executed
  // Acoustic run under SYCLPORT_FUSION=on populates the launch log's
  // fusion records - one per chain flush, carrying the dataflow
  // partition and the modeled DRAM bytes the fused schedule eliminated.
  {
    auto& log = sycl::launch_log::instance();
    log.clear();
    log.set_enabled(true);
    setenv("SYCLPORT_FUSION", "on", 1);
    ops::Options o;
    o.backend = ops::Backend::Serial;
    (void)apps::run_acoustic(o, apps::acoustic_small());
    unsetenv("SYCLPORT_FUSION");
    log.set_enabled(false);

    const auto fstats = log.fusion_stats();
    out << "\n## Cross-loop fusion (acoustic exercise, this process)\n\n"
        << "| metric | value |\n|---|---|\n"
        << "| chain flushes | " << fstats.chains << " |\n"
        << "| fused flushes | " << fstats.fused_chains << " |\n"
        << "| fusable bytes | " << report::fmt(fstats.fusable_bytes / 1e6, 1)
        << " MB |\n"
        << "| eliminated bytes | "
        << report::fmt(fstats.eliminated_bytes / 1e6, 1) << " MB |\n"
        << "| rw double-buffer bytes | "
        << report::fmt(fstats.rw_copy_bytes / 1e6, 1) << " MB |\n";

    // Per-chain-site breakdown (aggregated over flushes of each site).
    struct Agg {
      std::size_t flushes = 0, loops = 0, segments = 0, tile = 0;
      double fusable = 0.0, eliminated = 0.0;
    };
    std::map<std::string, Agg> sites;
    for (const auto& r : log.fusions_snapshot()) {
      Agg& a = sites[r.chain];
      a.flushes += 1;
      a.loops = r.loops;
      a.segments = r.segments;
      a.tile = std::max(a.tile, r.tile);
      a.fusable += r.fusable_bytes;
      a.eliminated += r.eliminated_bytes;
    }
    out << "\n| chain site | flushes | loops | segments | tile | "
        << "eliminated |\n|---|---|---|---|---|---|\n";
    for (const auto& [name, a] : sites)
      out << "| `" << name << "` | " << a.flushes << " | " << a.loops
          << " | " << a.segments << " | " << a.tile << " | "
          << report::fmt(a.eliminated / 1e6, 1) << " MB |\n";
    log.clear();
  }

  // Launch-timing tails: an executed Acoustic run with the launch log
  // enabled, summarized per kernel site as p50/p95/p99 host seconds -
  // mean-only summaries hide exactly the stragglers a bandwidth study
  // cares about.
  {
    auto& log = sycl::launch_log::instance();
    log.clear();
    log.set_enabled(true);
    ops::Options o;
    o.backend = ops::Backend::SyclFlat;
    (void)apps::run_acoustic(o, apps::acoustic_small());
    log.set_enabled(false);
    out << "\n## Launch timing (executed acoustic exercise, this process)\n\n"
        << "| kernel site | launches | total | mean | p50 | p95 | p99 |\n"
        << "|---|---|---|---|---|---|---|\n";
    auto row = [&](const std::string& name, const sycl::TimingSummary& ts) {
      out << "| `" << name << "` | " << ts.count << " | "
          << report::fmt(ts.total_s * 1e3, 2) << " ms | "
          << report::fmt(ts.mean_s * 1e6, 1) << " us | "
          << report::fmt(ts.p50_s * 1e6, 1) << " us | "
          << report::fmt(ts.p95_s * 1e6, 1) << " us | "
          << report::fmt(ts.p99_s * 1e6, 1) << " us |\n";
    };
    for (const auto& [name, ts] : log.kernel_timing_summaries()) row(name, ts);
    row("(all)", log.timing_summary());
    log.clear();
  }

  // Unstructured locality decisions (docs/unstructured.md): executed
  // MG-CFD exercises under the seed configuration and under the
  // renumber+staged engine. Every indirect-increment loop appends one
  // decision record per launch: the strategy/layout/ordering it ran
  // with and its measured cold gather line factor next to the hardware
  // model's prediction at half the host's LLC.
  {
    auto& log = sycl::launch_log::instance();
    auto run_case = [&](const char* ordering, Strategy s) {
      setenv("SYCLPORT_RENUMBER", ordering, 1);
      op2::Options o;
      o.exec = op2::Exec::Serial;
      o.strategy = s;
      o.tune = false;  // report the explicit configs, not a tuner race
      (void)apps::run_mgcfd(o, apps::mgcfd_small());
      unsetenv("SYCLPORT_RENUMBER");
    };
    log.clear();
    log.set_enabled(true);
    run_case("identity", Strategy::Atomics);
    run_case("rcm", Strategy::Staged);
    log.set_enabled(false);

    struct LAgg {
      std::size_t launches = 0;
      double measured = 0.0, predicted = 0.0;
    };
    std::map<std::tuple<std::string, std::string, std::string, std::string>,
             LAgg>
        decisions;
    for (const auto& r : log.localities_snapshot()) {
      LAgg& a = decisions[{r.loop, r.strategy, r.layout, r.ordering}];
      a.launches += 1;
      a.measured = r.measured_gather;
      a.predicted = r.predicted_gather;
    }
    out << "\n## Unstructured locality decisions (executed MG-CFD, this "
           "process)\n\n"
        << "| loop | strategy | layout | ordering | launches | "
        << "measured gather | predicted gather |\n"
        << "|---|---|---|---|---|---|---|\n";
    for (const auto& [key, a] : decisions)
      out << "| `" << std::get<0>(key) << "` | " << std::get<1>(key) << " | "
          << std::get<2>(key) << " | " << std::get<3>(key) << " | "
          << a.launches << " | " << report::fmt(a.measured, 2) << " | "
          << report::fmt(a.predicted, 2) << " |\n";
    log.clear();
  }

  std::cout << "report written to " << out_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  const std::string cmd = args[0];

  std::map<std::string, std::string> opts;
  for (std::size_t i = 1; i < args.size(); i += 2) {
    if (args[i].rfind("--", 0) != 0 || i + 1 == args.size()) return usage();
    opts[args[i].substr(2)] = args[i + 1];
  }

  if (cmd == "list") return cmd_list();
  if (cmd == "stream") return cmd_stream();
  if (cmd == "report")
    return cmd_report(opts.count("out") ? opts["out"] : "study_report.md");

  const auto app_it = opts.find("app");
  if (app_it == opts.end()) return usage();
  const auto app = parse_app_slug(app_it->second);
  if (!app) {
    std::cerr << "unknown app: " << app_it->second << "\n";
    return 2;
  }

  if (cmd == "validate")
    return cmd_validate(*app, opts.count("backend") ? opts["backend"] : "");

  if (cmd == "run") {
    std::optional<PlatformId> platform;
    if (opts.count("platform")) {
      platform = parse_platform_slug(opts["platform"]);
      if (!platform) {
        std::cerr << "unknown platform: " << opts["platform"] << "\n";
        return 2;
      }
    }
    std::optional<Variant> variant;
    if (opts.count("variant")) {
      variant = parse_variant(opts["variant"]);
      if (!variant) {
        std::cerr << "unknown variant: " << opts["variant"] << "\n";
        return 2;
      }
    }
    std::optional<Strategy> strategy;
    if (opts.count("strategy")) {
      strategy = parse_strategy(opts["strategy"]);
      if (!strategy) {
        std::cerr << "unknown strategy: " << opts["strategy"] << "\n";
        return 2;
      }
    }
    return cmd_run(*app, platform, variant, strategy,
                   opts.count("trace") ? opts["trace"] : "");
  }
  return usage();
}
