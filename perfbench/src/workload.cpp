#include "workload.hpp"

#include <bit>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/pp_metric.hpp"
#include "core/support.hpp"
#include "core/timing.hpp"
#include "json.hpp"
#include "runtime/mem/mem.hpp"
#include "spans.hpp"
#include "stream/babelstream.hpp"

namespace perfbench {

using namespace syclport;

namespace {

ops::Backend ops_backend(const std::string& b) {
  if (b == "serial") return ops::Backend::Serial;
  if (b == "threads") return ops::Backend::Threads;
  if (b == "sycl-flat") return ops::Backend::SyclFlat;
  if (b == "sycl-nd") return ops::Backend::SyclNd;
  throw std::invalid_argument("unknown OPS backend '" + b + "'");
}

op2::Exec op2_exec(const std::string& b) {
  if (b == "serial") return op2::Exec::Serial;
  if (b == "threads") return op2::Exec::Threads;
  if (b == "sycl") return op2::Exec::Sycl;
  throw std::invalid_argument("unknown OP2 backend '" + b + "'");
}

AppId app_id(const std::string& a) {
  if (a == "cloverleaf2d") return AppId::CloverLeaf2D;
  if (a == "cloverleaf3d") return AppId::CloverLeaf3D;
  if (a == "opensbli-sa") return AppId::OpenSBLI_SA;
  if (a == "opensbli-sn") return AppId::OpenSBLI_SN;
  if (a == "rtm") return AppId::RTM;
  if (a == "acoustic") return AppId::Acoustic;
  if (a == "mgcfd") return AppId::MGCFD;
  throw std::invalid_argument("unknown app '" + a + "'");
}

apps::RunSummary run_ops_app(const std::string& app, const ops::Options& o,
                             const apps::ProblemSize& ps) {
  switch (app_id(app)) {
    case AppId::CloverLeaf2D: return apps::run_cloverleaf2d(o, ps);
    case AppId::CloverLeaf3D: return apps::run_cloverleaf3d(o, ps);
    case AppId::OpenSBLI_SA: return apps::run_opensbli_sa(o, ps);
    case AppId::OpenSBLI_SN: return apps::run_opensbli_sn(o, ps);
    case AppId::RTM: return apps::run_rtm(o, ps);
    case AppId::Acoustic: return apps::run_acoustic(o, ps);
    case AppId::MGCFD: break;
  }
  throw std::invalid_argument("'" + app + "' is not an OPS app");
}

std::string cell_key(AppId a, PlatformId p, const Variant& v) {
  return std::string(to_string(a)) + "|" + std::string(to_string(p)) + "|" +
         to_string(v);
}

std::array<std::uint64_t, 8> cell_bits(const study::ExperimentResult& r) {
  return {static_cast<std::uint64_t>(r.status),
          std::bit_cast<std::uint64_t>(r.runtime_s),
          std::bit_cast<std::uint64_t>(r.boundary_s),
          std::bit_cast<std::uint64_t>(r.halo_s),
          std::bit_cast<std::uint64_t>(r.useful_bytes),
          std::bit_cast<std::uint64_t>(r.flops),
          std::bit_cast<std::uint64_t>(r.eff_bw_gbs),
          std::bit_cast<std::uint64_t>(r.efficiency)};
}

}  // namespace

OpSpec parse_spec(const std::string& text) {
  OpSpec s;
  const std::size_t b = text.find_first_not_of(' ');
  const std::size_t e = text.find_last_not_of(' ');
  s.text = b == std::string::npos ? "" : text.substr(b, e - b + 1);
  std::istringstream in(s.text);
  std::string grid;
  if (!(in >> s.kind >> s.app >> s.backend >> grid >> s.steps) || s.steps < 0)
    throw std::invalid_argument("malformed op spec '" + text + "'");
  std::size_t pos = 0;
  for (int d = 0; d < 3; ++d) {
    const std::size_t x = grid.find('x', pos);
    const std::string part = grid.substr(pos, x - pos);
    if (part.empty() || part.find_first_not_of("0123456789") != std::string::npos)
      throw std::invalid_argument("malformed grid in '" + text + "'");
    s.grid[static_cast<std::size_t>(d)] = std::stoull(part);
    if (x == std::string::npos) {
      if (d != 2) throw std::invalid_argument("grid needs 3 dims: " + text);
      break;
    }
    pos = x + 1;
  }
  return s;
}

void Executor::reset() {
  mesh_.reset();
  mesh_grid_.reset();
  runner_.reset();
  cells_first_.clear();
  eff_this_pass_.clear();
  pp_first_.clear();
}

void Executor::begin_pass() {
  runner_ = std::make_unique<study::StudyRunner>();
  eff_this_pass_.clear();
}

apps::mgcfd::MultigridMesh& Executor::mesh(
    const std::array<std::size_t, 3>& grid) {
  if (!mesh_ || mesh_grid_ != grid) {
    Span span("mgcfd::build_rotor_mesh", "apps");
    mesh_ = std::make_unique<apps::mgcfd::MultigridMesh>(
        apps::mgcfd::build_rotor_mesh(grid[0], grid[1], grid[2],
                                      apps::mgcfd_bench().levels));
    mesh_grid_ = grid;
  }
  return *mesh_;
}

std::string Executor::run(const OpSpec& spec) {
  JsonObject j;
  j.str("spec", spec.text);
  const auto mem0 = rt::mem::stats();
  try {
    if (spec.kind == "report") return run_report(spec);
    apps::RunSummary rs;
    WallTimer t;
    if (spec.kind == "ops") {
      ops::Options o;
      o.backend = ops_backend(spec.backend);
      Span span("apps::run_" + spec.app + " " + spec.backend, "apps");
      rs = run_ops_app(spec.app, o, {spec.grid, spec.steps});
    } else if (spec.kind == "stream") {
      ops::Options o;
      o.backend = ops_backend(spec.backend);
      Span span("stream::run " + spec.backend, "stream");
      rs = stream::run(o, spec.grid[0], spec.steps);
      j.num("expected", stream::expected_checksum(spec.grid[0], spec.steps));
      double bytes = 0.0;
      for (const auto k : {stream::Kernel::Copy, stream::Kernel::Mul,
                           stream::Kernel::Add, stream::Kernel::Triad,
                           stream::Kernel::Dot})
        bytes += stream::kernel_bytes(k, spec.grid[0]);
      j.num("stream_bytes", bytes * spec.steps);
    } else if (spec.kind == "mgcfd") {
      auto& m = mesh(spec.grid);
      op2::Options o;
      o.exec = op2_exec(spec.backend);
      t.reset();
      Span span("apps::run_mgcfd " + spec.backend, "apps");
      rs = apps::run_mgcfd(o, m, spec.steps);
    } else {
      throw std::invalid_argument("unknown op kind '" + spec.kind + "'");
    }
    const double wall = t.seconds();
    const auto mem1 = rt::mem::stats();
    j.num("wall_s", wall)
        .integer("steps", spec.steps)
        .num("checksum", rs.checksum)
        .integer("loops", static_cast<long long>(rs.profiles.size()))
        .num("useful_bytes", rs.useful_bytes())
        .integer("state_bytes",
                 static_cast<long long>(mem1.bytes_allocated -
                                        mem0.bytes_allocated));
  } catch (const std::exception& e) {
    j.str("error", e.what());
  }
  return j.done();
}

std::string Executor::run_report(const OpSpec& spec) {
  JsonObject j;
  j.str("spec", spec.text);
  if (!runner_) begin_pass();
  const AppId app = app_id(spec.app);
  const SupportMatrix& paper = SupportMatrix::paper();
  long long cells = 0;
  long long failed = 0;
  std::string first_error;
  WallTimer t;
  {
    Span span("study report " + spec.app, "study");
    for (const PlatformId p : kAllPlatforms) {
      const auto vars = app == AppId::MGCFD ? study::mgcfd_variants(p)
                                            : study::structured_variants(p);
      for (const Variant& v : vars) {
        ++cells;
        const std::string key = cell_key(app, p, v);
        try {
          Span cell("StudyRunner::run", "study");
          const study::ExperimentResult r = runner_->run(app, p, v);
          const auto bits = cell_bits(r);
          const auto [it, fresh] = cells_first_.emplace(key, bits);
          const bool same = fresh || it->second == bits;
          if (r.status != paper.status(p, app, v) || !same) {
            ++failed;
            if (first_error.empty())
              first_error = key + (same ? ": status differs from the paper"
                                        : ": differs from the first pass");
          }
          eff_this_pass_[key] = r.ok() ? r.efficiency : 0.0;
        } catch (const std::exception& e) {
          ++failed;
          if (first_error.empty()) first_error = key + ": " + e.what();
        }
      }
    }
  }
  j.num("wall_s", t.seconds())
      .integer("steps", 1)
      .integer("cells", cells)
      .integer("failed_cells", failed);
  if (!first_error.empty()) j.str("error", first_error);
  return j.done();
}

std::string Executor::end_pass() {
  JsonObject j;
  // PP needs every structured app's cells from this pass.
  bool complete = true;
  for (const AppId a : kStructuredApps)
    for (const PlatformId p : kAllPlatforms)
      for (const Variant& v : study::structured_variants(p))
        complete = complete && eff_this_pass_.count(cell_key(a, p, v)) != 0;
  if (!complete || eff_this_pass_.empty()) return j.done();

  struct Family {
    Model m;
    Toolchain tc;
    const char* name;
  };
  long long failed = 0;
  JsonObject values;
  Span span("pp_supported_only", "core");
  for (const Family f :
       {Family{Model::SYCLNDRange, Toolchain::DPCPP, "DPC++ nd_range"},
        Family{Model::SYCLNDRange, Toolchain::OpenSYCL, "OpenSYCL nd_range"},
        Family{Model::SYCLFlat, Toolchain::DPCPP, "DPC++ flat"},
        Family{Model::SYCLFlat, Toolchain::OpenSYCL, "OpenSYCL flat"}}) {
    std::vector<double> per_app;
    for (const AppId a : kStructuredApps) {
      std::vector<double> effs;
      for (const PlatformId p : kAllPlatforms) {
        double e = 0.0;
        for (const Variant& v : study::structured_variants(p))
          if (v.model == f.m && v.toolchain == f.tc)
            e = eff_this_pass_[cell_key(a, p, v)];
        effs.push_back(e);
      }
      per_app.push_back(pp_supported_only(effs));
    }
    double mean = 0.0;
    for (const double v : per_app) mean += v;
    mean /= static_cast<double>(per_app.size());
    values.num(f.name, mean);
    const auto [it, fresh] =
        pp_first_.emplace(f.name, std::bit_cast<std::uint64_t>(mean));
    if (!fresh && it->second != std::bit_cast<std::uint64_t>(mean)) ++failed;
  }
  j.integer("pp_cells", 4).integer("pp_failed", failed).raw("pp",
                                                            values.done());
  return j.done();
}

}  // namespace perfbench
