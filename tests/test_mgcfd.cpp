// Integration tests for MG-CFD: mesh hierarchy sanity, conservation of
// the flux kernel, equivalence across race-resolution strategies and
// executors, and the paper's locality narrative on a high-degree mesh.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>

#include "apps/mgcfd/mgcfd.hpp"

namespace apps = syclport::apps;
namespace op2 = syclport::op2;
namespace hw = syclport::hw;
using syclport::Strategy;

namespace {
op2::Options strategy_opts(Strategy s, op2::Exec x = op2::Exec::Threads) {
  op2::Options o;
  o.strategy = s;
  o.exec = x;
  o.block_size = 64;
  return o;
}
}  // namespace

TEST(Mesh, HierarchyShrinksByEight) {
  const auto mesh = apps::mgcfd::build_rotor_mesh(16, 12, 8, 3);
  ASSERT_EQ(mesh.levels.size(), 3u);
  EXPECT_EQ(mesh.fine_nodes(), 16u * 12 * 8);
  EXPECT_LT(mesh.levels[1].nodes->size(), mesh.levels[0].nodes->size() / 4);
  EXPECT_LT(mesh.levels[2].nodes->size(), mesh.levels[1].nodes->size());
  for (const auto& lvl : mesh.levels) {
    EXPECT_GT(lvl.edges->size(), lvl.nodes->size());  // degree > 2
  }
}

TEST(Mesh, FromFineMapsCoverCoarseNodes) {
  const auto mesh = apps::mgcfd::build_rotor_mesh(12, 10, 8, 3);
  for (std::size_t l = 1; l < mesh.levels.size(); ++l) {
    const auto& f2c = *mesh.levels[l].from_fine;
    std::vector<int> hit(mesh.levels[l].nodes->size(), 0);
    for (std::size_t n = 0; n < f2c.from().size(); ++n)
      hit[static_cast<std::size_t>(f2c.at(n, 0))] = 1;
    for (int h : hit) EXPECT_EQ(h, 1);  // every coarse node receives
  }
}

TEST(Mesh, EdgeDegreeIsHigh) {
  // In-plane diagonals push average vertex degree well above a plain
  // structured grid's 6 - needed for the paper's colouring contrast.
  const auto mesh = apps::mgcfd::build_rotor_mesh(20, 20, 10, 1);
  const double avg_degree =
      2.0 * static_cast<double>(mesh.fine_edges()) /
      static_cast<double>(mesh.fine_nodes());
  EXPECT_GT(avg_degree, 8.0);
}

TEST(Mgcfd, RunsAndConservesMass) {
  auto mesh = apps::mgcfd::build_rotor_mesh(10, 8, 6, 3);
  const auto rs =
      apps::run_mgcfd(strategy_opts(Strategy::Atomics), mesh, 2);
  EXPECT_TRUE(std::isfinite(rs.checksum));
  EXPECT_GT(rs.checksum, 0.0);
}

TEST(Mgcfd, StrategiesAgree) {
  // All three race-resolution strategies must produce the same physics
  // (atomics only reorders floating-point adds).
  const auto cfg = apps::mgcfd_small();
  double ref = 0.0;
  bool first = true;
  for (Strategy s :
       {Strategy::GlobalColor, Strategy::Hierarchical, Strategy::Atomics}) {
    for (op2::Exec x : {op2::Exec::Serial, op2::Exec::Threads, op2::Exec::Sycl}) {
      const auto rs = apps::run_mgcfd(strategy_opts(s, x), cfg);
      if (first) {
        ref = rs.checksum;
        first = false;
      } else {
        EXPECT_NEAR(rs.checksum, ref, 1e-8 * std::fabs(ref))
            << syclport::to_string(s);
      }
    }
  }
}

TEST(Mgcfd, FluxKernelDominatesTraffic) {
  auto mesh = apps::mgcfd::build_rotor_mesh(12, 10, 8, 3);
  const auto rs = apps::run_mgcfd(strategy_opts(Strategy::Atomics), mesh, 1);
  double flux_bytes = 0, total = 0;
  for (const auto& p : rs.profiles) {
    total += p.total_bytes();
    if (p.name == "compute_flux") flux_bytes += p.total_bytes();
  }
  EXPECT_GT(flux_bytes / total, 0.35);
}

TEST(Mgcfd, CoarseLevelsHaveSmallerWorkingSets) {
  auto mesh = apps::mgcfd::build_rotor_mesh(16, 12, 8, 3);
  const auto rs = apps::run_mgcfd(strategy_opts(Strategy::Atomics), mesh, 1);
  // compute_flux appears once per level per iteration, fine level first.
  std::vector<double> flux_ws;
  for (const auto& p : rs.profiles)
    if (p.name == "compute_flux") flux_ws.push_back(p.working_set);
  ASSERT_EQ(flux_ws.size(), 3u);
  EXPECT_GT(flux_ws[0], 4.0 * flux_ws[1]);
  EXPECT_GT(flux_ws[1], 2.0 * flux_ws[2]);
}

TEST(Mgcfd, LocalityContrastMatchesPaperNarrative) {
  // Paper §4.3 (MI250X): atomics ~3500 B/wave, hierarchical ~8600,
  // global colouring ~39000. On the rotor-like mesh the measured
  // ordering and a pronounced spread must reproduce.
  auto mesh = apps::mgcfd::build_rotor_mesh(24, 20, 12, 1);
  auto factor = [&](Strategy s) {
    op2::Context ctx(strategy_opts(s));
    auto mesh_local = apps::mgcfd::build_rotor_mesh(24, 20, 12, 1);
    op2::Dat<double> ew(*mesh_local.levels[0].edges, 3, "w");
    op2::Dat<double> flux(*mesh_local.levels[0].nodes, 5, "f");
    op2::par_loop(ctx, {"probe"}, *mesh_local.levels[0].edges,
                  [](const double*, op2::Inc<double> a, op2::Inc<double> b) {
                    a.add(0, 1.0);
                    b.add(0, 1.0);
                  },
                  op2::arg_direct(ew, op2::Acc::R),
                  op2::arg_inc(flux, *mesh_local.levels[0].e2n, 0),
                  op2::arg_inc(flux, *mesh_local.levels[0].e2n, 1));
    return ctx.profiles[0].gather_line_factor;
  };
  const double atom = factor(Strategy::Atomics);
  const double glob = factor(Strategy::GlobalColor);
  const double hier = factor(Strategy::Hierarchical);
  EXPECT_LT(atom, hier);
  EXPECT_LT(hier, glob);
  // Raw line-traffic spread; the paper's full 11x separation appears
  // only after the cache model amplifies it (verified in the figure-8
  // bench), so assert a clear but smaller raw contrast here.
  EXPECT_GT(glob / atom, 2.0);
}

TEST(Mgcfd, AtomicUpdateCountsOnlyForAtomicsStrategy) {
  const auto cfg = apps::mgcfd_small();
  auto count_atomics = [&](Strategy s) {
    auto mesh = apps::mgcfd::build_rotor_mesh(cfg.ni, cfg.nj, cfg.nk, 2);
    const auto rs = apps::run_mgcfd(strategy_opts(s), mesh, 1);
    std::size_t n = 0;
    for (const auto& p : rs.profiles) n += p.atomic_updates;
    return n;
  };
  EXPECT_GT(count_atomics(Strategy::Atomics), 0u);
  EXPECT_EQ(count_atomics(Strategy::GlobalColor), 0u);
}

TEST(Mgcfd, ModelOnlyPaperScaleMeshTooBigIsNotBuilt) {
  // ModelOnly runs still need the mesh (colouring is real), so the
  // study uses the bench mesh and scales traffic; verify the bench mesh
  // is buildable and produces full profiles quickly.
  const auto cfg = apps::mgcfd_bench();
  auto mesh = apps::mgcfd::build_rotor_mesh(16, 12, 10, cfg.levels);
  op2::Options o = strategy_opts(Strategy::Hierarchical, op2::Exec::Serial);
  o.mode = op2::Mode::ModelOnly;
  const auto rs = apps::run_mgcfd(o, mesh, 2);
  EXPECT_EQ(rs.checksum, 0.0);
  EXPECT_GT(rs.profiles.size(), 20u);
  for (const auto& p : rs.profiles)
    if (p.name == "compute_flux") {
      EXPECT_GT(p.launches, 0u);
    }
}


#include "apps/mgcfd/mesh_io.hpp"

TEST(MeshIo, RoundTripPreservesHierarchy) {
  const auto mesh = syclport::apps::mgcfd::build_rotor_mesh(10, 8, 6, 3);
  const std::string path = "/tmp/syclport_mesh_roundtrip.txt";
  syclport::apps::mgcfd::save_mesh(path, mesh);
  const auto loaded = syclport::apps::mgcfd::load_mesh(path);

  ASSERT_EQ(loaded.levels.size(), mesh.levels.size());
  for (std::size_t l = 0; l < mesh.levels.size(); ++l) {
    const auto& a = mesh.levels[l];
    const auto& b = loaded.levels[l];
    ASSERT_EQ(b.nodes->size(), a.nodes->size());
    ASSERT_EQ(b.edges->size(), a.edges->size());
    EXPECT_EQ(b.dims, a.dims);
    for (std::size_t e = 0; e < a.edges->size(); ++e)
      for (int i = 0; i < a.e2n->arity(); ++i)
        ASSERT_EQ(b.e2n->at(e, i), a.e2n->at(e, i));
    for (std::size_t n = 0; n < a.nodes->size(); ++n)
      for (int d = 0; d < 3; ++d)
        ASSERT_NEAR(b.coords[n][d], a.coords[n][d], 1e-12);
    if (l > 0) {
      for (std::size_t n = 0; n < mesh.levels[l - 1].nodes->size(); ++n)
        ASSERT_EQ(b.from_fine->at(n, 0), a.from_fine->at(n, 0));
    }
  }
}

TEST(MeshIo, LoadedMeshRunsMgcfd) {
  const auto mesh = syclport::apps::mgcfd::build_rotor_mesh(10, 8, 6, 3);
  const std::string path = "/tmp/syclport_mesh_run.txt";
  syclport::apps::mgcfd::save_mesh(path, mesh);
  auto loaded = syclport::apps::mgcfd::load_mesh(path);

  op2::Options o;
  o.strategy = Strategy::Atomics;
  auto mesh2 = syclport::apps::mgcfd::build_rotor_mesh(10, 8, 6, 3);
  op2::Options o2 = o;
  const double ref = apps::run_mgcfd(o2, mesh2, 2).checksum;
  const double got = apps::run_mgcfd(o, loaded, 2).checksum;
  EXPECT_DOUBLE_EQ(got, ref);
}

TEST(MeshIo, RejectsCorruptFiles) {
  const std::string path = "/tmp/syclport_mesh_bad.txt";
  {
    std::ofstream f(path);
    f << "not-a-mesh 9\n";
  }
  EXPECT_THROW(syclport::apps::mgcfd::load_mesh(path), std::runtime_error);
  EXPECT_THROW(syclport::apps::mgcfd::load_mesh("/nonexistent/mesh.txt"),
               std::runtime_error);
}
