// Locality & layout engine tests: RCM/SFC renumbering (bandwidth and
// gather reduction, permutation algebra, end-to-end mesh consistency),
// the process-wide gather-statistics memo, physical-layout transcoding,
// the staged gather/scatter lowering's bit-exactness contract, and
// layout/ordering-canonical checkpoints.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <random>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "apps/mgcfd/mgcfd.hpp"
#include "op2/checkpoint.hpp"
#include "op2/op2.hpp"

namespace op2 = syclport::op2;
namespace apps = syclport::apps;
using syclport::Strategy;

namespace {

/// A 2D grid mesh (nv = ny*nx vertices, edges connect 4-neighbours).
struct GridMesh {
  op2::Set vertices;
  op2::Set edges;
  op2::Map e2v;

  static std::size_t edge_count(std::size_t ny, std::size_t nx) {
    return ny * (nx - 1) + (ny - 1) * nx;
  }

  GridMesh(std::size_t ny, std::size_t nx)
      : vertices("v", ny * nx),
        edges("e", edge_count(ny, nx)),
        e2v(edges, vertices, 2, "e2v") {
    std::size_t e = 0;
    for (std::size_t j = 0; j < ny; ++j)
      for (std::size_t i = 0; i + 1 < nx; ++i, ++e) {
        e2v.at(e, 0) = static_cast<int>(j * nx + i);
        e2v.at(e, 1) = static_cast<int>(j * nx + i + 1);
      }
    for (std::size_t j = 0; j + 1 < ny; ++j)
      for (std::size_t i = 0; i < nx; ++i, ++e) {
        e2v.at(e, 0) = static_cast<int>(j * nx + i);
        e2v.at(e, 1) = static_cast<int>((j + 1) * nx + i);
      }
  }
};

op2::Options opts(Strategy s, op2::Exec x = op2::Exec::Threads) {
  op2::Options o;
  o.strategy = s;
  o.exec = x;
  o.block_size = 16;
  return o;
}

std::vector<int> random_permutation(std::size_t n, std::mt19937& rng) {
  std::vector<int> p(n);
  std::iota(p.begin(), p.end(), 0);
  std::shuffle(p.begin(), p.end(), rng);
  return p;
}

}  // namespace

// --- renumbering -------------------------------------------------------------

TEST(LocalityRenumber, RcmReducesBandwidthOnScrambledRotor) {
  auto mesh = apps::mgcfd::build_rotor_mesh(12, 10, 8, 1);
  auto& lvl = mesh.levels.front();
  // Scramble the node labels to destroy the generator's lexicographic
  // ordering, then let RCM recover a banded numbering.
  std::mt19937 rng(11);
  op2::relabel_map_targets(*lvl.e2n,
                           random_permutation(lvl.nodes->size(), rng));
  const std::size_t before = op2::map_bandwidth(*lvl.e2n);
  const auto perm = op2::order_rcm(*lvl.e2n);
  op2::relabel_map_targets(*lvl.e2n, perm);
  const std::size_t after = op2::map_bandwidth(*lvl.e2n);
  EXPECT_LT(after, before / 2) << "RCM must at least halve the bandwidth "
                               << "of a randomly labeled rotor mesh";
  lvl.e2n->check();
}

TEST(LocalityRenumber, SfcOrderingsReduceGatherOnScrambledMesh) {
  // Morton and Hilbert node orders must shrink the measured gather
  // line factor of a scrambled mesh's natural-order sweep.
  for (op2::Ordering o : {op2::Ordering::Morton, op2::Ordering::Hilbert}) {
    auto mesh = apps::mgcfd::build_rotor_mesh(12, 10, 8, 1);
    auto& lvl = mesh.levels.front();
    std::mt19937 rng(13);
    const auto scramble = random_permutation(lvl.nodes->size(), rng);
    op2::relabel_map_targets(*lvl.e2n, scramble);
    const auto inv = op2::inverse_permutation(scramble);
    std::vector<std::array<double, 3>> sc(lvl.coords.size());
    for (std::size_t i = 0; i < sc.size(); ++i)
      sc[static_cast<std::size_t>(inv[i])] = lvl.coords[i];
    lvl.coords = sc;

    std::vector<int> ident(lvl.edges->size());
    std::iota(ident.begin(), ident.end(), 0);
    const auto before = op2::measure_gather(*lvl.e2n, 5, 8, ident);
    const auto nperm = o == op2::Ordering::Morton
                           ? op2::order_morton(lvl.coords)
                           : op2::order_hilbert(lvl.coords);
    op2::relabel_map_targets(*lvl.e2n, nperm);
    const auto eperm = op2::order_by_min_target(*lvl.e2n);
    op2::permute_map(*lvl.e2n, eperm);
    const auto after = op2::measure_gather(*lvl.e2n, 5, 8, ident);
    EXPECT_LT(after.line_factor, before.line_factor)
        << "ordering " << syclport::op2::to_string(o);
  }
}

TEST(LocalityRenumber, InversePermutationFuzz) {
  std::mt19937 rng(17);
  for (int trial = 0; trial < 16; ++trial) {
    const std::size_t n = 1 + rng() % 200;
    const auto perm = random_permutation(n, rng);
    const auto inv = op2::inverse_permutation(perm);
    ASSERT_EQ(inv.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      // apply-then-invert and invert-then-apply are both the identity
      EXPECT_EQ(inv[static_cast<std::size_t>(perm[i])], static_cast<int>(i));
      EXPECT_EQ(perm[static_cast<std::size_t>(inv[i])], static_cast<int>(i));
    }
  }
  EXPECT_THROW(op2::inverse_permutation({0, 0, 1}), std::invalid_argument);
}

TEST(LocalityRenumber, MinTargetTieBreaksOnElementId) {
  // Every edge shares minimum target 0: the order must be exactly the
  // element ids, ascending, regardless of the sort implementation.
  op2::Set verts("v", 8), edges("e", 6);
  op2::Map e2v(edges, verts, 2, "e2v");
  for (std::size_t e = 0; e < 6; ++e) {
    e2v.at(e, 0) = 0;
    e2v.at(e, 1) = static_cast<int>(e + 1);
  }
  const auto perm = op2::order_by_min_target(e2v);
  for (std::size_t e = 0; e < 6; ++e)
    EXPECT_EQ(perm[e], static_cast<int>(e));
}

TEST(LocalityRenumber, RenumberedMeshReproducesSolverAnswer) {
  // End-to-end consistency: a wrongly permuted map/coord/dat anywhere
  // in renumber_mesh would change the physics, not just the order.
  auto run = [](op2::Ordering o) {
    auto mesh = apps::mgcfd::build_rotor_mesh(10, 8, 6, 2);
    apps::mgcfd::renumber_mesh(mesh, o);
    return apps::run_mgcfd(opts(Strategy::Atomics, op2::Exec::Serial), mesh,
                           2)
        .checksum;
  };
  const double ref = run(op2::Ordering::Identity);
  for (op2::Ordering o : {op2::Ordering::MinTarget, op2::Ordering::RCM,
                          op2::Ordering::Morton, op2::Ordering::Hilbert})
    EXPECT_NEAR(run(o), ref, 1e-8 * std::abs(ref))
        << "ordering " << syclport::op2::to_string(o);
}

TEST(LocalityRenumber, RenumberMeshRecordsPermutations) {
  auto mesh = apps::mgcfd::build_rotor_mesh(10, 8, 6, 2);
  apps::mgcfd::renumber_mesh(mesh, op2::Ordering::RCM);
  // RCM reverses the lexicographic order at minimum, so both sets must
  // carry a recorded (invertible) permutation.
  auto& lvl = mesh.levels.front();
  EXPECT_TRUE(lvl.nodes->renumbered());
  std::vector<bool> seen(lvl.nodes->size(), false);
  for (std::size_t i = 0; i < lvl.nodes->size(); ++i) {
    const std::size_t o = lvl.nodes->to_original(i);
    ASSERT_LT(o, seen.size());
    EXPECT_FALSE(seen[o]);
    seen[o] = true;
  }
}

// --- layout transcode --------------------------------------------------------

TEST(LocalityLayout, TranscodeRoundTripPreservesValuesExactly) {
  op2::Set s("n", 37);  // deliberately not a multiple of the AoSoA width
  op2::Dat<double> d(s, 5, "d");
  std::mt19937 rng(23);
  std::uniform_real_distribution<double> dist(-1e3, 1e3);
  std::vector<double> expect(37 * 5);
  for (std::size_t e = 0; e < 37; ++e)
    for (int c = 0; c < 5; ++c) {
      const double v = dist(rng);
      d.at(e, c) = v;
      expect[e * 5 + static_cast<std::size_t>(c)] = v;
    }
  using L = op2::Layout;
  for (L l : {L::SoA, L::AoSoA, L::AoS, L::AoSoA, L::SoA, L::AoS}) {
    d.set_layout(l);
    EXPECT_EQ(d.layout(), l);
    for (std::size_t e = 0; e < 37; ++e)
      for (int c = 0; c < 5; ++c)
        ASSERT_EQ(d.at(e, c), expect[e * 5 + static_cast<std::size_t>(c)])
            << "layout " << syclport::op2::to_string(l) << " (" << e << ","
            << c << ")";
  }
}

TEST(LocalityLayout, ElemRequiresAoS) {
  op2::Set s("n", 8);
  op2::Dat<double> d(s, 2, "d");
  EXPECT_NO_THROW((void)d.elem(0));
  d.set_layout(op2::Layout::SoA);
  EXPECT_THROW((void)d.elem(0), std::logic_error);
}

// --- staged lowering ---------------------------------------------------------

namespace {

/// Reference result of the test kernel applied serially in element
/// order: the accumulation order the staged ordered scatter guarantees.
std::vector<double> staged_reference(const GridMesh& mesh,
                                     const std::vector<double>& w,
                                     const std::vector<double>& x) {
  std::vector<double> out(mesh.vertices.size(), 0.0);
  for (std::size_t e = 0; e < mesh.edges.size(); ++e) {
    const auto a = static_cast<std::size_t>(mesh.e2v.at(e, 0));
    const auto b = static_cast<std::size_t>(mesh.e2v.at(e, 1));
    out[a] += w[e] * x[b];
    out[b] -= w[e] * x[a];
  }
  return out;
}

/// Run the kernel under (strategy, exec, layout) and return the vertex
/// sums. The kernel mixes all four argument kinds the stager handles:
/// direct-R, two indirect-R gathers, two INC scatters.
std::vector<double> run_staged_case(GridMesh& mesh, Strategy s, op2::Exec x,
                                    op2::Layout lay,
                                    const std::vector<double>& w,
                                    const std::vector<double>& xv) {
  op2::Context ctx(opts(s, x));
  op2::Dat<double> ew(mesh.edges, 1, "w");
  op2::Dat<double> vx(mesh.vertices, 1, "x");
  op2::Dat<double> vsum(mesh.vertices, 1, "sum");
  for (std::size_t e = 0; e < w.size(); ++e) ew.at(e) = w[e];
  for (std::size_t v = 0; v < xv.size(); ++v) vx.at(v) = xv[v];
  vsum.fill(0.0);
  vx.set_layout(lay);
  vsum.set_layout(lay);
  op2::par_loop(ctx, {"staged_case", 4.0}, mesh.edges,
                [](const double* wv, const double* xa, const double* xb,
                   op2::Inc<double> va, op2::Inc<double> vb) {
                  va.add(0, wv[0] * xb[0]);
                  vb.add(0, -wv[0] * xa[0]);
                },
                op2::arg_direct(ew, op2::Acc::R),
                op2::arg_indirect(vx, mesh.e2v, 0, op2::Acc::R),
                op2::arg_indirect(vx, mesh.e2v, 1, op2::Acc::R),
                op2::arg_inc(vsum, mesh.e2v, 0),
                op2::arg_inc(vsum, mesh.e2v, 1));
  std::vector<double> out(mesh.vertices.size());
  for (std::size_t v = 0; v < out.size(); ++v) out[v] = vsum.at(v);
  return out;
}

}  // namespace

TEST(LocalityStaged, BitExactAcrossExecAndLayoutMatrix) {
  GridMesh mesh(20, 20);
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> w(mesh.edges.size()), x(mesh.vertices.size());
  for (auto& v : w) v = dist(rng);
  for (auto& v : x) v = dist(rng);
  const auto ref = staged_reference(mesh, w, x);

  using op2::Exec;
  using op2::Layout;
  for (Exec e : {Exec::Serial, Exec::Threads, Exec::Sycl}) {
    // Staged reproduces the serial element-order accumulation bit for
    // bit at any thread count and under any operand layout: Phase B
    // applies every target's increments in element order.
    for (Layout lay : {Layout::AoS, Layout::SoA, Layout::AoSoA}) {
      const auto got = run_staged_case(mesh, Strategy::Staged, e, lay, w, x);
      for (std::size_t v = 0; v < ref.size(); ++v)
        ASSERT_EQ(got[v], ref[v])
            << "staged exec " << static_cast<int>(e) << " layout "
            << syclport::op2::to_string(lay) << " vertex " << v;
    }
    // Non-AoS operands force the staged path even when the context asks
    // for an eager strategy - same bits again.
    const auto coerced =
        run_staged_case(mesh, Strategy::Atomics, e, Layout::SoA, w, x);
    for (std::size_t v = 0; v < ref.size(); ++v)
      ASSERT_EQ(coerced[v], ref[v]) << "coerced vertex " << v;
  }

  // Colouring schedules are deterministic (same schedule at any thread
  // count: bit-equal to their own serial run) and FP-close to the
  // element-order reference; atomics is FP-close only.
  for (Strategy s : {Strategy::GlobalColor, Strategy::Hierarchical}) {
    const auto serial =
        run_staged_case(mesh, s, Exec::Serial, Layout::AoS, w, x);
    for (Exec e : {Exec::Threads, Exec::Sycl}) {
      const auto got = run_staged_case(mesh, s, e, Layout::AoS, w, x);
      for (std::size_t v = 0; v < ref.size(); ++v)
        ASSERT_EQ(got[v], serial[v]) << "strategy "
                                     << syclport::to_string(s) << " " << v;
    }
    for (std::size_t v = 0; v < ref.size(); ++v)
      ASSERT_NEAR(serial[v], ref[v], 1e-12);
  }
  for (Exec e : {Exec::Threads, Exec::Sycl}) {
    const auto got =
        run_staged_case(mesh, Strategy::Atomics, e, Layout::AoS, w, x);
    for (std::size_t v = 0; v < ref.size(); ++v)
      ASSERT_NEAR(got[v], ref[v], 1e-12);
  }
}

TEST(LocalityStaged, DirectLoopAutoStagesNonAoS) {
  op2::Set verts("n", 203);
  op2::Context ctx(opts(Strategy::Atomics, op2::Exec::Threads));
  op2::Dat<double> x(verts, 3, "x"), y(verts, 3, "y");
  for (std::size_t e = 0; e < verts.size(); ++e)
    for (int c = 0; c < 3; ++c)
      x.at(e, c) = 0.25 * static_cast<double>(e) + c;
  x.set_layout(op2::Layout::SoA);
  y.set_layout(op2::Layout::AoSoA);
  op2::par_loop(ctx, {"axpy"}, verts,
                [](double* yy, const double* xx) {
                  for (int c = 0; c < 3; ++c) yy[c] = 2.0 * xx[c] + 1.0;
                },
                op2::arg_direct(y, op2::Acc::W),
                op2::arg_direct(x, op2::Acc::R));
  for (std::size_t e = 0; e < verts.size(); ++e)
    for (int c = 0; c < 3; ++c)
      ASSERT_EQ(y.at(e, c), 2.0 * (0.25 * static_cast<double>(e) + c) + 1.0);
}

TEST(LocalityStaged, IndirectWriteRejected) {
  GridMesh mesh(6, 6);
  op2::Context ctx(opts(Strategy::Staged, op2::Exec::Serial));
  op2::Dat<double> vx(mesh.vertices, 1, "x");
  op2::Dat<double> vsum(mesh.vertices, 1, "s");
  EXPECT_THROW(
      op2::par_loop(ctx, {"bad"}, mesh.edges,
                    [](const double* a, op2::Inc<double> s) { s.add(0, a[0]); },
                    op2::arg_indirect(vx, mesh.e2v, 0, op2::Acc::RW),
                    op2::arg_inc(vsum, mesh.e2v, 1)),
      std::invalid_argument);
}

TEST(LocalityStaged, SubsetLoopRejectsNonAoS) {
  op2::Set verts("n", 16);
  op2::Context ctx(opts(Strategy::Atomics, op2::Exec::Serial));
  op2::Dat<double> x(verts, 1, "x");
  x.set_layout(op2::Layout::SoA);
  const std::vector<int> subset{0, 1, 2};
  EXPECT_THROW(op2::par_loop_subset(ctx, {"sub"}, verts, subset,
                                    [](double* v) { v[0] = 1.0; },
                                    op2::arg_direct(x, op2::Acc::W)),
               std::invalid_argument);
}

TEST(LocalityStaged, StagedProfileRecordsTwoLaunchesNoAtomics) {
  GridMesh mesh(10, 10);
  op2::Context ctx(opts(Strategy::Staged, op2::Exec::Serial));
  op2::Dat<double> ew(mesh.edges, 1, "w");
  op2::Dat<double> vres(mesh.vertices, 1, "r");
  op2::par_loop(ctx, {"flux"}, mesh.edges,
                [](const double* wv, op2::Inc<double> a, op2::Inc<double> b) {
                  a.add(0, wv[0]);
                  b.add(0, wv[0]);
                },
                op2::arg_direct(ew, op2::Acc::R),
                op2::arg_inc(vres, mesh.e2v, 0),
                op2::arg_inc(vres, mesh.e2v, 1));
  ASSERT_EQ(ctx.profiles.size(), 1u);
  EXPECT_TRUE(ctx.profiles[0].staged);
  EXPECT_EQ(ctx.profiles[0].launches, 2u);
  EXPECT_EQ(ctx.profiles[0].atomic_updates, 0u);
  EXPECT_GT(ctx.profiles[0].staged_bytes, 0.0);
}

// --- gather-statistics memo --------------------------------------------------

namespace {

/// A dat dim no earlier gather_for call in this process used, so each
/// call with it misses the memo (also under --gtest_repeat).
int fresh_dim() {
  static int next = 16;  // above every dim the other tests gather
  return next++;
}

bool same_bits(const op2::GatherStats& a, const op2::GatherStats& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

op2::GatherStats measured_directly(const op2::Map& map, int dim,
                                   Strategy s, op2::Layout layout) {
  const op2::Options o;
  return op2::measure_gather(
      map, dim, 8,
      op2::execution_order(op2::build_plan(map, s, o.block_size, 0)), o.wave,
      64.0, layout);
}

}  // namespace

TEST(LocalityGatherCache, IdenticalMeshesShareOneEntry) {
  // Two separately built meshes with equal connectivity live at
  // different addresses; the memo keys by content, so the second
  // context reads the first one's entry.
  auto a = apps::mgcfd::build_rotor_mesh(10, 8, 6, 3);
  auto b = apps::mgcfd::build_rotor_mesh(10, 8, 6, 3);
  const int dim = fresh_dim();
  const std::size_t before = op2::gather_memo_entries();
  op2::Context ca;
  const op2::GatherStats sa = ca.gather_for(*a.levels.front().e2n, dim, 8,
                                            Strategy::Atomics,
                                            op2::Layout::AoS);
  EXPECT_EQ(op2::gather_memo_entries(), before + 1);
  op2::Context cb;
  const op2::GatherStats sb = cb.gather_for(*b.levels.front().e2n, dim, 8,
                                            Strategy::Atomics,
                                            op2::Layout::AoS);
  EXPECT_EQ(op2::gather_memo_entries(), before + 1);
  EXPECT_TRUE(same_bits(sa, sb));
}

TEST(LocalityGatherCache, RenumberedMeshGetsItsOwnEntry) {
  auto mesh = apps::mgcfd::build_rotor_mesh(10, 8, 6, 3);
  const op2::Map& e2n = *mesh.levels.front().e2n;
  const std::uint64_t identity_hash = op2::map_content_hash(e2n);
  const int dim = fresh_dim();
  const std::size_t before = op2::gather_memo_entries();
  op2::GatherStats identity;
  {
    op2::Context ctx;
    identity = ctx.gather_for(e2n, dim, 8, Strategy::GlobalColor,
                              op2::Layout::SoA);
  }
  apps::mgcfd::renumber_mesh(mesh, op2::Ordering::RCM);
  EXPECT_NE(op2::map_content_hash(e2n), identity_hash);
  op2::Context ctx;
  const op2::GatherStats renumbered =
      ctx.gather_for(e2n, dim, 8, Strategy::GlobalColor, op2::Layout::SoA);
  EXPECT_EQ(op2::gather_memo_entries(), before + 2);
  EXPECT_TRUE(same_bits(renumbered,
                        measured_directly(e2n, dim, Strategy::GlobalColor,
                                          op2::Layout::SoA)));
  EXPECT_FALSE(same_bits(renumbered, identity));
}

TEST(LocalityGatherCache, AtEditAfterGatherGetsANewKey) {
  // The memo is keyed by the map's content, not its address: an edit
  // through Map::at after a gather makes the next context measure the
  // edited mesh under a new key.
  auto mesh = apps::mgcfd::build_rotor_mesh(10, 8, 6, 3);
  op2::Map& e2n = *mesh.levels.front().e2n;
  const int dim = fresh_dim();
  const std::size_t before = op2::gather_memo_entries();
  {
    op2::Context ctx;
    (void)ctx.gather_for(e2n, dim, 8, Strategy::Atomics, op2::Layout::AoS);
  }
  const std::uint64_t unedited = op2::map_content_hash(e2n);
  std::swap(e2n.at(0, 0), e2n.at(0, 1));
  EXPECT_NE(op2::map_content_hash(e2n), unedited);
  op2::Context ctx;
  const op2::GatherStats edited =
      ctx.gather_for(e2n, dim, 8, Strategy::Atomics, op2::Layout::AoS);
  EXPECT_EQ(op2::gather_memo_entries(), before + 2);
  EXPECT_TRUE(same_bits(edited, measured_directly(e2n, dim, Strategy::Atomics,
                                                  op2::Layout::AoS)));
  // The key is the edited content's: equal to a fresh copy edited the
  // same way.
  auto copy = apps::mgcfd::build_rotor_mesh(10, 8, 6, 3);
  op2::Map& copy_e2n = *copy.levels.front().e2n;
  std::swap(copy_e2n.at(0, 0), copy_e2n.at(0, 1));
  EXPECT_EQ(op2::map_content_hash(copy_e2n), op2::map_content_hash(e2n));
}

TEST(LocalityGatherCache, StatsBitsMatchTheUncachedSimulation) {
  // Bits of (avg, ideal, line_factor, factor_at[0..2]) for the fine e2n
  // (dim 5 doubles, default block size and wave) as the per-context,
  // hash-set simulation computed them before the memo existed. Both
  // meshes fit a 4 MB cache, so factor_at[3..7] are exactly 1.0. The
  // 24x20x16 mesh overflows the smaller cache points, which pins the
  // reuse clock's order of line touches.
  struct Golden {
    bool larger_mesh;
    Strategy strategy;
    op2::Layout layout;
    std::array<std::uint64_t, 6> bits;
  };
  static constexpr Golden kGolden[] = {
      {false, Strategy::Atomics, op2::Layout::AoS,
       {0x409dc80000000000, 0x409bf30000000000, 0x400969d0369d036a,
        0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000}},
      {false, Strategy::Atomics, op2::Layout::SoA,
       {0x40a1e40000000000, 0x409bf30000000000, 0x400e888888888889,
        0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000}},
      {false, Strategy::Atomics, op2::Layout::AoSoA,
       {0x40a1e40000000000, 0x409bf30000000000, 0x400e888888888889,
        0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000}},
      {false, Strategy::GlobalColor, op2::Layout::AoS,
       {0x40b67c0000000000, 0x40b39c0000000000, 0x40232fc962fc9630,
        0x3ff07ae147ae147b, 0x3ff0000000000000, 0x3ff0000000000000}},
      {false, Strategy::GlobalColor, op2::Layout::SoA,
       {0x40bb760000000000, 0x40b39c0000000000, 0x40276eeeeeeeeeef,
        0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000}},
      {false, Strategy::GlobalColor, op2::Layout::AoSoA,
       {0x40bb760000000000, 0x40b39c0000000000, 0x40276eeeeeeeeeef,
        0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000}},
      {false, Strategy::Hierarchical, op2::Layout::AoS,
       {0x40a3000000000000, 0x40a11c0000000000, 0x4010369d0369d037,
        0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000}},
      {false, Strategy::Hierarchical, op2::Layout::SoA,
       {0x40a6bc0000000000, 0x40a11c0000000000, 0x4013666666666666,
        0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000}},
      {false, Strategy::Hierarchical, op2::Layout::AoSoA,
       {0x40a6bc0000000000, 0x40a11c0000000000, 0x4013666666666666,
        0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000}},
      {true, Strategy::Atomics, op2::Layout::AoS,
       {0x40a6b07507507507, 0x40a4a72492492492, 0x40152d3a06d3a06d,
        0x3ff58da740da740e, 0x3ff0000000000000, 0x3ff0000000000000}},
      {true, Strategy::Atomics, op2::Layout::SoA,
       {0x40ab4c9249249249, 0x40a4a72492492492, 0x40197aaaaaaaaaab,
        0x3ffecccccccccccd, 0x3ff0000000000000, 0x3ff0000000000000}},
      {true, Strategy::Atomics, op2::Layout::AoSoA,
       {0x40ab4c9249249249, 0x40a4a72492492492, 0x40197aaaaaaaaaab,
        0x3ffecccccccccccd, 0x3ff0000000000000, 0x3ff0000000000000}},
      {true, Strategy::GlobalColor, op2::Layout::AoS,
       {0x40b5de83a83a83a8, 0x40b4000000000000, 0x40246947ae147ae1,
        0x402300a3d70a3d71, 0x4022d9b4e81b4e82, 0x3ff097e4b17e4b18}},
      {true, Strategy::GlobalColor, op2::Layout::SoA,
       {0x40bc236db6db6db7, 0x40b4000000000000, 0x402a433333333333,
        0x4023588888888889, 0x40232e4b17e4b17e, 0x3ff0b33333333333}},
      {true, Strategy::GlobalColor, op2::Layout::AoSoA,
       {0x40bc236db6db6db7, 0x40b4000000000000, 0x402a433333333333,
        0x4023588888888889, 0x40232dddddddddde, 0x3ff0b33333333333}},
      {true, Strategy::Hierarchical, op2::Layout::AoS,
       {0x40a7b24924924925, 0x40a429db6db6db6e, 0x40161dddddddddde,
        0x400690a3d70a3d71, 0x400690a3d70a3d71, 0x3ff0317e4b17e4b1}},
      {true, Strategy::Hierarchical, op2::Layout::SoA,
       {0x40b1d9b6db6db6db, 0x40a429db6db6db6e, 0x4020a91111111111,
        0x4008355555555555, 0x4008355555555555, 0x3ff6c00000000000}},
      {true, Strategy::Hierarchical, op2::Layout::AoSoA,
       {0x40b1d9b6db6db6db, 0x40a429db6db6db6e, 0x4020a91111111111,
        0x4008355555555555, 0x4008355555555555, 0x3ff6c00000000000}},
  };
  const auto small = apps::mgcfd::build_rotor_mesh(10, 8, 6, 3);
  const auto larger = apps::mgcfd::build_rotor_mesh(24, 20, 16, 3);
  op2::Context ctx;
  for (const Golden& g : kGolden) {
    const op2::Map& e2n =
        *(g.larger_mesh ? larger : small).levels.front().e2n;
    for (const op2::GatherStats& gs :
         {ctx.gather_for(e2n, 5, 8, g.strategy, g.layout),
          measured_directly(e2n, 5, g.strategy, g.layout)}) {
      SCOPED_TRACE(std::string(syclport::to_string(g.strategy)) + "/" +
                   std::string(op2::to_string(g.layout)) +
                   (g.larger_mesh ? " 24x20x16" : " 10x8x6"));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(gs.avg_bytes_per_wave),
                g.bits[0]);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(gs.ideal_bytes_per_wave),
                g.bits[1]);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(gs.line_factor), g.bits[2]);
      for (std::size_t c = 0; c < gs.factor_at.size(); ++c)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(gs.factor_at[c]),
                  c < 3 ? g.bits[3 + c] : 0x3ff0000000000000u)
            << "factor_at[" << c << "]";
    }
  }
}

TEST(LocalityGatherCache, ConcurrentContextsAgreeBitForBit) {
  // Four threads, each with its own context, miss on the same fresh
  // keys of one shared map at once.
  auto mesh = apps::mgcfd::build_rotor_mesh(24, 20, 16, 3);
  const op2::Map& e2n = *mesh.levels.front().e2n;
  const int dim = fresh_dim();
  constexpr std::array kStrategies = {Strategy::Atomics, Strategy::GlobalColor,
                                      Strategy::Hierarchical};
  constexpr int kThreads = 4;
  std::vector<std::array<op2::GatherStats, kStrategies.size()>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      op2::Context ctx;
      for (std::size_t s = 0; s < kStrategies.size(); ++s)
        got[static_cast<std::size_t>(t)][s] =
            ctx.gather_for(e2n, dim, 8, kStrategies[s], op2::Layout::AoS);
    });
  for (auto& th : threads) th.join();
  for (std::size_t s = 0; s < kStrategies.size(); ++s) {
    const op2::GatherStats want =
        measured_directly(e2n, dim, kStrategies[s], op2::Layout::AoS);
    for (int t = 0; t < kThreads; ++t)
      EXPECT_TRUE(same_bits(got[static_cast<std::size_t>(t)][s], want))
          << "thread " << t << ", strategy " << s;
  }
}

// --- canonical checkpoints ---------------------------------------------------

TEST(LocalityCheckpoint, RoundTripAcrossOrderingAndLayout) {
  // A checkpoint taken on an RCM-renumbered AoS mesh restores
  // bit-identically into a Hilbert-renumbered mesh whose dat sits in a
  // different physical layout: serialized state is canonical
  // (creation-order AoS), so (ordering, layout) never leak into it.
  const std::string path = "test_locality_ckpt.bin";
  std::mt19937 rng(31);
  std::uniform_real_distribution<double> dist(-50.0, 50.0);
  std::vector<double> canon(10 * 8 * 6 * 3);
  for (auto& v : canon) v = dist(rng);

  op2::Context ctx(opts(Strategy::Atomics, op2::Exec::Serial));
  {
    auto mesh = apps::mgcfd::build_rotor_mesh(10, 8, 6, 1);
    apps::mgcfd::renumber_mesh(mesh, op2::Ordering::RCM);
    auto& nodes = *mesh.levels.front().nodes;
    op2::Dat<double> d(nodes, 3, "state");
    for (std::size_t e = 0; e < nodes.size(); ++e)
      for (int c = 0; c < 3; ++c)
        d.at(e, c) =
            canon[nodes.to_original(e) * 3 + static_cast<std::size_t>(c)];
    op2::checkpoint(ctx, path, d);
  }
  {
    auto mesh = apps::mgcfd::build_rotor_mesh(10, 8, 6, 1);
    apps::mgcfd::renumber_mesh(mesh, op2::Ordering::Hilbert);
    auto& nodes = *mesh.levels.front().nodes;
    op2::Dat<double> d(nodes, 3, "state");
    d.set_layout(op2::Layout::SoA);
    op2::restore(ctx, path, d);
    for (std::size_t e = 0; e < nodes.size(); ++e)
      for (int c = 0; c < 3; ++c)
        ASSERT_EQ(d.at(e, c),
                  canon[nodes.to_original(e) * 3 + static_cast<std::size_t>(c)])
            << "node " << e << " component " << c;
  }
  std::remove(path.c_str());
}

TEST(LocalityCheckpoint, FuzzRenumberCheckpointRestoreUnderOtherLayout) {
  // Randomized: permutations, layouts on both sides, several dims.
  std::mt19937 rng(37);
  std::uniform_real_distribution<double> dist(-9.0, 9.0);
  using L = op2::Layout;
  const L layouts[] = {L::AoS, L::SoA, L::AoSoA};
  op2::Context ctx(opts(Strategy::Atomics, op2::Exec::Serial));
  const std::string path = "test_locality_ckpt_fuzz.bin";
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 20 + rng() % 60;
    const int dim = 1 + static_cast<int>(rng() % 4);
    std::vector<double> canon(n * static_cast<std::size_t>(dim));
    for (auto& v : canon) v = dist(rng);

    op2::Set sa("a", n);
    sa.note_permutation(random_permutation(n, rng));
    op2::Dat<double> da(sa, dim, "fuzz");
    da.set_layout(layouts[rng() % 3]);
    for (std::size_t e = 0; e < n; ++e)
      for (int c = 0; c < dim; ++c)
        da.at(e, c) = canon[sa.to_original(e) * static_cast<std::size_t>(dim) +
                            static_cast<std::size_t>(c)];
    op2::checkpoint(ctx, path, da);

    op2::Set sb("b", n);
    sb.note_permutation(random_permutation(n, rng));
    op2::Dat<double> db(sb, dim, "fuzz");
    db.set_layout(layouts[rng() % 3]);
    op2::restore(ctx, path, db);
    for (std::size_t e = 0; e < n; ++e)
      for (int c = 0; c < dim; ++c)
        ASSERT_EQ(db.at(e, c),
                  canon[sb.to_original(e) * static_cast<std::size_t>(dim) +
                        static_cast<std::size_t>(c)])
            << "trial " << trial;
  }
  std::remove(path.c_str());
}
