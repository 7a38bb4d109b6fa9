// Tests for the RCB partitioner and the owner-compute halo analysis
// (the PT-Scotch substitute, DESIGN.md §2).

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "apps/mgcfd/mesh.hpp"
#include "op2/partition.hpp"

namespace op2 = syclport::op2;

namespace {

/// Rotor mesh coordinates + edge map for partitioning tests.
struct MeshFixture {
  syclport::apps::mgcfd::MultigridMesh mesh =
      syclport::apps::mgcfd::build_rotor_mesh(20, 18, 12, 1);
  std::span<const std::array<double, 3>> coords() const {
    return mesh.levels[0].coords;
  }
  const op2::Map& e2n() const { return *mesh.levels[0].e2n; }
};

}  // namespace

TEST(Rcb, EveryElementAssignedInRange) {
  MeshFixture f;
  for (int nparts : {1, 2, 3, 7, 16}) {
    const auto part = op2::rcb_partition(f.coords(), nparts);
    ASSERT_EQ(part.size(), f.coords().size());
    int seen_max = 0;
    for (int p : part) {
      ASSERT_GE(p, 0);
      ASSERT_LT(p, nparts);
      seen_max = std::max(seen_max, p);
    }
    EXPECT_EQ(seen_max, nparts - 1);  // every part non-empty (balanced)
  }
}

TEST(Rcb, BalancedWithinTolerance) {
  MeshFixture f;
  for (int nparts : {2, 4, 6, 12}) {
    const auto part = op2::rcb_partition(f.coords(), nparts);
    const auto st = op2::analyze_partition(f.e2n(), part, nparts);
    EXPECT_LT(st.max_imbalance, 1.1) << nparts << " parts";
  }
}

TEST(Rcb, Deterministic) {
  MeshFixture f;
  const auto a = op2::rcb_partition(f.coords(), 8);
  const auto b = op2::rcb_partition(f.coords(), 8);
  EXPECT_EQ(a, b);
}

TEST(Rcb, SinglePartIsTrivial) {
  MeshFixture f;
  const auto part = op2::rcb_partition(f.coords(), 1);
  for (int p : part) EXPECT_EQ(p, 0);
  const auto st = op2::analyze_partition(f.e2n(), part, 1);
  EXPECT_EQ(st.cut_elems, 0u);
  EXPECT_DOUBLE_EQ(st.avg_halo_fraction, 0.0);
}

TEST(Rcb, BeatsRandomPartitionOnCutAndHalo) {
  // The reason one uses a geometric/graph partitioner at all: far fewer
  // cut edges and smaller halos than a random assignment.
  MeshFixture f;
  const int nparts = 8;
  const auto rcb = op2::rcb_partition(f.coords(), nparts);
  std::vector<int> random(rcb.size());
  std::mt19937 rng(11);
  for (auto& p : random) p = static_cast<int>(rng() % nparts);

  const auto st_rcb = op2::analyze_partition(f.e2n(), rcb, nparts);
  const auto st_rnd = op2::analyze_partition(f.e2n(), random, nparts);
  EXPECT_LT(st_rcb.cut_fraction, 0.4 * st_rnd.cut_fraction);
  EXPECT_LT(st_rcb.avg_halo_fraction, 0.5 * st_rnd.avg_halo_fraction);
}

TEST(Rcb, CutFractionShrinksWithFewerParts) {
  MeshFixture f;
  const auto p2 = op2::analyze_partition(
      f.e2n(), op2::rcb_partition(f.coords(), 2), 2);
  const auto p16 = op2::analyze_partition(
      f.e2n(), op2::rcb_partition(f.coords(), 16), 16);
  EXPECT_LT(p2.cut_fraction, p16.cut_fraction);
}

TEST(Rcb, OwnedElementsCoverSet) {
  MeshFixture f;
  const auto part = op2::rcb_partition(f.coords(), 6);
  const auto st = op2::analyze_partition(f.e2n(), part, 6);
  std::size_t total = 0;
  for (auto n : st.owned_elems) total += n;
  EXPECT_EQ(total, f.e2n().from().size());
}

TEST(Rcb, RejectsBadInput) {
  MeshFixture f;
  EXPECT_THROW(op2::rcb_partition(f.coords(), 0), std::invalid_argument);
  std::vector<int> short_part(3, 0);
  EXPECT_THROW(op2::analyze_partition(f.e2n(), short_part, 2),
               std::invalid_argument);
}

TEST(PartitionAnalysis, ChainSplitInTwoHasOneCutEdgeAndOneHaloNode) {
  // 0-1-2 | 3-4-5: owner-compute puts edges on their first node's part,
  // so the cut edge (2,3) runs on part 0 and reads node 3 as a halo.
  op2::Set nodes("nodes", 6), edges("edges", 5);
  op2::Map e2n(edges, nodes, 2, "e2n");
  for (int e = 0; e < 5; ++e) {
    e2n.at(static_cast<std::size_t>(e), 0) = e;
    e2n.at(static_cast<std::size_t>(e), 1) = e + 1;
  }
  const std::vector<int> part{0, 0, 0, 1, 1, 1};
  const auto st = op2::analyze_partition(e2n, part, 2);
  EXPECT_EQ(st.nparts, 2);
  EXPECT_EQ(st.owned_nodes, (std::vector<std::size_t>{3, 3}));
  EXPECT_EQ(st.owned_elems, (std::vector<std::size_t>{3, 2}));
  EXPECT_EQ(st.halo_nodes, (std::vector<std::size_t>{1, 0}));
  EXPECT_EQ(st.cut_elems, 1u);
  EXPECT_DOUBLE_EQ(st.cut_fraction, 0.2);
  EXPECT_DOUBLE_EQ(st.max_imbalance, 1.0);
  EXPECT_DOUBLE_EQ(st.avg_halo_fraction, (1.0 / 3.0 + 0.0) / 2.0);
}

TEST(PartitionAnalysis, EdgeDirectionPicksTheOwnerAndTheHalo) {
  // The same cut edge written (3,2) runs on part 1 and reads node 2; a
  // node read by several cut edges of one part is one halo node.
  op2::Set nodes("nodes", 4), edges("edges", 3);
  op2::Map e2n(edges, nodes, 2, "e2n");
  const int pairs[3][2] = {{3, 2}, {1, 2}, {0, 2}};
  for (std::size_t e = 0; e < 3; ++e) {
    e2n.at(e, 0) = pairs[e][0];
    e2n.at(e, 1) = pairs[e][1];
  }
  const std::vector<int> part{1, 1, 0, 1};
  const auto st = op2::analyze_partition(e2n, part, 2);
  EXPECT_EQ(st.owned_elems, (std::vector<std::size_t>{0, 3}));
  EXPECT_EQ(st.halo_nodes, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(st.cut_elems, 3u);
  EXPECT_DOUBLE_EQ(st.max_imbalance, 1.5);  // 3 of 4 nodes, mean 2
}

namespace {

class RcbOnRotorMesh : public ::testing::TestWithParam<int> {};

}  // namespace

TEST_P(RcbOnRotorMesh, AnalysisMatchesAnIndependentRecount) {
  // Recount owner-compute ownership, cut edges and halo sets with plain
  // per-part flags and compare with analyze_partition.
  const int nparts = GetParam();
  MeshFixture f;
  const auto part = op2::rcb_partition(f.coords(), nparts);
  const auto st = op2::analyze_partition(f.e2n(), part, nparts);
  const auto np = static_cast<std::size_t>(nparts);
  const std::size_t nn = part.size();
  const std::size_t ne = f.e2n().from().size();

  std::vector<std::size_t> owned_nodes(np, 0), owned_elems(np, 0);
  for (int p : part) ++owned_nodes[static_cast<std::size_t>(p)];
  std::vector<std::vector<bool>> is_halo(np, std::vector<bool>(nn, false));
  std::size_t cut = 0;
  for (std::size_t e = 0; e < ne; ++e) {
    const auto owner =
        static_cast<std::size_t>(part[static_cast<std::size_t>(f.e2n().at(e, 0))]);
    ++owned_elems[owner];
    const auto other = static_cast<std::size_t>(f.e2n().at(e, 1));
    if (static_cast<std::size_t>(part[other]) != owner) {
      ++cut;
      is_halo[owner][other] = true;
    }
  }
  std::vector<std::size_t> halo(np, 0);
  for (std::size_t p = 0; p < np; ++p) {
    halo[p] = static_cast<std::size_t>(
        std::count(is_halo[p].begin(), is_halo[p].end(), true));
    EXPECT_GT(owned_nodes[p], 0u) << "part " << p << " is empty";
  }
  EXPECT_EQ(st.owned_nodes, owned_nodes);
  EXPECT_EQ(st.owned_elems, owned_elems);
  EXPECT_EQ(st.halo_nodes, halo);
  EXPECT_EQ(st.cut_elems, cut);
  EXPECT_DOUBLE_EQ(st.cut_fraction,
                   static_cast<double>(cut) / static_cast<double>(ne));
  if (nparts == 1) {
    EXPECT_EQ(cut, 0u);
  } else {
    EXPECT_GT(cut, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Parts, RcbOnRotorMesh,
                         ::testing::Values(1, 2, 3, 4, 5, 8),
                         [](const auto& ti) {
                           return "parts" + std::to_string(ti.param);
                         });
