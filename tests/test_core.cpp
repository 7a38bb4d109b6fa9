// Unit tests for src/core: types, statistics, PP metric, support matrix,
// report rendering, blocked reductions, CRC-32 and the rank-grid
// factorization.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/crc32.hpp"
#include "core/factorize.hpp"
#include "core/pp_metric.hpp"
#include "core/reducer.hpp"
#include "core/report.hpp"
#include "core/statistics.hpp"
#include "core/support.hpp"
#include "core/types.hpp"

namespace sp = syclport;

TEST(Types, AppNamesRoundTrip) {
  for (sp::AppId a : sp::kAllApps) {
    auto parsed = sp::parse_app(sp::to_string(a));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, a);
  }
}

TEST(Types, PlatformNamesRoundTrip) {
  for (sp::PlatformId p : sp::kAllPlatforms) {
    auto parsed = sp::parse_platform(sp::to_string(p));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, p);
  }
}

TEST(Types, GpuCpuPartition) {
  int gpus = 0, cpus = 0;
  for (sp::PlatformId p : sp::kAllPlatforms) (sp::is_gpu(p) ? gpus : cpus)++;
  EXPECT_EQ(gpus, 3);
  EXPECT_EQ(cpus, 3);
}

TEST(Types, VariantLabelsMatchPaperStyle) {
  sp::Variant dpcpp_nd{sp::Model::SYCLNDRange, sp::Toolchain::DPCPP};
  EXPECT_EQ(sp::to_string(dpcpp_nd), "DPC++ nd_range");
  sp::Variant osycl_flat{sp::Model::SYCLFlat, sp::Toolchain::OpenSYCL};
  EXPECT_EQ(sp::to_string(osycl_flat), "OpenSYCL flat");
  sp::Variant mpi_omp{sp::Model::MPI_OpenMP, sp::Toolchain::Native};
  EXPECT_EQ(sp::to_string(mpi_omp), "MPI+OpenMP");
  sp::Variant cray{sp::Model::OpenMPOffload, sp::Toolchain::Cray};
  EXPECT_EQ(sp::to_string(cray), "Cray OpenMP offload");
  sp::Variant atomics{sp::Model::SYCLNDRange, sp::Toolchain::OpenSYCL,
                      sp::Strategy::Atomics};
  EXPECT_EQ(sp::to_string(atomics), "OpenSYCL nd_range [atomics]");
}

TEST(Statistics, MeanAndStddev) {
  std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(sp::stats::mean(xs), 5.0);
  EXPECT_NEAR(sp::stats::stddev(xs), 2.138, 1e-3);
}

TEST(Statistics, EmptyInputsAreZero) {
  std::vector<double> none;
  EXPECT_EQ(sp::stats::mean(none), 0.0);
  EXPECT_EQ(sp::stats::stddev(none), 0.0);
  EXPECT_EQ(sp::stats::harmonic_mean(none), 0.0);
  EXPECT_EQ(sp::stats::geometric_mean(none), 0.0);
  EXPECT_EQ(sp::stats::median(none), 0.0);
}

TEST(Statistics, HarmonicMeanOfEqualValues) {
  std::vector<double> xs{3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(sp::stats::harmonic_mean(xs), 3.0);
}

TEST(Statistics, HarmonicLeGeometricLeArithmetic) {
  std::vector<double> xs{0.3, 0.9, 0.5, 0.7};
  const double h = sp::stats::harmonic_mean(xs);
  const double g = sp::stats::geometric_mean(xs);
  const double a = sp::stats::mean(xs);
  EXPECT_LT(h, g);
  EXPECT_LT(g, a);
}

TEST(Statistics, WeightedMean) {
  std::vector<double> xs{1.0, 10.0};
  std::vector<double> ws{9.0, 1.0};
  EXPECT_NEAR(sp::stats::weighted_mean(xs, ws), 1.9, 1e-12);
}

TEST(Statistics, MedianOddEven) {
  std::vector<double> odd{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(sp::stats::median(odd), 3.0);
  std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(sp::stats::median(even), 2.5);
}

TEST(Statistics, PercentileInterpolatesType7) {
  // 1..10 unsorted: rank r = p/100 * (n-1), linear interpolation.
  std::vector<double> xs{7.0, 1.0, 9.0, 3.0, 5.0, 2.0, 8.0, 10.0, 6.0, 4.0};
  EXPECT_DOUBLE_EQ(sp::stats::percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(sp::stats::percentile(xs, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(sp::stats::percentile(xs, 50.0), 5.5);
  EXPECT_NEAR(sp::stats::percentile(xs, 95.0), 9.55, 1e-12);
  EXPECT_NEAR(sp::stats::percentile(xs, 99.0), 9.91, 1e-12);
  // p50 agrees with the median for odd and even counts alike.
  std::vector<double> odd{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(sp::stats::percentile(odd, 50.0), sp::stats::median(odd));
}

TEST(Statistics, PercentileEdgeCases) {
  std::vector<double> none;
  EXPECT_EQ(sp::stats::percentile(none, 99.0), 0.0);
  std::vector<double> one{4.2};
  EXPECT_DOUBLE_EQ(sp::stats::percentile(one, 0.0), 4.2);
  EXPECT_DOUBLE_EQ(sp::stats::percentile(one, 99.0), 4.2);
  // Out-of-range p clamps instead of reading out of bounds.
  std::vector<double> xs{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(sp::stats::percentile(xs, -5.0), 1.0);
  EXPECT_DOUBLE_EQ(sp::stats::percentile(xs, 150.0), 3.0);
}

TEST(PPMetric, HarmonicMeanWhenAllSupported) {
  std::vector<double> eff{0.5, 0.5, 0.5};
  EXPECT_DOUBLE_EQ(sp::pp_metric(eff), 0.5);
}

TEST(PPMetric, ZeroWhenAnyPlatformFails) {
  std::vector<double> eff{0.9, 0.0, 0.8};
  EXPECT_EQ(sp::pp_metric(eff), 0.0);
}

TEST(PPMetric, SupportedOnlyIgnoresFailures) {
  std::vector<double> eff{0.9, 0.0, 0.9};
  EXPECT_DOUBLE_EQ(sp::pp_supported_only(eff), 0.9);
}

TEST(PPMetric, DominatedByWorstPlatform) {
  std::vector<double> eff{1.0, 1.0, 0.1};
  EXPECT_LT(sp::pp_metric(eff), 0.3);
}

TEST(SupportMatrix, DpcppUnavailableOnAltra) {
  const auto& m = sp::SupportMatrix::paper();
  sp::Variant v{sp::Model::SYCLNDRange, sp::Toolchain::DPCPP};
  for (sp::AppId a : sp::kAllApps)
    EXPECT_EQ(m.status(sp::PlatformId::Altra, a, v), sp::Status::Unsupported);
}

TEST(SupportMatrix, OpenSyclWorksOnAltraStructured) {
  const auto& m = sp::SupportMatrix::paper();
  sp::Variant v{sp::Model::SYCLNDRange, sp::Toolchain::OpenSYCL};
  EXPECT_TRUE(m.ok(sp::PlatformId::Altra, sp::AppId::CloverLeaf2D, v));
}

TEST(SupportMatrix, GenoaXCloverLeaf2DOnlyDpcppNdRangeSycl) {
  // Paper S4.4: "CloverLeaf 2D only working with DPC++ nd_range on Genoa-X".
  const auto& m = sp::SupportMatrix::paper();
  const sp::PlatformId p = sp::PlatformId::GenoaX;
  const sp::AppId a = sp::AppId::CloverLeaf2D;
  EXPECT_TRUE(m.ok(p, a, {sp::Model::SYCLNDRange, sp::Toolchain::DPCPP}));
  EXPECT_FALSE(m.ok(p, a, {sp::Model::SYCLFlat, sp::Toolchain::DPCPP}));
  EXPECT_FALSE(m.ok(p, a, {sp::Model::SYCLFlat, sp::Toolchain::OpenSYCL}));
  EXPECT_FALSE(m.ok(p, a, {sp::Model::SYCLNDRange, sp::Toolchain::OpenSYCL}));
}

TEST(SupportMatrix, OpenSyclAtomicsWorksEverywhereForMgcfd) {
  // Needed for the paper's PP(OpenSYCL+atomics) = 0.42 claim.
  const auto& m = sp::SupportMatrix::paper();
  for (sp::PlatformId p : sp::kAllPlatforms) {
    if (p == sp::PlatformId::Altra) continue;  // DPC++ absent, OpenSYCL fine
    EXPECT_TRUE(m.ok(p, sp::AppId::MGCFD,
                     {sp::Model::SYCLNDRange, sp::Toolchain::OpenSYCL,
                      sp::Strategy::Atomics}))
        << sp::to_string(p);
  }
  EXPECT_TRUE(m.ok(sp::PlatformId::Altra, sp::AppId::MGCFD,
                   {sp::Model::SYCLNDRange, sp::Toolchain::OpenSYCL,
                    sp::Strategy::Atomics}));
}

TEST(SupportMatrix, CrayOffloadFailsOnCloverLeaf3D) {
  const auto& m = sp::SupportMatrix::paper();
  sp::Variant v{sp::Model::OpenMPOffload, sp::Toolchain::Cray};
  EXPECT_EQ(m.status(sp::PlatformId::MI250X, sp::AppId::CloverLeaf3D, v),
            sp::Status::RuntimeCrash);
  EXPECT_TRUE(m.ok(sp::PlatformId::MI250X, sp::AppId::CloverLeaf2D, v));
}

TEST(Report, TableRendersAligned) {
  sp::report::Table t({"app", "runtime"});
  t.add_row({"CloverLeaf2D", "1.23"});
  t.add_row({"RTM", "45.6"});
  std::ostringstream os;
  t.render(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("CloverLeaf2D"), std::string::npos);
  EXPECT_NE(s.find("45.6"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Report, TableRejectsArityMismatch) {
  sp::report::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Report, CsvEscapesCommasAndQuotes) {
  sp::report::Table t({"name", "value"});
  t.add_row({"a,b", "say \"hi\""});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_NE(os.str().find("\"a,b\""), std::string::npos);
  EXPECT_NE(os.str().find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Report, BarsRenderValuesAndNotes) {
  std::vector<sp::report::BarGroup> groups{
      {"CloverLeaf2D",
       {{"CUDA", 2.0, ""}, {"DPC++ flat", 8.0, ""}, {"OpenSYCL", 0.0, "incorrect"}}}};
  std::ostringstream os;
  sp::report::render_bars(os, groups, "s");
  const std::string s = os.str();
  EXPECT_NE(s.find("CUDA"), std::string::npos);
  EXPECT_NE(s.find("(incorrect)"), std::string::npos);
  EXPECT_NE(s.find('#'), std::string::npos);
}

TEST(Report, FormatHelpers) {
  EXPECT_EQ(sp::report::fmt(1.234, 2), "1.23");
  EXPECT_EQ(sp::report::fmt_percent(0.915, 1), "91.5%");
}

TEST(ReduceBlocks, TileEachRowWithoutCrossingIt) {
  // 3 rows of 2500 points: 3 blocks per row (1024, 1024, 452).
  const sp::ReduceBlocks blocks(3, 2500);
  ASSERT_EQ(blocks.count(), 9u);
  std::size_t next = 0;
  for (std::size_t k = 0; k < blocks.count(); ++k) {
    EXPECT_EQ(blocks.begin(k), next) << "k=" << k;
    EXPECT_LE(blocks.end(k) - blocks.begin(k), sp::kReduceBlock);
    EXPECT_EQ(blocks.begin(k) / 2500, (blocks.end(k) - 1) / 2500)
        << "block " << k << " crosses a row";
    next = blocks.end(k);
  }
  EXPECT_EQ(next, 3u * 2500u);
  EXPECT_EQ(sp::ReduceBlocks(1, 0).count(), 0u);
}

TEST(ReduceBlocks, BlockedSumIndependentOfBlockOrder) {
  // run_blocked folds partials in block order, so running the blocks in
  // any order (as any schedule may) gives the same bits.
  std::vector<double> x(5000);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::sin(0.1 * static_cast<double>(i)) * 1e6;
  const sp::ReduceBlocks blocks(1, x.size());
  auto run = [&](bool reverse) {
    double sum = 0.0, mn = 1e300;
    auto binders =
        std::make_tuple(sp::BlockedTarget<double>(&sum, sp::RedOp::Sum),
                        sp::BlockedTarget<double>(&mn, sp::RedOp::Min));
    sp::run_blocked(
        binders, blocks.count(),
        [reverse](std::size_t n, const auto& run_block) {
          for (std::size_t k = 0; k < n; ++k)
            run_block(reverse ? n - 1 - k : k);
        },
        [&](auto& views, std::size_t k) {
          for (std::size_t i = blocks.begin(k); i < blocks.end(k); ++i) {
            std::get<0>(views).make(i) += x[i];
            std::get<1>(views).make(i).combine(x[i]);
          }
        });
    return std::pair(sum, mn);
  };
  const auto fwd = run(false), rev = run(true);
  EXPECT_EQ(std::memcmp(&fwd.first, &rev.first, sizeof(double)), 0);
  EXPECT_EQ(fwd.second, rev.second);
  EXPECT_NEAR(fwd.first, [&] {
    double s = 0.0;
    for (double v : x) s += v;
    return s;
  }(), 1e-6 * std::fabs(fwd.first) + 1e-3);
}

TEST(ReduceBlocks, ElementSlotsFoldLikeBlockedSweep) {
  // One combine per element: element slots folded in index blocks give
  // the bits of the blocked ascending sweep.
  std::vector<double> x(3000);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::cos(0.7 * static_cast<double>(i)) / 3.0;
  double blocked = 0.0, slotted = 0.0;
  {
    auto binders =
        std::make_tuple(sp::BlockedTarget<double>(&blocked, sp::RedOp::Sum));
    const sp::ReduceBlocks blocks(1, x.size());
    sp::run_blocked(
        binders, blocks.count(),
        [](std::size_t n, const auto& run_block) {
          for (std::size_t k = 0; k < n; ++k) run_block(k);
        },
        [&](auto& views, std::size_t k) {
          for (std::size_t i = blocks.begin(k); i < blocks.end(k); ++i)
            std::get<0>(views).make(i) += x[i];
        });
  }
  sp::BlockedTarget<double> t(&slotted, sp::RedOp::Sum);
  t.start(x.size());
  for (std::size_t i = x.size(); i-- > 0;) t.make(i) += x[i];  // any order
  t.fold_elements();
  EXPECT_EQ(std::memcmp(&blocked, &slotted, sizeof(double)), 0);
}

TEST(Crc32, MatchesTheStandardCheckValues) {
  // The CRC-32/ISO-HDLC catalogue check value, and a second well-known
  // vector, pin the polynomial, reflection and final xor together.
  const char digits[] = "123456789";
  EXPECT_EQ(sp::crc32(digits, 9), 0xCBF43926u);
  const char fox[] = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(sp::crc32(fox, sizeof(fox) - 1), 0x414FA339u);
}

TEST(Crc32, EmptyInputLeavesTheSeedUnchanged) {
  EXPECT_EQ(sp::crc32(nullptr, 0), 0u);
  EXPECT_EQ(sp::crc32_update(0xCBF43926u, nullptr, 0), 0xCBF43926u);
}

TEST(Crc32, TableIsTheReflectedIeeePolynomial) {
  const auto& t = sp::detail::kCrc32Table;
  EXPECT_EQ(t[0], 0u);
  EXPECT_EQ(t[1], 0x77073096u);
  EXPECT_EQ(t[2], 0xEE0E612Cu);
  EXPECT_EQ(t[128], 0xEDB88320u);
  EXPECT_EQ(t[255], 0x2D02EF8Du);
}

TEST(Crc32, IncrementalUpdateMatchesOneShotAtEverySplit) {
  // Checkpoints tag regions chunk by chunk: any split of a stream must
  // give the one-shot tag.
  std::vector<unsigned char> bytes(97);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<unsigned char>(i * 37 + 11);
  const std::uint32_t whole = sp::crc32(bytes.data(), bytes.size());
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    const std::uint32_t head = sp::crc32_update(0, bytes.data(), cut);
    EXPECT_EQ(sp::crc32_update(head, bytes.data() + cut, bytes.size() - cut),
              whole)
        << "split at " << cut;
  }
}

TEST(Crc32, EverySingleBitFlipChangesTheTag) {
  // What checkpoint verification relies on: a CRC detects every
  // one-bit corruption of the tagged bytes.
  std::vector<unsigned char> bytes(64);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<unsigned char>(i ^ 0x5A);
  const std::uint32_t clean = sp::crc32(bytes.data(), bytes.size());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes[i] ^= static_cast<unsigned char>(1u << bit);
      EXPECT_NE(sp::crc32(bytes.data(), bytes.size()), clean)
          << "byte " << i << " bit " << bit;
      bytes[i] ^= static_cast<unsigned char>(1u << bit);
    }
  }
}

namespace {

struct FactorCase {
  int n;
  int dims;
  std::array<int, 3> grid;  ///< the greedy split comm_model prices
};

class BalancedFactors : public ::testing::TestWithParam<FactorCase> {};

}  // namespace

TEST_P(BalancedFactors, ProductIsTheRankCountAndGridIsPinned) {
  const FactorCase c = GetParam();
  const auto g = sp::balanced_factors(c.n, c.dims);
  EXPECT_EQ(g, c.grid);
  EXPECT_EQ(g[0] * g[1] * g[2], std::max(1, c.n));
  for (int d = 0; d < 3; ++d) {
    EXPECT_GE(g[static_cast<std::size_t>(d)], 1);
    if (d >= c.dims) {
      EXPECT_EQ(g[static_cast<std::size_t>(d)], 1) << "dim " << d;
    }
  }
}

// Prime factors in ascending order, each onto the first smallest
// dimension. The rank counts of the paper's CPUs (72, 176, 64 cores;
// 2 and 4 NUMA domains) are in the table, with the degenerate inputs.
INSTANTIATE_TEST_SUITE_P(
    Factorize, BalancedFactors,
    ::testing::Values(
        FactorCase{1, 3, {1, 1, 1}}, FactorCase{0, 2, {1, 1, 1}},
        FactorCase{-5, 3, {1, 1, 1}}, FactorCase{7, 3, {7, 1, 1}},
        FactorCase{2, 3, {2, 1, 1}}, FactorCase{4, 3, {2, 2, 1}},
        FactorCase{12, 2, {6, 2, 1}}, FactorCase{12, 3, {2, 2, 3}},
        FactorCase{56, 2, {4, 14, 1}}, FactorCase{64, 2, {8, 8, 1}},
        FactorCase{64, 3, {4, 4, 4}}, FactorCase{72, 2, {12, 6, 1}},
        FactorCase{72, 3, {6, 6, 2}}, FactorCase{108, 3, {6, 6, 3}},
        FactorCase{110, 3, {2, 5, 11}}, FactorCase{176, 1, {176, 1, 1}},
        FactorCase{176, 3, {4, 22, 2}}),
    [](const auto& ti) {
      const int n = ti.param.n;
      return (n < 0 ? "minus" + std::to_string(-n) : "n" + std::to_string(n)) +
             "_d" + std::to_string(ti.param.dims);
    });

TEST(BalancedFactorsProperty, PrimePowersSplitEvenly) {
  // n = p^(k*dims): the greedy deals the equal factors round-robin.
  for (int p : {2, 3, 5}) {
    for (int dims = 1; dims <= 3; ++dims) {
      for (int k = 1; k <= 2; ++k) {
        int n = 1, side = 1;
        for (int i = 0; i < k; ++i) side *= p;
        for (int d = 0; d < dims; ++d) n *= side;
        const auto g = sp::balanced_factors(n, dims);
        for (int d = 0; d < dims; ++d)
          EXPECT_EQ(g[static_cast<std::size_t>(d)], side)
              << "p=" << p << " dims=" << dims << " k=" << k;
      }
    }
  }
}
