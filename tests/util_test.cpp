// Unit tests for src/util: RNG, statistics, matrix/SVD, wavelet, CSV,
// ASCII rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <vector>

#include "util/ascii_chart.hpp"
#include "util/csv.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/svd.hpp"
#include "util/wavelet.hpp"

namespace {

using namespace opprentice::util;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---- Rng ----

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.5);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.5);
  }
}

TEST(Rng, UniformIntCoversAllValuesWithoutBias) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_int(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, 500);  // ~5 sigma slack
  }
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(13);
  RunningStats rs;
  for (int i = 0; i < 100000; ++i) rs.add(rng.normal());
  EXPECT_NEAR(rs.mean(), 0.0, 0.02);
  EXPECT_NEAR(rs.stddev(), 1.0, 0.02);
}

TEST(Rng, NormalWithParamsShiftsAndScales) {
  Rng rng(13);
  RunningStats rs;
  for (int i = 0; i < 50000; ++i) rs.add(rng.normal(10.0, 3.0));
  EXPECT_NEAR(rs.mean(), 10.0, 0.1);
  EXPECT_NEAR(rs.stddev(), 3.0, 0.1);
}

TEST(Rng, PoissonMeanMatchesLambdaSmall) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(4.2));
  EXPECT_NEAR(sum / n, 4.2, 0.1);
}

TEST(Rng, PoissonMeanMatchesLambdaLarge) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(200.0));
  EXPECT_NEAR(sum / n, 200.0, 2.0);
}

TEST(Rng, PoissonZeroLambdaIsZero) {
  Rng rng(3);
  EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(19);
  const auto sample = rng.sample_without_replacement(100, 30);
  ASSERT_EQ(sample.size(), 30u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (std::size_t s : sample) EXPECT_LT(s, 100u);
}

TEST(Rng, SampleAllWhenKEqualsN) {
  Rng rng(19);
  const auto sample = rng.sample_without_replacement(5, 5);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

// The bootstrap tally draws what one uniform_int per draw would, and
// leaves the generator where those calls would.
TEST(Rng, TallyUniformIntMatchesUniformIntCalls) {
  for (const std::size_t n : {1u, 3u, 1339u}) {
    Rng tally(31);
    Rng calls(31);
    std::vector<std::uint32_t> counts(n, 0);
    tally.tally_uniform_int(counts, 5000);
    std::vector<std::uint32_t> want(n, 0);
    for (int d = 0; d < 5000; ++d) ++want[calls.uniform_int(n)];
    EXPECT_EQ(counts, want) << n;
    EXPECT_EQ(tally.next_u64(), calls.next_u64()) << n;
  }
}

// Skipping draws leaves the generator where the calls would, rejections
// included: at n = 2^63 + 1 about half of the next_u64 values are
// rejected.
TEST(Rng, DiscardUniformIntLeavesTheStateOfUniformIntCalls) {
  for (const std::uint64_t n :
       {std::uint64_t{1}, std::uint64_t{1339}, (std::uint64_t{1} << 63) + 1}) {
    Rng discard(37);
    Rng calls(37);
    discard.discard_uniform_int(n, 5000);
    for (int d = 0; d < 5000; ++d) (void)calls.uniform_int(n);
    EXPECT_EQ(discard.next_u64(), calls.next_u64()) << n;
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(23);
  Rng child = a.split();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

// ---- stats ----

TEST(Stats, MeanBasic) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Stats, MeanSkipsNaN) {
  const std::vector<double> xs{1.0, kNaN, 3.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.0);
}

TEST(Stats, MeanAllMissingIsNaN) {
  const std::vector<double> xs{kNaN, kNaN};
  EXPECT_TRUE(std::isnan(mean(xs)));
}

TEST(Stats, EmptyIsNaN) {
  const std::vector<double> xs;
  EXPECT_TRUE(std::isnan(mean(xs)));
  EXPECT_TRUE(std::isnan(median(xs)));
  EXPECT_TRUE(std::isnan(stddev(xs)));
}

TEST(Stats, VariancePopulation) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(variance(xs), 4.0);
  EXPECT_DOUBLE_EQ(stddev(xs), 2.0);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Stats, QuantileEndpointsAndMid) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 20.0);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> xs{0.0, 10.0};
  EXPECT_NEAR(quantile(xs, 0.75), 7.5, 1e-12);
}

TEST(Stats, MadGaussianConsistency) {
  // MAD (scaled by 1.4826) approximates sigma for Gaussian samples.
  Rng rng(29);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.normal(5.0, 2.0);
  EXPECT_NEAR(mad(xs), 2.0, 0.08);
}

TEST(Stats, MadRobustToOutlier) {
  std::vector<double> xs{1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1000.0};
  EXPECT_LT(mad(xs), 0.2);
  EXPECT_GT(stddev(xs), 100.0);  // stddev is not robust
}

TEST(Stats, MinMaxSkipNaN) {
  const std::vector<double> xs{kNaN, 3.0, -2.0, kNaN, 7.0};
  EXPECT_DOUBLE_EQ(min_value(xs), -2.0);
  EXPECT_DOUBLE_EQ(max_value(xs), 7.0);
}

TEST(Stats, CoefficientOfVariation) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(coefficient_of_variation(xs), 2.0 / 5.0);
}

TEST(Stats, AutocorrelationPeriodicSignal) {
  std::vector<double> xs(1000);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = std::sin(2.0 * 3.14159265358979 * static_cast<double>(i) / 50.0);
  }
  EXPECT_GT(autocorrelation(xs, 50), 0.95);   // full period
  EXPECT_LT(autocorrelation(xs, 25), -0.95);  // half period
}

TEST(Stats, AutocorrelationWhiteNoiseNearZero) {
  Rng rng(31);
  std::vector<double> xs(10000);
  for (auto& x : xs) x = rng.normal();
  EXPECT_NEAR(autocorrelation(xs, 7), 0.0, 0.05);
}

TEST(Stats, AutocorrelationBadLagIsNaN) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  EXPECT_TRUE(std::isnan(autocorrelation(xs, 0)));
  EXPECT_TRUE(std::isnan(autocorrelation(xs, 3)));
}

TEST(Stats, WeightedMean) {
  const std::vector<double> xs{1.0, 3.0};
  const std::vector<double> ws{1.0, 3.0};
  EXPECT_DOUBLE_EQ(weighted_mean(xs, ws), 2.5);
}

TEST(Stats, WeightedMeanSkipsNaN) {
  const std::vector<double> xs{kNaN, 3.0};
  const std::vector<double> ws{100.0, 1.0};
  EXPECT_DOUBLE_EQ(weighted_mean(xs, ws), 3.0);
}

TEST(Stats, RunningStatsMatchesBatch) {
  Rng rng(37);
  std::vector<double> xs(500);
  for (auto& x : xs) x = rng.uniform(-5.0, 9.0);
  RunningStats rs;
  for (double x : xs) rs.add(x);
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-9);
  EXPECT_NEAR(rs.variance(), variance(xs), 1e-9);
}

TEST(Stats, RunningStatsIgnoresNaN) {
  RunningStats rs;
  rs.add(1.0);
  rs.add(kNaN);
  rs.add(3.0);
  EXPECT_EQ(rs.count(), 2u);
  EXPECT_DOUBLE_EQ(rs.mean(), 2.0);
}

// ---- Matrix / SVD ----

TEST(Matrix, MultiplyKnown) {
  Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  Matrix b(3, 2);
  b(0, 0) = 7; b(0, 1) = 8;
  b(1, 0) = 9; b(1, 1) = 10;
  b(2, 0) = 11; b(2, 1) = 12;
  const Matrix c = a.multiplied(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(Matrix, TransposeRoundTrip) {
  Matrix a(2, 3);
  a(0, 2) = 5.0;
  a(1, 0) = -1.0;
  const Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 0), 5.0);
  EXPECT_DOUBLE_EQ(t(0, 1), -1.0);
}

TEST(Matrix, MultiplyShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 2);
  EXPECT_THROW(a.multiplied(b), std::invalid_argument);
}

TEST(Svd, ReconstructsOriginal) {
  Rng rng(41);
  Matrix a(8, 4);
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 4; ++c) a(r, c) = rng.normal();
  }
  const SvdResult d = svd(a);
  // U * diag(s) * V^T == A.
  Matrix recon(8, 4);
  for (std::size_t k = 0; k < d.singular_values.size(); ++k) {
    for (std::size_t r = 0; r < 8; ++r) {
      for (std::size_t c = 0; c < 4; ++c) {
        recon(r, c) += d.u(r, k) * d.singular_values[k] * d.v(c, k);
      }
    }
  }
  EXPECT_LT(a.frobenius_distance(recon), 1e-8);
}

TEST(Svd, SingularValuesDescendingNonNegative) {
  Rng rng(43);
  Matrix a(10, 5);
  for (std::size_t r = 0; r < 10; ++r) {
    for (std::size_t c = 0; c < 5; ++c) a(r, c) = rng.uniform(-2, 2);
  }
  const SvdResult d = svd(a);
  for (std::size_t i = 0; i + 1 < d.singular_values.size(); ++i) {
    EXPECT_GE(d.singular_values[i], d.singular_values[i + 1]);
  }
  EXPECT_GE(d.singular_values.back(), 0.0);
}

TEST(Svd, KnownDiagonalMatrix) {
  Matrix a(3, 3);
  a(0, 0) = 3.0;
  a(1, 1) = 1.0;
  a(2, 2) = 2.0;
  const SvdResult d = svd(a);
  ASSERT_EQ(d.singular_values.size(), 3u);
  EXPECT_NEAR(d.singular_values[0], 3.0, 1e-10);
  EXPECT_NEAR(d.singular_values[1], 2.0, 1e-10);
  EXPECT_NEAR(d.singular_values[2], 1.0, 1e-10);
}

TEST(Svd, UColumnsOrthonormal) {
  Rng rng(47);
  Matrix a(12, 3);
  for (std::size_t r = 0; r < 12; ++r) {
    for (std::size_t c = 0; c < 3; ++c) a(r, c) = rng.normal();
  }
  const SvdResult d = svd(a);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      double dot = 0.0;
      for (std::size_t r = 0; r < 12; ++r) dot += d.u(r, i) * d.u(r, j);
      EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(Svd, WideMatrixHandled) {
  Matrix a(2, 5);
  for (std::size_t c = 0; c < 5; ++c) {
    a(0, c) = static_cast<double>(c + 1);
    a(1, c) = 2.0 * static_cast<double>(c + 1);
  }
  const SvdResult d = svd(a);
  // Rank-1 matrix: exactly one nonzero singular value.
  EXPECT_GT(d.singular_values[0], 1.0);
  EXPECT_NEAR(d.singular_values[1], 0.0, 1e-9);
}

TEST(Svd, LowRankApproximationOfRank1IsExact) {
  Matrix a(6, 3);
  for (std::size_t r = 0; r < 6; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      a(r, c) = static_cast<double>(r + 1) * static_cast<double>(c + 1);
    }
  }
  const Matrix approx = low_rank_approximation(a, 1);
  EXPECT_LT(a.frobenius_distance(approx), 1e-9);
}

TEST(Svd, LowRankApproximationReducesError) {
  Rng rng(53);
  Matrix a(10, 4);
  for (std::size_t r = 0; r < 10; ++r) {
    for (std::size_t c = 0; c < 4; ++c) a(r, c) = rng.normal();
  }
  const double err1 = a.frobenius_distance(low_rank_approximation(a, 1));
  const double err2 = a.frobenius_distance(low_rank_approximation(a, 2));
  const double err4 = a.frobenius_distance(low_rank_approximation(a, 4));
  EXPECT_GT(err1, err2);
  EXPECT_LT(err4, 1e-8);
}

// ---- wavelet ----

TEST(Wavelet, ForwardInverseRoundTrip) {
  Rng rng(59);
  std::vector<double> xs(64);
  for (auto& x : xs) x = rng.uniform(-10, 10);
  const auto coeffs = haar_forward(xs);
  const auto back = haar_inverse(coeffs);
  ASSERT_EQ(back.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_NEAR(back[i], xs[i], 1e-10);
  }
}

TEST(Wavelet, EnergyPreserved) {
  Rng rng(61);
  std::vector<double> xs(128);
  for (auto& x : xs) x = rng.normal();
  const auto coeffs = haar_forward(xs);
  double ex = 0.0, ec = 0.0;
  for (double x : xs) ex += x * x;
  for (double c : coeffs) ec += c * c;
  EXPECT_NEAR(ex, ec, 1e-8);
}

TEST(Wavelet, NonPowerOfTwoThrows) {
  std::vector<double> xs(100, 1.0);
  EXPECT_THROW(haar_forward(xs), std::invalid_argument);
}

TEST(Wavelet, BandsSumToSignal) {
  Rng rng(67);
  std::vector<double> xs(64);
  for (auto& x : xs) x = rng.uniform(0, 5);
  const auto low = band_reconstruction(xs, FrequencyBand::kLow);
  const auto mid = band_reconstruction(xs, FrequencyBand::kMid);
  const auto high = band_reconstruction(xs, FrequencyBand::kHigh);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_NEAR(low[i] + mid[i] + high[i], xs[i], 1e-9);
  }
}

TEST(Wavelet, ConstantSignalIsAllLowBand) {
  std::vector<double> xs(32, 4.2);
  const auto low = band_reconstruction(xs, FrequencyBand::kLow);
  const auto high = band_reconstruction(xs, FrequencyBand::kHigh);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_NEAR(low[i], 4.2, 1e-10);
    EXPECT_NEAR(high[i], 0.0, 1e-10);
  }
}

TEST(Wavelet, AlternatingSignalIsHighBand) {
  std::vector<double> xs(32);
  for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = i % 2 == 0 ? 1.0 : -1.0;
  const auto high = band_reconstruction(xs, FrequencyBand::kHigh);
  double energy = 0.0;
  for (double h : high) energy += h * h;
  EXPECT_NEAR(energy, 32.0, 1e-9);  // all of it
}

TEST(Wavelet, FloorPow2) {
  EXPECT_EQ(floor_pow2(1), 1u);
  EXPECT_EQ(floor_pow2(2), 2u);
  EXPECT_EQ(floor_pow2(3), 2u);
  EXPECT_EQ(floor_pow2(1008), 512u);
  EXPECT_EQ(floor_pow2(1024), 1024u);
}

// ---- CSV ----

TEST(Csv, RoundTrip) {
  CsvTable table;
  table.columns = {"a", "b"};
  table.rows = {{1.0, 2.5}, {3.0, kNaN}};
  std::ostringstream out;
  write_csv(out, table);
  std::istringstream in(out.str());
  const CsvTable back = read_csv(in);
  ASSERT_EQ(back.columns, table.columns);
  ASSERT_EQ(back.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(back.rows[0][1], 2.5);
  EXPECT_TRUE(std::isnan(back.rows[1][1]));
}

TEST(Csv, ColumnLookup) {
  CsvTable table;
  table.columns = {"x", "y"};
  table.rows = {{1, 10}, {2, 20}};
  EXPECT_EQ(table.column_index("y"), 1u);
  EXPECT_THROW(table.column_index("z"), std::out_of_range);
  const auto y = table.column("y");
  EXPECT_EQ(y, (std::vector<double>{10, 20}));
}

TEST(Csv, EmptyCellsAreNaN) {
  std::istringstream in("a,b\n1,\n");
  const CsvTable t = read_csv(in);
  ASSERT_EQ(t.rows.size(), 1u);
  EXPECT_TRUE(std::isnan(t.rows[0][1]));
}

TEST(Csv, WindowsLineEndingsHandled) {
  std::istringstream in("a,b\r\n1,2\r\n");
  const CsvTable t = read_csv(in);
  ASSERT_EQ(t.columns.size(), 2u);
  EXPECT_EQ(t.columns[1], "b");
  EXPECT_DOUBLE_EQ(t.rows[0][1], 2.0);
}

// Malformed-input hardening: errors locate the bad cell instead of
// surfacing a bare std::stod exception or silently misparsing.
std::string csv_error(const std::string& text) {
  std::istringstream in(text);
  try {
    read_csv(in);
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

TEST(Csv, NonNumericCellReportsLineAndColumn) {
  const std::string err = csv_error("a,b\n1,2\n3,oops\n");
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
  EXPECT_NE(err.find("column 2"), std::string::npos) << err;
  EXPECT_NE(err.find("'b'"), std::string::npos) << err;
  EXPECT_NE(err.find("oops"), std::string::npos) << err;
}

TEST(Csv, TrailingGarbageAfterNumberIsAnError) {
  // std::stod would silently parse the "1.5" prefix of "1.5x".
  const std::string err = csv_error("a\n1.5x\n");
  EXPECT_NE(err.find("1.5x"), std::string::npos) << err;
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
}

TEST(Csv, ShortRowReportsExpectedWidth) {
  const std::string err = csv_error("a,b,c\n1,2\n");
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  EXPECT_NE(err.find("expected 3 cells, got 2"), std::string::npos) << err;
}

TEST(Csv, LongRowIsAnError) {
  const std::string err = csv_error("a,b\n1,2,3\n");
  EXPECT_NE(err.find("expected 2 cells, got 3"), std::string::npos) << err;
}

TEST(Csv, SurroundingWhitespaceInCellsIsAccepted) {
  std::istringstream in("a,b\n 1 ,\t2.5\n");
  const CsvTable t = read_csv(in);
  ASSERT_EQ(t.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(t.rows[0][0], 1.0);
  EXPECT_DOUBLE_EQ(t.rows[0][1], 2.5);
}

// ---- ASCII rendering ----

TEST(Ascii, LineChartRendersGrid) {
  std::vector<double> ys(100);
  for (std::size_t i = 0; i < ys.size(); ++i) {
    ys[i] = std::sin(static_cast<double>(i) / 10.0);
  }
  ChartOptions options;
  options.width = 40;
  options.height = 8;
  const std::string chart = render_line_chart(ys, options);
  EXPECT_NE(chart.find('*'), std::string::npos);
  EXPECT_NE(chart.find('+'), std::string::npos);
}

TEST(Ascii, SparklineLengthMatches) {
  const std::vector<double> ys{1, 2, 3, 2, 1};
  const std::string s = render_sparkline(ys);
  EXPECT_FALSE(s.empty());
}

TEST(Ascii, TableAlignsColumns) {
  const std::string t = render_table({"name", "value"},
                                     {{"alpha", "1"}, {"b", "22"}});
  EXPECT_NE(t.find("alpha"), std::string::npos);
  EXPECT_NE(t.find("22"), std::string::npos);
}

TEST(Ascii, FormatDouble) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_double(kNaN), "nan");
}

}  // namespace
