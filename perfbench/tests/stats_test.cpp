// Tests of the benchmark's percentile, composite-lap and digest helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "stats.hpp"

namespace {

using perfbench::Digest;
using perfbench::TailStat;

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending: the helper must not assume sorted input
}

TEST(TailPercentile, ReportsTheWantedPercentileWhenTenSamplesLieBeyond) {
  const TailStat t = perfbench::tail_percentile(one_to(1000), 99.0);
  EXPECT_TRUE(t.supported);
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);
  EXPECT_DOUBLE_EQ(t.value, 990.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.count, 1000u);
}

TEST(TailPercentile, FallsBackToTheHighestSupportedPercentile) {
  const TailStat t = perfbench::tail_percentile(one_to(144), 99.0);
  EXPECT_TRUE(t.supported);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_DOUBLE_EQ(t.value, 134.0);
  EXPECT_NEAR(t.percentile, 100.0 * 134.0 / 144.0, 1e-12);
}

TEST(TailPercentile, ElevenSamplesSupportOnlyTheLowestRank) {
  const TailStat t = perfbench::tail_percentile(one_to(11), 99.0);
  EXPECT_TRUE(t.supported);
  EXPECT_DOUBLE_EQ(t.value, 1.0);
  EXPECT_EQ(t.beyond, 10u);
}

TEST(TailPercentile, TooFewSamplesReportTheMaximumUnsupported) {
  const TailStat t = perfbench::tail_percentile(one_to(10), 99.0);
  EXPECT_FALSE(t.supported);
  EXPECT_DOUBLE_EQ(t.value, 10.0);
  EXPECT_DOUBLE_EQ(t.percentile, 100.0);
  EXPECT_EQ(t.count, 10u);

  const TailStat empty = perfbench::tail_percentile({}, 99.0);
  EXPECT_FALSE(empty.supported);
  EXPECT_EQ(empty.count, 0u);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(perfbench::median(std::vector<double>{3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(perfbench::median(std::vector<double>{4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(perfbench::median({}), 0.0);
}

TEST(CompositeLap, TakesEachSlotsFastestLap) {
  // Three laps of two slots: slot 0 is fastest in lap 2, slot 1 in lap 0.
  const std::vector<double> steps{5, 1, 4, 3, 2, 6};
  const std::vector<double> lags{50, 10, 40, 30, 20, 60};
  const perfbench::CompositeLap c = perfbench::composite_lap(steps, lags, 2);
  EXPECT_DOUBLE_EQ(c.total, 3.0);
  EXPECT_EQ(c.lags, (std::vector<double>{20, 10}));
}

TEST(CompositeLap, SingleLapAndTiesKeepTheFirstLap) {
  const std::vector<double> one{7, 8, 9};
  EXPECT_DOUBLE_EQ(perfbench::composite_lap(one, one, 3).total, 24.0);
  const std::vector<double> tie{2, 2};
  const std::vector<double> which{1, 2};
  EXPECT_EQ(perfbench::composite_lap(tie, which, 1).lags,
            (std::vector<double>{1}));
  EXPECT_TRUE(perfbench::composite_lap(one, one, 4).lags.empty());
}

TEST(Digest, EqualStreamsDigestEqualAndOrderMatters) {
  Digest a;
  Digest b;
  Digest c;
  for (double v : {0.25, 0.5, 0.75}) {
    a.add_double(v);
    b.add_double(v);
  }
  for (double v : {0.75, 0.5, 0.25}) c.add_double(v);
  EXPECT_EQ(a.value(), b.value());
  EXPECT_NE(a.value(), c.value());
}

TEST(Digest, ComparesBitPatterns) {
  Digest pos;
  Digest neg;
  pos.add_double(0.0);
  neg.add_double(-0.0);
  EXPECT_NE(pos.value(), neg.value());

  Digest nan1;
  Digest nan2;
  nan1.add_double(std::numeric_limits<double>::quiet_NaN());
  nan2.add_double(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(nan1.value(), nan2.value());
}

TEST(Digest, VerdictFlagsCount) {
  Digest normal;
  Digest anomaly;
  normal.add_double(0.9);
  normal.add_bool(false);
  anomaly.add_double(0.9);
  anomaly.add_bool(true);
  EXPECT_NE(normal.value(), anomaly.value());
}

}  // namespace
