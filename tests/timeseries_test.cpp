// Unit tests for src/timeseries: TimeSeries, LabelSet, series profiling,
// and the one-pass repair against the sort-then-scan reference it
// replaced (reference_repair.*).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "reference_repair.hpp"
#include "timeseries/labels.hpp"
#include "timeseries/repair.hpp"
#include "timeseries/series_stats.hpp"
#include "timeseries/time_series.hpp"
#include "util/rng.hpp"

namespace {

using namespace opprentice::ts;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TimeSeries make_series(std::size_t n, std::int64_t interval = 600) {
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<double>(i);
  return TimeSeries("test", 1000, interval, std::move(values));
}

// ---- ingest repair (unit view; the chaos suite exercises policies
// end-to-end) ----

TEST(Repair, InfersIntervalFromSmallestPositiveDelta) {
  std::vector<RawPoint> points;
  for (std::size_t i = 0; i < 6; ++i) {
    points.push_back({600 * static_cast<std::int64_t>(i), 1.0});
  }
  points.erase(points.begin() + 2);  // a gap must not widen the interval
  const auto result =
      repair_series("infer", points, 0, RepairPolicy::kDrop);
  EXPECT_EQ(result.series.interval_seconds(), 600);
  EXPECT_EQ(result.series.size(), 6u);
  EXPECT_EQ(result.report.gaps, 1u);
}

TEST(Repair, OutOfOrderPointsAreResorted) {
  std::vector<RawPoint> points = {
      {0, 0.0}, {1200, 2.0}, {600, 1.0}, {1800, 3.0}};
  const auto result =
      repair_series("disorder", points, 600, RepairPolicy::kDrop);
  EXPECT_EQ(result.report.out_of_order, 1u);
  ASSERT_EQ(result.series.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(result.series[i], static_cast<double>(i));
  }
}

TEST(Repair, DuplicateTimestampsKeepFirstArrival) {
  std::vector<RawPoint> points = {
      {0, 0.0}, {600, 1.0}, {600, 99.0}, {1200, 2.0}};
  const auto result =
      repair_series("dups", points, 600, RepairPolicy::kDrop);
  EXPECT_EQ(result.report.duplicates, 1u);
  ASSERT_EQ(result.series.size(), 3u);
  EXPECT_DOUBLE_EQ(result.series[1], 1.0);
}

TEST(Repair, EmptyStreamIsAnError) {
  EXPECT_THROW(repair_series("empty", {}, 600, RepairPolicy::kDrop),
               std::runtime_error);
}

TEST(Repair, RefusesGridsVastlyLargerThanTheInput) {
  // One corrupt far-future timestamp must not allocate a year of slots.
  std::vector<RawPoint> points = {{0, 1.0}, {600, 2.0}, {600'000'000, 3.0}};
  EXPECT_THROW(repair_series("corrupt", points, 600, RepairPolicy::kDrop),
               std::runtime_error);
}

// ---- the one-pass repair against the reference ----

// A chunk as a wire batch may carry it: `n` points on a grid of
// `interval` seconds (0 = let repair infer it from the stamps, which are
// still laid on `grid`) with each defect class at its own rate.
struct ChunkShape {
  std::size_t n = 0;
  std::int64_t grid = 600;
  std::int64_t interval = 600;
  double gap = 0.0;        // point dropped
  double duplicate = 0.0;  // point repeats the previous stamp
  double disorder = 0.0;   // point swapped with its predecessor
  double misalign = 0.0;   // stamp moved off the grid
  double bad = 0.0;        // value NaN, +inf or -inf
};

std::vector<RawPoint> make_chunk(opprentice::util::Rng& rng,
                                 const ChunkShape& shape) {
  const std::int64_t start =
      static_cast<std::int64_t>(rng.uniform_int(4'000'000'000)) - 2'000'000'000;
  std::vector<RawPoint> points;
  for (std::size_t i = 0; i < shape.n; ++i) {
    if (rng.uniform() < shape.gap) continue;
    RawPoint p{start + static_cast<std::int64_t>(i) * shape.grid,
               rng.normal(100.0, 15.0)};
    if (rng.uniform() < shape.misalign) {
      p.timestamp += static_cast<std::int64_t>(
                         rng.uniform_int(static_cast<std::uint64_t>(shape.grid))) -
                     shape.grid / 2;
    }
    if (rng.uniform() < shape.bad) {
      const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()};
      p.value = bad[rng.uniform_int(3)];
    }
    if (!points.empty() && rng.uniform() < shape.duplicate) {
      p.timestamp = points.back().timestamp;
    }
    points.push_back(p);
    if (points.size() >= 2 && rng.uniform() < shape.disorder) {
      std::swap(points[points.size() - 1], points[points.size() - 2]);
    }
  }
  return points;
}

// Runs both repairs on one chunk under one policy and compares every
// observable: value bits, start, interval, the report, or the message.
void expect_same_repair(const std::vector<RawPoint>& points,
                        std::int64_t interval, RepairPolicy policy,
                        const std::string& what) {
  std::string want_error;
  RepairResult want{TimeSeries("x", 0, 600, {}), {}};
  try {
    want = reference::repair_series("chunk", points, interval, policy);
  } catch (const std::runtime_error& e) {
    want_error = e.what();
  }
  std::string got_error;
  RepairResult got{TimeSeries("x", 0, 600, {}), {}};
  try {
    got = repair_series("chunk", points, interval, policy);
  } catch (const std::runtime_error& e) {
    got_error = e.what();
  }
  const std::string where = what + " policy=" + to_string(policy);
  ASSERT_EQ(got_error, want_error) << where;
  if (!want_error.empty()) return;
  EXPECT_EQ(got.series.name(), want.series.name()) << where;
  EXPECT_EQ(got.series.start_epoch(), want.series.start_epoch()) << where;
  EXPECT_EQ(got.series.interval_seconds(), want.series.interval_seconds())
      << where;
  ASSERT_EQ(got.series.size(), want.series.size()) << where;
  for (std::size_t i = 0; i < want.series.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.series[i]),
              std::bit_cast<std::uint64_t>(want.series[i]))
        << where << " slot " << i;
  }
  EXPECT_EQ(got.report.out_of_order, want.report.out_of_order) << where;
  EXPECT_EQ(got.report.duplicates, want.report.duplicates) << where;
  EXPECT_EQ(got.report.gaps, want.report.gaps) << where;
  EXPECT_EQ(got.report.bad_values, want.report.bad_values) << where;
  EXPECT_EQ(got.report.misaligned, want.report.misaligned) << where;
}

TEST(RepairOracle, OnePassEqualsReference) {
  opprentice::util::Rng rng(20261019);
  const std::int64_t grids[] = {60, 300, 600, 3600};
  std::vector<std::pair<std::vector<RawPoint>, std::int64_t>> chunks;
  std::size_t refused = 0;
  for (std::size_t k = 0; k < 400; ++k) {
    ChunkShape shape;
    shape.grid = grids[rng.uniform_int(4)];
    shape.interval = k % 5 == 0 ? 0 : shape.grid;
    // Lengths: one point, short, and long.
    const std::size_t lengths[] = {1, 2 + rng.uniform_int(30),
                                   200 + rng.uniform_int(2000)};
    shape.n = lengths[k % 3];
    switch (k % 4) {
      case 0:  // clean: the sort is skipped and nothing is counted
        break;
      case 1:  // every defect at once
        shape.gap = 0.05;
        shape.duplicate = 0.04;
        shape.disorder = 0.04;
        shape.misalign = 0.03;
        shape.bad = 0.03;
        break;
      case 2:  // sorted but dirty: gaps, duplicates and bad values only
        shape.gap = 0.2;
        shape.duplicate = 0.1;
        shape.bad = 0.1;
        break;
      default:  // heavy disorder and misalignment
        shape.disorder = 0.3;
        shape.misalign = 0.3;
        shape.bad = 0.01;
        break;
    }
    chunks.emplace_back(make_chunk(rng, shape), shape.interval);
  }
  // Refused chunks: no points, a span no grid may cover, identical stamps
  // with nothing to infer from, and intervals that do not divide a day.
  chunks.emplace_back(std::vector<RawPoint>{}, 600);
  chunks.emplace_back(std::vector<RawPoint>{{0, 1.0}, {3'000'000'000, 2.0}},
                      600);
  chunks.emplace_back(std::vector<RawPoint>{{600, 1.0}, {600, 2.0}}, 0);
  chunks.emplace_back(std::vector<RawPoint>{{0, 1.0}, {7, 2.0}}, 0);
  chunks.emplace_back(std::vector<RawPoint>{{0, 1.0}, {600, 2.0}}, -600);
  chunks.emplace_back(std::vector<RawPoint>{{0, 1.0}, {700, 2.0}}, 700);
  // One-point chunks of every value class.
  for (const double v : {1.0, std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    chunks.emplace_back(std::vector<RawPoint>{{1700000400, v}}, 600);
  }

  for (std::size_t c = 0; c < chunks.size(); ++c) {
    for (const RepairPolicy policy :
         {RepairPolicy::kFail, RepairPolicy::kDrop,
          RepairPolicy::kFillInterpolate}) {
      try {
        (void)reference::repair_series("chunk", chunks[c].first,
                                       chunks[c].second, policy);
      } catch (const std::runtime_error&) {
        ++refused;
      }
      expect_same_repair(chunks[c].first, chunks[c].second, policy,
                         "chunk " + std::to_string(c));
    }
  }
  // kFail refuses every dirty chunk, and the structural refusals fail
  // under every policy.
  EXPECT_GT(refused, 3u * 6u);
}

// ---- TimeSeries ----

TEST(TimeSeries, TimestampsAreImplicit) {
  const TimeSeries s = make_series(5, 60);
  EXPECT_EQ(s.timestamp(0), 1000);
  EXPECT_EQ(s.timestamp(3), 1000 + 3 * 60);
}

TEST(TimeSeries, PointsPerDayAndWeek) {
  const TimeSeries s = make_series(10, 600);
  EXPECT_EQ(s.points_per_day(), 144u);
  EXPECT_EQ(s.points_per_week(), 1008u);
}

TEST(TimeSeries, HourlySeries) {
  const TimeSeries s = make_series(10, 3600);
  EXPECT_EQ(s.points_per_day(), 24u);
}

TEST(TimeSeries, RejectsNonDividingInterval) {
  EXPECT_THROW(TimeSeries("bad", 0, 7000, {1.0}), std::invalid_argument);
  EXPECT_THROW(TimeSeries("bad", 0, 0, {1.0}), std::invalid_argument);
  EXPECT_THROW(TimeSeries("bad", 0, -60, {1.0}), std::invalid_argument);
}

TEST(TimeSeries, SliceKeepsCalendarAlignment) {
  const TimeSeries s = make_series(100, 600);
  const TimeSeries part = s.slice(10, 20);
  EXPECT_EQ(part.size(), 10u);
  EXPECT_EQ(part.start_epoch(), s.timestamp(10));
  EXPECT_DOUBLE_EQ(part[0], 10.0);
}

TEST(TimeSeries, SliceBadRangeThrows) {
  const TimeSeries s = make_series(10);
  EXPECT_THROW(s.slice(5, 3), std::out_of_range);
  EXPECT_THROW(s.slice(0, 11), std::out_of_range);
}

TEST(TimeSeries, AppendContiguous) {
  TimeSeries a = make_series(10, 600);
  const TimeSeries b("test", a.timestamp(10), 600, {100.0, 101.0});
  a.append(b);
  EXPECT_EQ(a.size(), 12u);
  EXPECT_DOUBLE_EQ(a[10], 100.0);
}

TEST(TimeSeries, AppendNonContiguousThrows) {
  TimeSeries a = make_series(10, 600);
  const TimeSeries gap("test", a.timestamp(10) + 600, 600, {1.0});
  EXPECT_THROW(a.append(gap), std::invalid_argument);
  const TimeSeries wrong_interval("test", a.timestamp(10), 300, {1.0});
  EXPECT_THROW(a.append(wrong_interval), std::invalid_argument);
}

// ---- LabelSet ----

TEST(Labels, AddWindowMergesOverlaps) {
  LabelSet ls;
  ls.add_window({10, 20});
  ls.add_window({15, 25});
  ASSERT_EQ(ls.window_count(), 1u);
  EXPECT_EQ(ls.windows()[0], (LabelWindow{10, 25}));
}

TEST(Labels, AddWindowMergesAdjacent) {
  LabelSet ls;
  ls.add_window({10, 20});
  ls.add_window({20, 30});
  ASSERT_EQ(ls.window_count(), 1u);
  EXPECT_EQ(ls.windows()[0], (LabelWindow{10, 30}));
}

TEST(Labels, DisjointWindowsStaySeparate) {
  LabelSet ls;
  ls.add_window({10, 20});
  ls.add_window({30, 40});
  EXPECT_EQ(ls.window_count(), 2u);
  EXPECT_EQ(ls.anomalous_points(), 20u);
}

TEST(Labels, EmptyWindowIgnored) {
  LabelSet ls;
  ls.add_window({5, 5});
  EXPECT_EQ(ls.window_count(), 0u);
}

TEST(Labels, RemoveRangeSplitsWindow) {
  LabelSet ls;
  ls.add_window({10, 30});
  ls.remove_range(15, 20);
  ASSERT_EQ(ls.window_count(), 2u);
  EXPECT_EQ(ls.windows()[0], (LabelWindow{10, 15}));
  EXPECT_EQ(ls.windows()[1], (LabelWindow{20, 30}));
}

TEST(Labels, RemoveRangeTrimsEdges) {
  LabelSet ls;
  ls.add_window({10, 30});
  ls.remove_range(25, 40);
  ASSERT_EQ(ls.window_count(), 1u);
  EXPECT_EQ(ls.windows()[0], (LabelWindow{10, 25}));
}

TEST(Labels, RemoveEntireWindow) {
  LabelSet ls;
  ls.add_window({10, 30});
  ls.remove_range(0, 100);
  EXPECT_EQ(ls.window_count(), 0u);
}

TEST(Labels, IsAnomalousBoundaries) {
  LabelSet ls;
  ls.add_window({10, 20});
  ls.add_window({40, 45});
  EXPECT_FALSE(ls.is_anomalous(9));
  EXPECT_TRUE(ls.is_anomalous(10));
  EXPECT_TRUE(ls.is_anomalous(19));
  EXPECT_FALSE(ls.is_anomalous(20));
  EXPECT_TRUE(ls.is_anomalous(42));
  EXPECT_FALSE(ls.is_anomalous(100));
}

TEST(Labels, PointLabelRoundTrip) {
  LabelSet ls;
  ls.add_window({3, 6});
  ls.add_window({8, 9});
  const auto points = ls.to_point_labels(12);
  const LabelSet back = LabelSet::from_point_labels(points);
  EXPECT_EQ(back.windows(), ls.windows());
}

TEST(Labels, PointLabelsClampToSize) {
  LabelSet ls;
  ls.add_window({8, 20});
  const auto points = ls.to_point_labels(10);
  EXPECT_EQ(points.size(), 10u);
  EXPECT_EQ(points[9], 1);
}

TEST(Labels, SliceRebases) {
  LabelSet ls;
  ls.add_window({10, 20});
  ls.add_window({30, 40});
  const LabelSet part = ls.slice(15, 35);
  ASSERT_EQ(part.window_count(), 2u);
  EXPECT_EQ(part.windows()[0], (LabelWindow{0, 5}));    // 15..20 -> 0..5
  EXPECT_EQ(part.windows()[1], (LabelWindow{15, 20}));  // 30..35 -> 15..20
}

TEST(Labels, ShiftedOffsets) {
  LabelSet ls;
  ls.add_window({1, 3});
  const LabelSet moved = ls.shifted(100);
  EXPECT_EQ(moved.windows()[0], (LabelWindow{101, 103}));
}

TEST(Labels, MergedUnion) {
  LabelSet a, b;
  a.add_window({0, 5});
  b.add_window({3, 8});
  const LabelSet u = a.merged(b);
  ASSERT_EQ(u.window_count(), 1u);
  EXPECT_EQ(u.windows()[0], (LabelWindow{0, 8}));
}

TEST(Labels, ConstructorNormalizesUnsortedInput) {
  const LabelSet ls({{30, 40}, {10, 20}, {35, 50}});
  ASSERT_EQ(ls.window_count(), 2u);
  EXPECT_EQ(ls.windows()[0], (LabelWindow{10, 20}));
  EXPECT_EQ(ls.windows()[1], (LabelWindow{30, 50}));
}

// ---- series profiling ----

TEST(SeriesStats, ProfileOfSeasonalSeries) {
  const std::size_t ppd = 144;
  std::vector<double> values(ppd * 14);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 100.0 + 30.0 * std::sin(2.0 * 3.14159265 *
                                        static_cast<double>(i % ppd) /
                                        static_cast<double>(ppd));
  }
  const TimeSeries s("seasonal", 0, 600, std::move(values));
  const SeriesProfile p = profile(s);
  EXPECT_EQ(p.interval_seconds, 600);
  EXPECT_NEAR(p.length_weeks, 2.0, 1e-9);
  EXPECT_GT(p.daily_seasonality, 0.95);
  EXPECT_NEAR(p.coefficient_of_variation, 30.0 / std::sqrt(2.0) / 100.0,
              0.01);
  EXPECT_DOUBLE_EQ(p.missing_ratio, 0.0);
}

TEST(SeriesStats, MissingRatioCounted) {
  std::vector<double> values(1008, 1.0);
  for (std::size_t i = 0; i < 101; ++i) values[i * 10] = kNaN;
  const TimeSeries s("gappy", 0, 600, std::move(values));
  EXPECT_NEAR(profile(s).missing_ratio, 101.0 / 1008.0, 1e-9);
}

TEST(SeriesStats, SeasonalityClasses) {
  EXPECT_EQ(seasonality_class(0.9), "Strong");
  EXPECT_EQ(seasonality_class(0.5), "Moderate");
  EXPECT_EQ(seasonality_class(0.1), "Weak");
}

}  // namespace
