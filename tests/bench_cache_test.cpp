// The bench disk cache (bench/bench_common.cpp) must hit on an identical
// rerun and miss the moment any feature column, label or driver option
// changes; a stale hit would make every figure report old forests.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace opprentice;

constexpr std::size_t kPointsPerWeek = 24;
constexpr std::size_t kWeeks = 4;
constexpr std::size_t kFeatures = 6;

// Every 7th row is anomalous; each feature is a deterministic mix of the
// label and a per-feature ripple, so every week trains a real forest.
core::ExperimentData tiny_data() {
  const std::size_t rows = kPointsPerWeek * kWeeks;
  std::vector<std::uint8_t> labels(rows);
  for (std::size_t i = 0; i < rows; ++i) labels[i] = i % 7 == 3 ? 1 : 0;
  std::vector<std::string> names;
  std::vector<std::vector<double>> columns(kFeatures,
                                           std::vector<double>(rows));
  for (std::size_t f = 0; f < kFeatures; ++f) {
    names.push_back("f" + std::to_string(f));
    for (std::size_t i = 0; i < rows; ++i) {
      columns[f][i] = 0.6 * labels[i] +
                      0.1 * std::sin(static_cast<double>(i * (f + 1)));
    }
  }
  core::ExperimentData data;
  data.dataset = ml::Dataset(names, columns, labels);
  data.points_per_week = kPointsPerWeek;
  return data;
}

core::DriverOptions tiny_options() {
  core::DriverOptions options;
  options.initial_weeks = 2;
  options.forest.num_trees = 4;
  options.preference = bench::kPaperPreference;
  return options;
}

// Copy of `data` with `delta` added to every value of column `f`.
core::ExperimentData shift_column(const core::ExperimentData& data,
                                  std::size_t f, double delta) {
  auto columns = data.dataset.columns();
  for (double& v : columns[f]) v += delta;
  core::ExperimentData out = data;
  out.dataset = ml::Dataset(data.dataset.feature_names(), columns,
                            data.dataset.labels());
  return out;
}

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

class BenchCache : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each test as its own process, often in parallel, so each
    // gets its own cache directory.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("opprentice-bench-cache-test-") + info->name());
    std::filesystem::remove_all(dir_);
    ASSERT_EQ(setenv("OPPRENTICE_CACHE_DIR", dir_.c_str(), 1), 0);
    ASSERT_EQ(unsetenv("OPPRENTICE_NO_CACHE"), 0);
  }
  void TearDown() override {
    unsetenv("OPPRENTICE_CACHE_DIR");
    std::filesystem::remove_all(dir_);
  }

  static std::uint64_t hits() {
    return obs::counter("opprentice.bench.cache.hits").value();
  }
  static std::uint64_t misses() {
    return obs::counter("opprentice.bench.cache.misses").value();
  }

  std::filesystem::path dir_;
};

TEST_F(BenchCache, SameDataMissesThenHits) {
  const auto data = tiny_data();
  const auto options = tiny_options();
  const std::uint64_t hits0 = hits(), misses0 = misses();
  const auto fresh = bench::cached_weekly_incremental(data, options, "tiny");
  EXPECT_EQ(misses() - misses0, 1u);
  EXPECT_EQ(hits() - hits0, 0u);
  const auto cached = bench::cached_weekly_incremental(data, options, "tiny");
  EXPECT_EQ(misses() - misses0, 1u);
  EXPECT_EQ(hits() - hits0, 1u);

  // The hit returns the run bit for bit, NaN prefix included.
  ASSERT_EQ(cached.scores.size(), fresh.scores.size());
  for (std::size_t i = 0; i < fresh.scores.size(); ++i) {
    EXPECT_EQ(bits(cached.scores[i]), bits(fresh.scores[i])) << "row " << i;
  }
  EXPECT_TRUE(std::isnan(fresh.scores.front()));
  EXPECT_FALSE(std::isnan(fresh.scores.back())) << "no forest was trained";
  EXPECT_EQ(cached.test_start, fresh.test_start);
  ASSERT_EQ(cached.weeks.size(), fresh.weeks.size());
  for (std::size_t w = 0; w < fresh.weeks.size(); ++w) {
    EXPECT_EQ(bits(cached.weeks[w].best.cthld),
              bits(fresh.weeks[w].best.cthld));
  }
}

TEST_F(BenchCache, ChangedFeatureColumnMisses) {
  const auto data = tiny_data();
  const auto changed = shift_column(data, 3, 1.0);
  const auto options = tiny_options();
  for (const bool five_fold : {false, true}) {
    SCOPED_TRACE(five_fold ? "five-fold cthlds" : "incremental run");
    auto run = [&](const core::ExperimentData& d) {
      if (five_fold) {
        bench::cached_five_fold_cthlds(d, options, "tiny");
      } else {
        bench::cached_weekly_incremental(d, options, "tiny");
      }
    };
    run(data);
    const std::uint64_t hits0 = hits(), misses0 = misses();
    run(data);
    EXPECT_EQ(hits() - hits0, 1u);
    run(changed);
    EXPECT_EQ(misses() - misses0, 1u) << "column 3 changed, cache still hit";
    EXPECT_EQ(hits() - hits0, 1u);
  }
}

TEST_F(BenchCache, ChangedDriverOptionMisses) {
  const auto data = tiny_data();
  const auto options = tiny_options();
  bench::cached_weekly_incremental(data, options, "tiny");

  auto deeper = options;
  deeper.forest.max_depth = 3;
  auto wider = options;
  wider.forest.mtry = 4;
  auto smaller = options;
  smaller.forest.sample_fraction = 0.5;
  auto splits = options;
  splits.forest.min_samples_split = 5;
  auto stricter = options;
  stricter.preference.min_precision = 0.9;
  for (const auto& changed : {deeper, wider, smaller, splits, stricter}) {
    const std::uint64_t hits0 = hits(), misses0 = misses();
    bench::cached_weekly_incremental(data, changed, "tiny");
    EXPECT_EQ(misses() - misses0, 1u);
    EXPECT_EQ(hits() - hits0, 0u);
  }
}

}  // namespace
