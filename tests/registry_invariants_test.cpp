// Registry invariants (paper Table 3), one test each: 133 configurations,
// the 14 families and their counts, unique names, parameters inside the
// per-family sampling grids, warm-ups that fit the probe, the severity
// contract, reset(), and the feature matrix and dataset built from the
// registry keeping its columns in registry order.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/dataset_builder.hpp"
#include "detectors/detector.hpp"
#include "detectors/feature_extractor.hpp"
#include "detectors/registry.hpp"
#include "timeseries/labels.hpp"
#include "timeseries/time_series.hpp"
#include "util/rng.hpp"

namespace {

using opprentice::detectors::DetectorPtr;
using opprentice::detectors::DetectorRegistry;
using opprentice::detectors::SeriesContext;

// Declared sampling grid of one Table 3 family: how many configurations it
// must expand to and, per parameter key, which printed values are legal.
struct FamilySpec {
  std::string family;
  std::size_t expected_configs = 0;
  std::map<std::string, std::vector<std::string>> allowed_values;
};

// The paper's Table 3 grids for the 14 standard families (sums to 133).
const std::vector<FamilySpec>& table3_specs() {
  static const std::vector<FamilySpec> specs = [] {
    const std::vector<std::string> ma_windows = {"10", "20", "30", "40", "50"};
    const std::vector<std::string> week_windows = {"1w", "2w", "3w", "4w",
                                                   "5w"};
    const std::vector<std::string> hw_grid = {"0.2", "0.4", "0.6", "0.8"};
    std::vector<FamilySpec> all;
    all.push_back({"simple_threshold", 1, {}});
    all.push_back({"diff", 3, {{"lag", {"slot", "day", "week"}}}});
    all.push_back({"simple_ma", 5, {{"win", ma_windows}}});
    all.push_back({"weighted_ma", 5, {{"win", ma_windows}}});
    all.push_back({"ma_of_diff", 5, {{"win", ma_windows}}});
    all.push_back(
        {"ewma", 5, {{"alpha", {"0.1", "0.3", "0.5", "0.7", "0.9"}}}});
    all.push_back({"tsd", 5, {{"win", week_windows}}});
    all.push_back({"tsd_mad", 5, {{"win", week_windows}}});
    all.push_back({"historical_average", 5, {{"win", week_windows}}});
    all.push_back({"historical_mad", 5, {{"win", week_windows}}});
    all.push_back({"holt_winters",
                   64,
                   {{"a", hw_grid}, {"b", hw_grid}, {"g", hw_grid}}});
    all.push_back({"svd",
                   15,
                   {{"row", {"10", "20", "30", "40", "50"}},
                    {"col", {"3", "5", "7"}}}});
    all.push_back({"wavelet",
                   9,
                   {{"win", {"3d", "5d", "7d"}},
                    {"freq", {"low", "mid", "high"}}}});
    all.push_back({"arima", 1, {{"auto", {""}}}});
    return all;
  }();
  return specs;
}

// Parsed form of a configuration name "family(k1=v1,k2=v2)" or "family".
struct ParsedConfigName {
  std::string family;
  std::map<std::string, std::string> params;
  bool valid = false;
};

ParsedConfigName parse_config_name(const std::string& name) {
  ParsedConfigName parsed;
  const std::size_t open = name.find('(');
  if (open == std::string::npos) {
    // Parameterless form: a bare identifier like "simple_threshold".
    if (name.empty() || name.find(')') != std::string::npos) return parsed;
    parsed.family = name;
    parsed.valid = true;
    return parsed;
  }
  if (open == 0 || name.back() != ')') return parsed;
  parsed.family = name.substr(0, open);

  const std::string body = name.substr(open + 1, name.size() - open - 2);
  if (body.empty()) return parsed;
  std::stringstream tokens(body);
  std::string token;
  while (std::getline(tokens, token, ',')) {
    if (token.empty()) return parsed;
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      // Flag-style parameter, e.g. "arima(auto)".
      if (!parsed.params.emplace(token, "").second) return parsed;
    } else {
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      if (key.empty() || value.empty()) return parsed;
      if (!parsed.params.emplace(key, value).second) return parsed;
    }
  }
  parsed.valid = true;
  return parsed;
}

// Compact calendar so seasonal warm-ups stay small.
SeriesContext small_ctx() {
  return {.points_per_day = 24, .points_per_week = 168};
}

// Probe length: every configuration must be past its warm-up well before
// the end (the widest today, svd(row=50,col=7), is 350 points).
constexpr std::size_t kProbePoints = 1024;

// Seeded noise around a level, with a two-point NaN gap after the first
// day and a -1e6/+1e6 spike pair mid-series: dirty data and extremes must
// not break the detector contract.
std::vector<double> dirty_series(std::uint64_t seed, double mean,
                                 double stddev) {
  const SeriesContext ctx = small_ctx();
  opprentice::util::Rng rng(seed);
  std::vector<double> series(kProbePoints);
  for (double& v : series) v = rng.normal(mean, stddev);
  series[ctx.points_per_day] = std::nan("");
  series[ctx.points_per_day + 1] = std::nan("");
  series[series.size() / 2] = -1e6;
  series[series.size() / 2 + 1] = 1e6;
  return series;
}

std::vector<DetectorPtr> standard_configs() {
  return DetectorRegistry::with_standard_families().instantiate_all(
      small_ctx());
}

TEST(RegistryInvariants, Exactly133Configurations) {
  const auto configs = standard_configs();
  EXPECT_EQ(configs.size(),
            opprentice::detectors::kStandardConfigurationCount);
  EXPECT_EQ(configs.size(), 133u);
}

TEST(RegistryInvariants, ConfigurationNamesAreUnique) {
  std::set<std::string> names;
  for (const auto& config : standard_configs()) {
    EXPECT_TRUE(names.insert(config->name()).second)
        << "duplicate configuration name: " << config->name();
  }
}

// The registry holds exactly the Table 3 families, none missing and none
// extra, each expanding to its Table 3 count.
TEST(RegistryInvariants, FamilyExpansionMatchesTable3) {
  const auto registry = DetectorRegistry::with_standard_families();
  for (const FamilySpec& spec : table3_specs()) {
    ASSERT_TRUE(registry.has_family(spec.family))
        << "missing family: " << spec.family;
    EXPECT_EQ(registry.instantiate_family(spec.family, small_ctx()).size(),
              spec.expected_configs)
        << "family " << spec.family;
  }
  EXPECT_EQ(registry.family_count(), table3_specs().size());
}

// Every name parses as family(key=value,...) of a Table 3 family, with
// exactly the declared keys and every value on the sampling grid.
TEST(RegistryInvariants, ParametersInsideDeclaredSamplingGrids) {
  const auto& specs = table3_specs();
  for (const auto& config : standard_configs()) {
    const auto parsed = parse_config_name(config->name());
    ASSERT_TRUE(parsed.valid) << "unparseable name: " << config->name();
    const auto spec_it = std::find_if(
        specs.begin(), specs.end(),
        [&parsed](const FamilySpec& s) { return s.family == parsed.family; });
    ASSERT_NE(spec_it, specs.end())
        << "unknown family in name: " << config->name();
    EXPECT_EQ(parsed.params.size(), spec_it->allowed_values.size())
        << config->name();
    for (const auto& [key, value] : parsed.params) {
      const auto allowed_it = spec_it->allowed_values.find(key);
      ASSERT_NE(allowed_it, spec_it->allowed_values.end())
          << config->name() << ": undeclared parameter " << key;
      EXPECT_NE(std::find(allowed_it->second.begin(),
                          allowed_it->second.end(), value),
                allowed_it->second.end())
          << config->name() << ": " << key << "=" << value
          << " outside sampling grid";
    }
  }
}

// Every warm-up ends inside the probe, and every severity on it is finite
// and >= 0 (§4.3.1), through the NaN gap and the extremes.
TEST(RegistryInvariants, SeveritiesNonNegativeOnRandomizedSeries) {
  for (const std::uint64_t seed : {7ull, 1234ull, 0xDEADBEEFull}) {
    const std::vector<double> series = dirty_series(seed, 50.0, 15.0);
    for (auto& config : standard_configs()) {
      ASSERT_LT(config->warmup_points(), series.size())
          << config->name() << " never warms up on the probe";
      for (std::size_t i = 0; i < series.size(); ++i) {
        const double severity = config->feed(series[i]);
        ASSERT_FALSE(std::isnan(severity))
            << config->name() << " emitted NaN at " << i << " (seed " << seed
            << ")";
        ASSERT_FALSE(std::isinf(severity))
            << config->name() << " emitted inf at " << i;
        ASSERT_GE(severity, 0.0)
            << config->name() << " emitted negative severity at " << i;
      }
    }
  }
}

// reset() + refeed reproduces the severities bit for bit.
TEST(RegistryInvariants, ResetRestoresConstructedState) {
  const std::vector<double> series = dirty_series(99, 100.0, 10.0);
  for (auto& config : standard_configs()) {
    std::vector<double> first;
    first.reserve(series.size());
    for (double v : series) first.push_back(config->feed(v));
    config->reset();
    for (std::size_t i = 0; i < series.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(config->feed(series[i])),
                std::bit_cast<std::uint64_t>(first[i]))
          << config->name() << " diverges after reset() at point " << i;
    }
  }
}

// The feature matrix has one column per configuration, named and ordered
// as the registry, reports the widest warm-up, and build_dataset keeps its
// columns, rows and names.
TEST(RegistryInvariants, LinterAlignmentAcceptsStandardRegistry) {
  namespace ts = opprentice::ts;
  const SeriesContext ctx = small_ctx();
  const ts::TimeSeries series(
      "probe", 0,
      ts::kSecondsPerDay / static_cast<std::int64_t>(ctx.points_per_day),
      dirty_series(5, 100.0, 20.0));
  const std::vector<DetectorPtr> configs = standard_configs();
  const opprentice::detectors::FeatureMatrix matrix =
      opprentice::detectors::extract_features(series, configs);
  ASSERT_EQ(matrix.num_features(), configs.size());
  ASSERT_EQ(matrix.feature_names.size(), configs.size());
  std::size_t widest_warmup = 0;
  for (std::size_t f = 0; f < configs.size(); ++f) {
    EXPECT_EQ(matrix.feature_names[f], configs[f]->name())
        << "feature column " << f << " is out of registry order";
    EXPECT_EQ(matrix.columns[f].size(), matrix.num_rows);
    widest_warmup = std::max(widest_warmup, configs[f]->warmup_points());
  }
  EXPECT_EQ(matrix.max_warmup, widest_warmup);

  const opprentice::ml::Dataset dataset =
      opprentice::core::build_dataset(matrix, ts::LabelSet{});
  EXPECT_EQ(dataset.num_features(), matrix.num_features());
  EXPECT_EQ(dataset.num_rows(), matrix.num_rows);
  EXPECT_EQ(dataset.feature_names(), matrix.feature_names);
}

TEST(RegistryInvariants, NameParserHandlesGrammar) {
  auto parsed = parse_config_name("ewma(alpha=0.3)");
  ASSERT_TRUE(parsed.valid);
  EXPECT_EQ(parsed.family, "ewma");
  EXPECT_EQ(parsed.params.at("alpha"), "0.3");

  parsed = parse_config_name("simple_threshold");
  ASSERT_TRUE(parsed.valid);
  EXPECT_EQ(parsed.family, "simple_threshold");
  EXPECT_TRUE(parsed.params.empty());

  parsed = parse_config_name("svd(row=10,col=3)");
  ASSERT_TRUE(parsed.valid);
  EXPECT_EQ(parsed.params.size(), 2u);

  EXPECT_FALSE(parse_config_name("").valid);
  EXPECT_FALSE(parse_config_name("bad(open").valid);
  EXPECT_FALSE(parse_config_name("(noname)").valid);
  EXPECT_FALSE(parse_config_name("dup(a=1,a=2)").valid);
}

}  // namespace
