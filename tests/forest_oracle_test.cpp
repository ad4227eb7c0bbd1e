// Oracle for the forest trainer's fast paths (DESIGN.md §5d):
//  - BinnedDataset sorts each column once and assigns codes in one walk,
//    or bins a row range from a ColumnOrder shared by many ranges; its
//    edges and codes must equal FeatureBinner::fit + bin_of column by
//    column, bit for bit, at any thread count.
//  - DecisionTree::train_binned scans occupied bins only; its trees must
//    equal the dense scan's (tests/reference_tree.*) node for node:
//    feature, threshold bits, children and leaf fraction.
//  - RandomForest scores its one flat node array a few trees at a time;
//    every score must equal the index walk over the reference trees bit
//    for bit, also after save_forest → load_forest.
//  - RandomForest::train end to end is pinned by per-case digests in
//    tests/golden/forest_digests.txt.
// Columns carry NaN, ±inf, −0.0/+0.0, ties, constants, all-NaN, a lone
// value, and more distinct values than there are bins.
//
// ctest label: chaos (CI runs it under ASan/UBSan).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <numeric>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "ml/binning.hpp"
#include "ml/dataset.hpp"
#include "ml/decision_tree.hpp"
#include "ml/random_forest.hpp"
#include "ml/serialize.hpp"
#include "reference_tree.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace opprentice;
using namespace opprentice::ml;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kMax = std::numeric_limits<double>::max();
constexpr std::size_t kThreadSweep[] = {1, 2, 8};

// A column of `rows` values of a random shape, with random dirt planted.
std::vector<double> random_column(util::Rng& rng, std::size_t rows) {
  std::vector<double> col(rows);
  const std::uint64_t shape = rng.uniform_int(5);
  const std::uint64_t distinct = 1 + rng.uniform_int(600);
  for (double& v : col) {
    switch (shape) {
      case 0: v = rng.normal(0.0, 1.0); break;  // all distinct
      case 1:  // ties
        v = static_cast<double>(rng.uniform_int(distinct)) - 3.0;
        break;
      case 2: v = rng.uniform() < 0.9 ? 0.0 : rng.uniform(); break;  // sparse
      case 3: v = std::exp(rng.normal(0.0, 20.0)); break;  // wide range
      default: v = 7.5; break;                              // constant
    }
  }
  const double nan_rate = rng.uniform() < 0.5 ? 0.0 : rng.uniform(0.0, 0.3);
  const bool specials = rng.uniform() < 0.5;
  for (double& v : col) {
    if (rng.uniform() < nan_rate) v = kNaN;
    if (specials && rng.uniform() < 0.02) {
      const double picks[] = {kInf, -kInf, -0.0, 0.0, kMax, -kMax};
      v = picks[rng.uniform_int(6)];
    }
  }
  return col;
}

// Hand-picked columns covering every edge of the binning rules.
std::vector<std::vector<double>> special_columns(std::size_t rows) {
  std::vector<std::vector<double>> cols;
  const auto make = [&](auto value_at) {
    std::vector<double> col(rows);
    for (std::size_t r = 0; r < rows; ++r) col[r] = value_at(r);
    cols.push_back(std::move(col));
  };
  const auto real = [](std::size_t r) { return static_cast<double>(r); };
  make([&](std::size_t r) { return r % 5 == 0 ? kNaN : real(r % 37); });
  make([](std::size_t r) {
    const double cycle[] = {-kInf, -1.0, 0.0, 2.0, kInf};
    return cycle[r % 5];
  });
  make([](std::size_t r) { return r % 2 == 0 ? -0.0 : 0.0; });
  make([](std::size_t r) {
    const double cycle[] = {-0.0, 0.0, 1.0, -1.0, -0.0};
    return cycle[r % 5];
  });
  make([](std::size_t r) { return r % 3 == 0 ? -kInf : kInf; });
  make([](std::size_t r) { return r % 2 == 0 ? kMax : -kMax; });
  make([](std::size_t r) { return r % 2 == 0 ? kMax : kMax / 2.0; });
  make([](std::size_t) { return 4.0; });                        // constant
  make([](std::size_t r) { return r == 7 ? 1.5 : kNaN; });      // one value
  make([](std::size_t) { return kNaN; });                        // all NaN
  make([&](std::size_t r) { return real(r) * 0.25 - 100.0; });   // > 255
  make([&](std::size_t r) { return real((r * 7919) % 1000); });  // ties
  // Subnormals.
  make([](std::size_t r) { return r % 4 == 0 ? 5e-324 : -5e-324; });
  return cols;
}

// Asserts that the sort-once BinnedDataset equals FeatureBinner::fit +
// bin_of on every column, bit for bit, at every swept thread count.
void expect_binning_matches_fit(const Dataset& data, std::size_t max_bins) {
  for (std::size_t threads : kThreadSweep) {
    util::set_global_threads(threads);
    const BinnedDataset binned(data, max_bins);
    ASSERT_EQ(binned.num_features(), data.num_features());
    ASSERT_EQ(binned.num_rows(), data.num_rows());
    for (std::size_t f = 0; f < data.num_features(); ++f) {
      const auto column = data.column(f);
      const FeatureBinner fit = FeatureBinner::fit(column, max_bins);
      const std::vector<double>& edges = binned.binner(f).edges();
      ASSERT_EQ(edges.size(), fit.edges().size()) << "feature " << f;
      for (std::size_t e = 0; e < edges.size(); ++e) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(edges[e]),
                  std::bit_cast<std::uint64_t>(fit.edges()[e]))
            << "feature " << f << " edge " << e;
      }
      for (std::size_t r = 0; r < column.size(); ++r) {
        ASSERT_EQ(binned.codes(f)[r], fit.bin_of(column[r]))
            << "feature " << f << " row " << r << " value " << column[r]
            << " threads " << threads << " max_bins " << max_bins;
      }
    }
  }
  util::set_global_threads(0);
}

Dataset dataset_of(std::vector<std::vector<double>> columns, util::Rng& rng) {
  const std::size_t rows = columns.empty() ? 0 : columns[0].size();
  std::vector<std::string> names(columns.size(), "f");
  std::vector<std::uint8_t> labels(rows);
  for (auto& label : labels) label = rng.uniform() < 0.3 ? 1 : 0;
  return Dataset(std::move(names), std::move(columns), std::move(labels));
}

TEST(BinningOracle, SpecialColumnsMatchFitAndBinOf) {
  util::Rng rng(11);
  for (std::size_t rows : {1u, 2u, 9u, 400u, 3000u}) {
    const Dataset data = dataset_of(special_columns(rows), rng);
    for (std::size_t max_bins : {2u, 3u, 16u, 255u}) {
      expect_binning_matches_fit(data, max_bins);
    }
  }
}

TEST(BinningOracle, RandomColumnsMatchFitAndBinOf) {
  util::Rng rng(20261017);
  for (int round = 0; round < 40; ++round) {
    const std::size_t rows = 1 + rng.uniform_int(2500);
    const std::size_t features = 1 + rng.uniform_int(12);
    std::vector<std::vector<double>> columns;
    for (std::size_t f = 0; f < features; ++f) {
      columns.push_back(random_column(rng, rows));
    }
    const Dataset data = dataset_of(std::move(columns), rng);
    expect_binning_matches_fit(data, round % 4 == 0 ? 1 + rng.uniform_int(40)
                                                    : kMaxBins);
  }
}

// Columns whose sort keys share whole bytes, so the radix sort skips
// those passes: one binade (exponent and sign shared), small integers
// (low mantissa bytes zero), all equal, only ±0.0, one negative binade,
// and a few values with NaN, at 1 and 2 rows as well.
TEST(BinningOracle, SkippedRadixPassesMatchFitAndBinOf) {
  util::Rng rng(77);
  for (std::size_t rows : {1u, 2u, 3u, 300u, 2000u}) {
    std::vector<std::vector<double>> cols;
    const auto make = [&](auto value_at) {
      std::vector<double> col(rows);
      for (double& v : col) v = value_at();
      cols.push_back(std::move(col));
    };
    make([&] { return 1.0 + rng.uniform(); });                // [1, 2)
    make([&] { return 1.0 + std::ldexp(rng.uniform(), -30); });
    make([&] { return static_cast<double>(rng.uniform_int(200)); });
    make([] { return 3.25; });
    make([&] { return rng.uniform() < 0.5 ? -0.0 : 0.0; });
    make([&] { return -(4.0 + 4.0 * rng.uniform()); });       // [-8, -4)
    make([&] { return rng.uniform() < 0.5 ? kNaN : -2.0; });
    make([&] {
      const double picks[] = {-0.0, 0.0, 1.0, kNaN};
      return picks[rng.uniform_int(4)];
    });
    const Dataset data = dataset_of(std::move(cols), rng);
    for (std::size_t max_bins : {2u, 16u, 255u}) {
      expect_binning_matches_fit(data, max_bins);
    }
  }
}

// Windows binned from a shared ColumnOrder: for random [begin, end)
// ranges, single rows, ranges inside a NaN run and every row, each
// column's edges and codes must equal FeatureBinner::fit + bin_of on the
// window's slice, bit for bit, and those of the window's own sort. The
// columns are the special ones (NaN runs, ±0.0, ±inf, ties), random ones,
// one binade, and f32-widened values (low key bytes shared); the orders
// cover every row or only a tail of them.
TEST(BinningOracle, SharedOrderRangesMatchFitAndBinOf) {
  util::Rng rng(3939);
  constexpr std::size_t kRows = 3000;
  constexpr std::size_t kNaNRun[] = {1200, 1500};
  std::vector<std::vector<double>> columns = special_columns(kRows);
  for (int i = 0; i < 8; ++i) columns.push_back(random_column(rng, kRows));
  std::vector<double> binade(kRows);
  std::vector<double> widened(kRows);
  for (std::size_t r = 0; r < kRows; ++r) {
    binade[r] = 1.0 + rng.uniform();
    widened[r] = static_cast<double>(static_cast<float>(rng.normal(0.0, 3.0)));
  }
  columns.push_back(std::move(binade));
  columns.push_back(std::move(widened));
  for (std::vector<double>& column : columns) {
    for (std::size_t r = kNaNRun[0]; r < kNaNRun[1]; ++r) column[r] = kNaN;
  }
  const Dataset data = dataset_of(std::move(columns), rng);

  struct Window {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t max_bins = kMaxBins;
    std::vector<FeatureBinner> fits;  // per feature, on the slice
  };
  std::vector<std::pair<std::size_t, std::size_t>> ranges = {
      {0, kRows},   {700, kRows},  {0, 1},    {kRows - 1, kRows},
      {1300, 1301}, {1250, 1450},  {kNaNRun[0], kNaNRun[1]},
      {1100, 1600}, {700, 701}};
  while (ranges.size() < 60) {
    const std::size_t begin = rng.uniform_int(kRows);
    ranges.emplace_back(begin, begin + 1 + rng.uniform_int(kRows - begin));
  }
  std::vector<Window> windows;
  for (const auto& [begin, end] : ranges) {
    Window w{begin, end, windows.size() % 3 == 0 ? 2 + rng.uniform_int(40)
                                                 : kMaxBins, {}};
    for (std::size_t f = 0; f < data.num_features(); ++f) {
      w.fits.push_back(FeatureBinner::fit(
          data.column(f).subspan(begin, end - begin), w.max_bins));
    }
    windows.push_back(std::move(w));
  }

  const auto expect_fit = [&](const BinnedDataset& binned, const Window& w,
                              const std::string& context) {
    for (std::size_t f = 0; f < data.num_features(); ++f) {
      const FeatureBinner& fit = w.fits[f];
      const std::vector<double>& edges = binned.binner(f).edges();
      ASSERT_EQ(edges.size(), fit.edges().size()) << context << " f " << f;
      for (std::size_t e = 0; e < edges.size(); ++e) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(edges[e]),
                  std::bit_cast<std::uint64_t>(fit.edges()[e]))
            << context << " f " << f << " edge " << e;
      }
      ASSERT_EQ(binned.codes(f).size(), w.end - w.begin) << context;
      for (std::size_t r = w.begin; r < w.end; ++r) {
        ASSERT_EQ(binned.codes(f)[r - w.begin], fit.bin_of(data.value(r, f)))
            << context << " f " << f << " row " << r;
      }
    }
  };
  for (std::size_t threads : kThreadSweep) {
    util::set_global_threads(threads);
    const ColumnOrder whole(data);
    const ColumnOrder tail(data, 700, kRows);
    for (const Window& w : windows) {
      const std::string context =
          "rows [" + std::to_string(w.begin) + ", " + std::to_string(w.end) +
          ") max_bins " + std::to_string(w.max_bins) + " threads " +
          std::to_string(threads);
      BinnedDataset own = BinnedDataset::unbinned(data, w.begin, w.end);
      util::parallel_for(data.num_features(), [&](std::size_t f) {
        own.bin_column(f, data.column(f), w.max_bins);
      });
      expect_fit(own, w, context + " own sort");
      for (const ColumnOrder* order : {&whole, &tail}) {
        if (w.begin < order->begin()) continue;
        BinnedDataset shared = BinnedDataset::unbinned(data, w.begin, w.end);
        util::parallel_for(data.num_features(), [&](std::size_t f) {
          shared.bin_column(f, data.column(f), order->rows(f), w.max_bins);
        });
        expect_fit(shared, w,
                   context + " order from " + std::to_string(order->begin()));
      }
    }
  }
  util::set_global_threads(0);
  EXPECT_THROW(ColumnOrder(data, 5, 4), std::out_of_range);
  EXPECT_THROW(ColumnOrder(data, 0, kRows + 1), std::out_of_range);
}

// Labels driven by one feature plus noise, so trees split on real
// signal as well as on ties and noise.
std::vector<std::uint8_t> random_labels(
    util::Rng& rng, const std::vector<std::vector<double>>& columns) {
  const std::size_t rows = columns[0].size();
  const double rate = rng.uniform(0.02, 0.6);
  const std::size_t source = rng.uniform_int(columns.size());
  std::vector<std::uint8_t> labels(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const double v = columns[source][r];
    const bool signal = !std::isnan(v) && v > 0.5;
    labels[r] = (signal ? rng.uniform() < 0.8 : rng.uniform() < rate) ? 1 : 0;
  }
  return labels;
}

void expect_same_nodes(std::span<const FlatNode> got,
                       const std::vector<FlatNode>& want,
                       const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].feature, want[i].feature) << context << " node " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].value),
              std::bit_cast<std::uint64_t>(want[i].value))
        << context << " node " << i;
    ASSERT_EQ(got[i].right, want[i].right) << context << " node " << i;
  }
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Grows `sample` (row indices, repeats allowed) as multiplicities and
// checks the tree against the reference grown over the listed rows;
// returns the reference's internal node count, and its nodes through
// `reference_out` when given.
std::size_t expect_tree_matches_reference(
    const BinnedDataset& binned, const std::vector<std::size_t>& sample,
    const TreeOptions& options, const std::string& context,
    std::vector<reference::TreeNode>* reference_out = nullptr) {
  std::vector<std::uint32_t> counts(binned.num_rows(), 0);
  for (const std::size_t r : sample) ++counts[r];
  DecisionTree tree(options);
  tree.train_binned(binned, counts);
  const std::vector<reference::TreeNode> want =
      reference::train_binned_dense(binned, sample, options);
  expect_same_nodes(tree.nodes(), reference::flatten(want), context);
  if (reference_out != nullptr) *reference_out = want;
  return (want.size() - 1) / 2;
}

TEST(TreeOracle, OccupiedBinScanMatchesDenseScanNodeForNode) {
  util::Rng rng(5150);
  std::size_t internal_nodes = 0;
  for (int round = 0; round < 120; ++round) {
    const std::size_t rows = 2 + rng.uniform_int(2000);
    const std::size_t features = 1 + rng.uniform_int(24);
    std::vector<std::vector<double>> columns;
    for (std::size_t f = 0; f < features; ++f) {
      columns.push_back(random_column(rng, rows));
    }
    std::vector<std::uint8_t> labels = random_labels(rng, columns);
    const Dataset data(std::vector<std::string>(features, "f"),
                       std::move(columns), std::move(labels));
    const BinnedDataset binned(data, round % 5 == 0 ? 1 + rng.uniform_int(30)
                                                    : kMaxBins);

    TreeOptions options;
    options.seed = rng.next_u64();
    options.mtry = rng.uniform_int(3) == 0 ? 0 : 1 + rng.uniform_int(features);
    options.max_depth = rng.uniform_int(3) == 0 ? 1 + rng.uniform_int(6) : 64;
    options.min_samples_split = 2 + rng.uniform_int(4);

    // Half the rounds train on a bootstrap sample, as the forest does.
    std::vector<std::size_t> sample(rows);
    if (round % 2 == 0) {
      std::iota(sample.begin(), sample.end(), std::size_t{0});
    } else {
      for (auto& r : sample) r = rng.uniform_int(rows);
    }

    internal_nodes += expect_tree_matches_reference(
        binned, sample, options, "round " + std::to_string(round));
  }
  // The rounds must actually grow trees, not stop at the root.
  EXPECT_GT(internal_nodes, 1000u);
}

// How many distinct rows of `rows` reach each node of a reference tree,
// routed by raw value as scoring routes them (NaN goes left).
std::vector<std::size_t> node_sizes(
    const std::vector<reference::TreeNode>& nodes, const Dataset& data,
    const std::vector<std::size_t>& rows) {
  std::vector<std::size_t> sizes(nodes.size(), 0);
  for (const std::size_t row : rows) {
    std::size_t at = 0;
    while (true) {
      ++sizes[at];
      const reference::TreeNode& node = nodes[at];
      if (node.feature < 0) break;
      const double v =
          data.column(static_cast<std::size_t>(node.feature))[row];
      at = static_cast<std::size_t>(
          std::isnan(v) || v <= node.threshold ? node.left : node.right);
    }
  }
  return sizes;
}

// Each split-kernel path of train_binned (DESIGN.md §5d) against the
// dense-scan reference: root sizes at the sparse path's row threshold
// and around it, up to 6000 distinct rows and every remainder mod 4 (the
// interleaved fill's tail); a column whose codes sit at the occupancy
// bitmap's word edges, one holding ~90% of its rows in one bin, and one
// constant over the rows some rounds sample; 2, 16, 255 and 256 bins
// (256 is the most a u8 code can name, so only it reaches code 255).
TEST(TreeOracle, SplitKernelPathsMatchReference) {
  util::Rng rng(1024);
  constexpr std::size_t kRows = 8000;
  const double edges[] = {0,   63,  64,  65,  127, 128,
                          129, 191, 192, 193, 254, 255};
  std::vector<std::vector<double>> columns(6, std::vector<double>(kRows));
  for (std::size_t r = 0; r < kRows; ++r) {
    // Every value 0..255 once, so a value's code is its rank, then the
    // values around the word edges, with some NaN (bin 0).
    columns[0][r] = r < 256         ? static_cast<double>(r)
                    : r % 97 == 0   ? kNaN
                                    : edges[rng.uniform_int(std::size(edges))];
    columns[1][r] = rng.uniform() < 0.9 ? 3.0 : rng.normal(0.0, 1.0);
    columns[2][r] = r < kRows / 2 ? 1.0 : rng.normal(0.0, 1.0);
  }
  for (std::size_t f = 3; f < columns.size(); ++f) {
    columns[f] = random_column(rng, kRows);
  }
  std::vector<std::uint8_t> labels(kRows);
  for (std::size_t r = 0; r < kRows; ++r) {
    const double v = columns[0][r];
    const bool signal = (v >= 64 && v < 128) || v >= 192;
    labels[r] = (rng.uniform() < 0.15) != signal ? 1 : 0;
  }
  std::vector<std::string> names(columns.size(), "f");
  const Dataset data(std::move(names), std::move(columns), std::move(labels));

  const std::size_t root_sizes[] = {127,  128,  129,  130,  1023,
                                    1024, 1025, 1026, 4001, 6000};
  std::size_t small = 0;
  std::size_t medium = 0;
  std::size_t large = 0;
  for (const std::size_t max_bins : {2u, 16u, 255u, 256u}) {
    const BinnedDataset binned(data, max_bins);
    if (max_bins >= 255) {
      const std::vector<std::uint8_t>& codes = binned.codes(0);
      const std::size_t edge_codes[] = {0,   63,  64,  127,
                                        128, 191, 192, max_bins - 1};
      for (const std::size_t code : edge_codes) {
        EXPECT_NE(std::find(codes.begin(), codes.end(), code), codes.end())
            << "max_bins " << max_bins << " code " << code;
      }
    }
    for (std::size_t i = 0; i < std::size(root_sizes); ++i) {
      const std::size_t size = root_sizes[i];
      // Odd rounds draw only rows where column 2 is constant, so no node
      // has a candidate on it; even rounds repeat rows 1-3 times.
      const bool constant_rows = i % 2 == 1 && size <= kRows / 2;
      std::vector<std::size_t> pool(constant_rows ? kRows / 2 : kRows);
      std::iota(pool.begin(), pool.end(), std::size_t{0});
      for (std::size_t k = 0; k < size; ++k) {
        std::swap(pool[k], pool[k + rng.uniform_int(pool.size() - k)]);
      }
      const std::vector<std::size_t> rows(
          pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(size));
      std::vector<std::size_t> sample;
      for (const std::size_t r : rows) {
        sample.insert(sample.end(), i % 2 == 0 ? 1 + rng.uniform_int(3) : 1, r);
      }
      TreeOptions options;
      options.seed = rng.next_u64();
      options.mtry = i % 3 == 0 ? 0 : 2;
      std::vector<reference::TreeNode> nodes;
      expect_tree_matches_reference(
          binned, sample, options,
          "max_bins " + std::to_string(max_bins) + " rows " +
              std::to_string(size),
          &nodes);
      const std::vector<std::size_t> sizes = node_sizes(nodes, data, rows);
      ASSERT_EQ(sizes[0], size);
      for (std::size_t n = 0; n < nodes.size(); ++n) {
        if (nodes[n].feature < 0) continue;
        small += sizes[n] <= 128 ? 1 : 0;
        medium += sizes[n] > 128 && sizes[n] <= 1024 ? 1 : 0;
        large += sizes[n] > 1024 ? 1 : 0;
      }
    }
  }
  // Every path ran on internal nodes, the interleaved one on nodes of
  // more than 1024 rows too.
  EXPECT_GT(small, 4000u);
  EXPECT_GT(medium, 500u);
  EXPECT_GT(large, 100u);
}

// Samples drawn from a handful of rows, so each sampled row stands for
// 100 or more draws, and a sample of one row repeated: the multiplicity
// trainer against the reference grown over every repeat.
TEST(TreeOracle, HeavyMultiplicitiesMatchDuplicateRowReference) {
  util::Rng rng(4242);
  std::size_t internal_nodes = 0;
  for (int round = 0; round < 120; ++round) {
    const std::size_t rows = 2 + rng.uniform_int(300);
    const std::size_t features = 1 + rng.uniform_int(12);
    std::vector<std::vector<double>> columns;
    for (std::size_t f = 0; f < features; ++f) {
      columns.push_back(random_column(rng, rows));
    }
    std::vector<std::uint8_t> labels = random_labels(rng, columns);
    const Dataset data(std::vector<std::string>(features, "f"),
                       std::move(columns), std::move(labels));
    const BinnedDataset binned(data);

    TreeOptions options;
    options.seed = rng.next_u64();
    options.mtry = rng.uniform_int(2) == 0 ? 0 : 1 + rng.uniform_int(features);
    // Some rounds stop splitting at a few hundred draws: a few rows.
    options.min_samples_split = round % 3 == 0 ? 2 + rng.uniform_int(600) : 2;

    std::vector<std::size_t> sample;
    if (round % 6 == 0) {
      const std::size_t row = rng.uniform_int(rows);
      sample.assign(1 + rng.uniform_int(500), row);
    } else {
      const std::size_t handful = 2 + rng.uniform_int(15);
      std::vector<std::size_t> picks(handful);
      for (auto& r : picks) r = rng.uniform_int(rows);
      for (const std::size_t r : picks) {
        sample.insert(sample.end(), 100 + rng.uniform_int(400), r);
      }
    }
    internal_nodes += expect_tree_matches_reference(
        binned, sample, options, "round " + std::to_string(round));
  }
  EXPECT_GT(internal_nodes, 150u);
}

// The flat forest against the index walk over the reference trees: the
// same nodes tree by tree, and bit-identical scores from score(),
// score_all() and a save→load round trip, at every swept thread count.
// Tree counts that are not a multiple of the scoring lanes included.
TEST(ForestOracle, FlatScoresEqualIndexWalkAndSurviveSaveLoad) {
  util::Rng rng(8086);
  std::size_t internal_nodes = 0;
  for (int round = 0; round < 24; ++round) {
    const std::size_t rows = 2 + rng.uniform_int(600);
    const std::size_t features = 1 + rng.uniform_int(24);
    std::vector<std::vector<double>> columns;
    std::vector<std::vector<double>> queries;
    for (std::size_t f = 0; f < features; ++f) {
      columns.push_back(random_column(rng, rows));
      queries.push_back(random_column(rng, 200));
    }
    std::vector<std::uint8_t> labels = random_labels(rng, columns);
    const Dataset data(std::vector<std::string>(features, "f"),
                       std::move(columns), std::move(labels));
    const Dataset probe(std::vector<std::string>(features, "f"),
                        std::move(queries), std::vector<std::uint8_t>(200, 0));

    ForestOptions options;
    options.num_trees = 1 + rng.uniform_int(13);
    options.seed = rng.next_u64();
    options.mtry = rng.uniform_int(2) == 0 ? 0 : 1 + rng.uniform_int(features);
    options.max_depth = rng.uniform_int(3) == 0 ? 1 + rng.uniform_int(6) : 64;
    const std::vector<std::vector<reference::TreeNode>> want =
        reference::train_forest_dense(data, options);

    for (std::size_t threads : kThreadSweep) {
      util::set_global_threads(threads);
      const std::string context = "round " + std::to_string(round) +
                                  " threads " + std::to_string(threads);
      RandomForest forest(options);
      forest.train(data);
      ASSERT_EQ(forest.tree_count(), want.size()) << context;
      for (std::size_t t = 0; t < want.size(); ++t) {
        expect_same_nodes(forest.tree_nodes(t), reference::flatten(want[t]),
                          context + " tree " + std::to_string(t));
        if (threads == 1) internal_nodes += (want[t].size() - 1) / 2;
      }

      std::stringstream file;
      save_forest(file, forest, data.feature_names());
      const LoadedForest loaded = load_forest(file);
      for (const Dataset* rows_of : {&data, &probe}) {
        const std::vector<double> all = forest.score_all(*rows_of);
        const std::vector<double> loaded_all =
            loaded.forest.score_all(*rows_of);
        for (std::size_t r = 0; r < rows_of->num_rows(); ++r) {
          const std::vector<double> row = rows_of->row(r);
          const double ref = reference::score_forest(want, row);
          ASSERT_TRUE(same_bits(forest.score(row), ref)) << context;
          ASSERT_TRUE(same_bits(all[r], ref)) << context << " row " << r;
          ASSERT_TRUE(same_bits(loaded.forest.score(row), ref)) << context;
          ASSERT_TRUE(same_bits(loaded_all[r], ref)) << context;
        }
      }
    }
  }
  util::set_global_threads(0);
  EXPECT_GT(internal_nodes, 1000u);
}

// 64-bit FNV-1a over a forest's save_forest text and the bits of its
// feature importances.
std::uint64_t forest_digest(const RandomForest& forest,
                            const std::vector<std::string>& names) {
  std::ostringstream text;
  save_forest(text, forest, names);
  std::uint64_t hash = 0xcbf29ce484222325ull;
  const auto add_byte = [&](std::uint64_t byte) {
    hash = (hash ^ (byte & 0xff)) * 0x100000001b3ull;
  };
  for (const char c : text.str()) add_byte(static_cast<unsigned char>(c));
  for (const double v : forest.feature_importances()) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) add_byte(bits >> (8 * byte));
  }
  return hash;
}

// A ≥ 5k-row training set of the hardest columns: heavy NaN, few
// distinct values, ±0.0 mixed with tiny values, a lone value, and
// random shapes with dirt planted.
Dataset dirty_dataset(util::Rng& rng, std::size_t rows, std::size_t features) {
  std::vector<std::vector<double>> columns;
  for (std::size_t f = 0; f < features; ++f) {
    std::vector<double> col(rows);
    for (double& v : col) {
      switch (f % 5) {
        case 0:  // heavy NaN
          v = rng.uniform() < 0.6 ? kNaN : rng.normal(0.0, 1.0);
          break;
        case 1:  // ties
          v = static_cast<double>(rng.uniform_int(1 + f)) * 0.5;
          break;
        case 2: {  // ±0.0 and tiny values
          const double picks[] = {-0.0, 0.0, 0.0, 5e-324, -1e-300, 1.0};
          v = picks[rng.uniform_int(6)];
          break;
        }
        case 3:  // mostly one value
          v = rng.uniform() < 0.97 ? 2.0 : rng.uniform();
          break;
        default:
          break;
      }
    }
    if (f % 5 == 4) col = random_column(rng, rows);
    columns.push_back(std::move(col));
  }
  std::vector<std::uint8_t> labels = random_labels(rng, columns);
  return Dataset(std::vector<std::string>(features, "f"), std::move(columns),
                 std::move(labels));
}

// Training bins NaN with the lowest values (bin 0), so a split sends it
// left; scoring must too. On a forest grown on NaN-heavy columns, a row
// whose NaNs are replaced by −inf scores bit-identically through score,
// score_all and a save→load round trip, while +inf (sent right) moves
// some scores — so the rows do reach splits where NaN's side matters.
TEST(ForestOracle, NaNScoresLikeNegativeInfinity) {
  util::Rng rng(404);
  constexpr std::size_t kRows = 1500;
  constexpr std::size_t kFeatures = 8;
  std::vector<std::vector<double>> columns(kFeatures);
  for (auto& column : columns) {
    column.resize(kRows);
    for (double& v : column) {
      v = rng.uniform() < 0.4 ? kNaN : rng.normal(0.0, 1.0);
    }
  }
  std::vector<std::uint8_t> labels = random_labels(rng, columns);
  const auto replaced = [&](double by) {
    std::vector<std::vector<double>> out = columns;
    for (auto& column : out) {
      for (double& v : column) v = std::isnan(v) ? by : v;
    }
    return Dataset(std::vector<std::string>(kFeatures, "f"), std::move(out),
                   labels);
  };
  const Dataset with_nan = replaced(kNaN);
  const Dataset with_neg = replaced(-kInf);
  const Dataset with_pos = replaced(kInf);

  RandomForest forest(ForestOptions{});
  forest.train(with_nan);
  std::stringstream file;
  save_forest(file, forest, with_nan.feature_names());
  const LoadedForest loaded = load_forest(file);
  const std::vector<double> all_nan = forest.score_all(with_nan);
  const std::vector<double> all_neg = forest.score_all(with_neg);
  const std::vector<double> loaded_nan = loaded.forest.score_all(with_nan);
  const std::vector<double> loaded_neg = loaded.forest.score_all(with_neg);
  std::size_t moved_by_pos = 0;
  for (std::size_t r = 0; r < kRows; ++r) {
    const std::vector<double> nan_row = with_nan.row(r);
    const std::vector<double> neg_row = with_neg.row(r);
    const double want = forest.score(nan_row);
    ASSERT_TRUE(same_bits(forest.score(neg_row), want)) << "row " << r;
    ASSERT_TRUE(same_bits(all_nan[r], want)) << "row " << r;
    ASSERT_TRUE(same_bits(all_neg[r], want)) << "row " << r;
    ASSERT_TRUE(same_bits(loaded.forest.score(nan_row), want)) << "row " << r;
    ASSERT_TRUE(same_bits(loaded.forest.score(neg_row), want)) << "row " << r;
    ASSERT_TRUE(same_bits(loaded_nan[r], want)) << "row " << r;
    ASSERT_TRUE(same_bits(loaded_neg[r], want)) << "row " << r;
    if (!same_bits(forest.score(with_pos.row(r)), want)) ++moved_by_pos;
  }
  EXPECT_GT(moved_by_pos, kRows / 20);
}

// ForestTraining's stages, run the way FleetEngine runs them — spread
// over several dispatches, their units out of order and inside dispatches
// that also carry unrelated pool work, with another forest trained
// between stages — give RandomForest::train's forest bit for bit, at any
// thread count.
TEST(ForestOracle, StagedTrainEqualsTrain) {
  util::Rng rng(4242);
  const Dataset data = dirty_dataset(rng, 1500, 40);
  const Dataset other = dirty_dataset(rng, 300, 12);
  ForestOptions options;
  options.num_trees = 21;
  options.seed = 99;
  for (std::size_t threads : kThreadSweep) {
    util::set_global_threads(threads);
    RandomForest whole(options);
    whole.train(data);

    ForestTraining staged(options, data);
    RandomForest unrelated;
    const std::size_t bins = staged.bin_units();
    // Bin units in reverse order, in two dispatches with a forest trained
    // on other data between them.
    util::parallel_for(bins / 2, [&](std::size_t u) {
      staged.bin(data, bins - 1 - u);
    });
    unrelated.train(other);
    util::parallel_for(bins - bins / 2, [&](std::size_t u) {
      staged.bin(data, bins - bins / 2 - 1 - u);
    });
    // Trees in a scrambled order (8 is prime to 21), over three
    // dispatches whose other indices score rows of the other data.
    const std::size_t trees = staged.tree_units();
    std::vector<double> other_scores(other.num_rows());
    for (std::size_t part = 0; part < 3; ++part) {
      util::parallel_for(trees + other.num_rows(), [&](std::size_t k) {
        if (k >= trees) {
          other_scores[k - trees] = unrelated.score(other.row(k - trees));
          return;
        }
        const std::size_t t = (k * 8) % trees;
        if (t % 3 == part) staged.grow(t);
      });
    }
    EXPECT_EQ(forest_digest(staged.assemble(), data.feature_names()),
              forest_digest(whole, data.feature_names()))
        << "threads " << threads;
  }
  util::set_global_threads(0);
}

// The engine's retrain, which trains from its f32 history: ForestTraining
// built from labels and a feature count, its bin units reading f32
// columns, run in stages spread over dispatches as in
// StagedTrainEqualsTrain, gives RandomForest::train's forest on the
// columns widened to f64 in a Dataset, bit for bit, at any thread count.
// The columns are dirty_dataset's and the special ones, saturated to f32
// as the history stores them.
TEST(ForestOracle, StagedFloatTrainEqualsTrain) {
  util::Rng rng(4343);
  constexpr std::size_t kRows = 1500;
  std::vector<std::vector<double>> columns =
      dirty_dataset(rng, kRows, 30).columns();
  for (std::vector<double>& column : special_columns(kRows)) {
    columns.push_back(std::move(column));
  }
  const std::size_t features = columns.size();
  constexpr double kFloatMax = std::numeric_limits<float>::max();
  std::vector<float> block;  // column after column
  for (std::vector<double>& column : columns) {
    for (double& v : column) {
      if (std::isfinite(v)) v = std::clamp(v, -kFloatMax, kFloatMax);
      const auto stored = static_cast<float>(v);
      block.push_back(stored);
      v = static_cast<double>(stored);
    }
  }
  std::vector<std::uint8_t> labels = random_labels(rng, columns);
  const Dataset widened(std::vector<std::string>(features, "f"),
                        std::move(columns), labels);
  const Dataset other = dirty_dataset(rng, 300, 12);
  ForestOptions options;
  options.num_trees = 21;
  options.seed = 77;
  for (std::size_t threads : kThreadSweep) {
    util::set_global_threads(threads);
    RandomForest whole(options);
    whole.train(widened);

    ForestTraining staged(options, labels, features);
    RandomForest unrelated;
    const std::size_t bins = staged.bin_units();
    util::parallel_for(bins / 2, [&](std::size_t u) {
      staged.bin(block, bins - 1 - u);
    });
    unrelated.train(other);
    util::parallel_for(bins - bins / 2, [&](std::size_t u) {
      staged.bin(block, bins - bins / 2 - 1 - u);
    });
    const std::size_t trees = staged.tree_units();
    for (std::size_t part = 0; part < 3; ++part) {
      util::parallel_for(trees, [&](std::size_t k) {
        const std::size_t t = (k * 8) % trees;
        if (t % 3 == part) staged.grow(t);
      });
    }
    EXPECT_EQ(forest_digest(staged.assemble(), widened.feature_names()),
              forest_digest(whole, widened.feature_names()))
        << "threads " << threads;
  }
  util::set_global_threads(0);
}

// Training and batch scoring read a row range of a dataset in place, and
// training may bin it from a shared ColumnOrder; the forest and the
// scores must be those of a copy of the range, bit for bit, at any
// thread count. The columns are dirty_dataset's, the special
// columns (±inf, NaN, −0.0, all-NaN) and random ones; the ranges start
// inside, end inside, hold one row, or hold every row.
TEST(ForestOracle, RowRangeTrainEqualsSliceTrain) {
  util::Rng rng(5151);
  constexpr std::size_t kRows = 1200;
  std::vector<std::vector<double>> columns =
      dirty_dataset(rng, kRows, 20).columns();
  for (std::vector<double>& column : special_columns(kRows)) {
    columns.push_back(std::move(column));
  }
  for (int i = 0; i < 6; ++i) columns.push_back(random_column(rng, kRows));
  std::vector<std::uint8_t> labels = random_labels(rng, columns);
  const std::size_t features = columns.size();
  const Dataset data(std::vector<std::string>(features, "f"),
                     std::move(columns), std::move(labels));
  ForestOptions options;
  options.num_trees = 16;
  options.seed = 2718;
  // With 100-row weeks, 100 rows of warm-up and 8 initial weeks: I1's
  // growing prefixes, R4's sliding 8 weeks and F4's first 8 weeks. Every
  // range also trains from the shared orders that hold it.
  std::vector<std::pair<std::size_t, std::size_t>> ranges = {
      {137, 911}, {0, 300}, {850, kRows}, {523, 524}, {0, kRows}};
  for (std::size_t test_begin = 800; test_begin < kRows; test_begin += 100) {
    ranges.emplace_back(100, test_begin);                                // I1
    ranges.emplace_back(std::max<std::size_t>(100, test_begin - 800),
                        test_begin);                                     // R4
  }
  ranges.emplace_back(100, 800);                                         // F4
  const ColumnOrder whole(data);
  const ColumnOrder trained(data, 100, 1100);
  for (std::size_t threads : kThreadSweep) {
    util::set_global_threads(threads);
    for (const auto& [begin, end] : ranges) {
      const std::string context = "rows [" + std::to_string(begin) + ", " +
                                  std::to_string(end) + ") threads " +
                                  std::to_string(threads);
      const Dataset copy = data.slice(begin, end);
      RandomForest in_place(options);
      in_place.train(data, begin, end);
      RandomForest sliced(options);
      sliced.train(copy);
      const std::uint64_t digest = forest_digest(sliced, data.feature_names());
      EXPECT_EQ(forest_digest(in_place, data.feature_names()), digest)
          << context;
      for (const ColumnOrder* order : {&whole, &trained}) {
        if (begin < order->begin() || end > order->end()) continue;
        RandomForest shared(options);
        shared.train(data, begin, end, order);
        EXPECT_EQ(forest_digest(shared, data.feature_names()), digest)
            << context << " order [" << order->begin() << ", "
            << order->end() << ")";
      }

      const std::vector<double> got = in_place.score_all(data, begin, end);
      const std::vector<double> want = sliced.score_all(copy);
      ASSERT_EQ(got.size(), want.size()) << context;
      for (std::size_t r = 0; r < got.size(); ++r) {
        ASSERT_TRUE(same_bits(got[r], want[r])) << context << " row " << r;
      }
    }
  }
  util::set_global_threads(0);

  RandomForest forest(options);
  EXPECT_THROW(forest.train(data, 400, 400), std::invalid_argument);
  EXPECT_THROW(forest.train(data.slice(400, 400)), std::invalid_argument);
  EXPECT_THROW(forest.train(data, 401, 400), std::out_of_range);
  EXPECT_THROW(forest.train(data, 0, kRows + 1), std::out_of_range);
  EXPECT_THROW(forest.train(data, 50, 600, &trained), std::invalid_argument);
  EXPECT_THROW(forest.train(data, 100, 1101, &trained),
               std::invalid_argument);
  const ColumnOrder narrow(data.select_features({0, 1}));
  EXPECT_THROW(forest.train(data, 0, 600, &narrow), std::invalid_argument);
  forest.train(data, 0, 600);
  EXPECT_TRUE(forest.score_all(data, 400, 400).empty());
  EXPECT_THROW((void)forest.score_all(data, 0, kRows + 1), std::out_of_range);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Pins RandomForest::train end to end (bootstrap, binning, trees, flat
// layout, importances) bit for bit: one digest per seeded case, the same
// at threads 1 and 4. The oracles above check the pieces against their
// references; this test pins the whole path across trainer changes. A
// deliberate change of a forest's bits re-records its line of
// tests/golden/forest_digests.txt (the failure prints the whole table)
// and says why in CHANGES.md.
TEST(ForestOracle, GoldenForestDigests) {
  struct Case {
    std::string name;
    Dataset data;
    ForestOptions options;
  };
  std::vector<Case> cases;
  {
    std::vector<std::vector<double>> columns = {{1.0, 2.0}, {-0.0, kNaN},
                                                {3.0, 3.0}};
    Dataset data(std::vector<std::string>(3, "f"), std::move(columns),
                 std::vector<std::uint8_t>{0, 1});
    cases.push_back({"rows2", std::move(data), ForestOptions{}});
  }
  {
    util::Rng rng(1339);
    std::vector<std::vector<double>> columns;
    for (std::size_t f = 0; f < 133; ++f) {
      columns.push_back(random_column(rng, 1339));
    }
    std::vector<std::uint8_t> labels = random_labels(rng, columns);
    Dataset data(std::vector<std::string>(133, "f"), std::move(columns),
                 std::move(labels));
    cases.push_back({"rows1339x133", std::move(data), ForestOptions{}});
  }
  {
    util::Rng rng(5000);
    cases.push_back({"dirty6000x40", dirty_dataset(rng, 6000, 40),
                     ForestOptions{}});
    ForestOptions shallow;
    shallow.num_trees = 13;
    shallow.max_depth = 9;
    shallow.min_samples_split = 7;
    shallow.sample_fraction = 0.6;
    shallow.mtry = 11;
    shallow.seed = 7;
    cases.push_back({"dirty6000x40_shallow", cases.back().data, shallow});
  }

  std::string actual;
  for (const Case& c : cases) {
    std::uint64_t digest = 0;
    for (std::size_t threads : {1u, 4u}) {
      util::set_global_threads(threads);
      RandomForest forest(c.options);
      forest.train(c.data);
      const std::uint64_t got = forest_digest(forest, c.data.feature_names());
      if (threads == 1) digest = got;
      EXPECT_EQ(got, digest) << c.name << " threads " << threads;
    }
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016llx ",
                  static_cast<unsigned long long>(digest));
    actual += hex + c.name + '\n';
  }
  util::set_global_threads(0);
  const std::string golden =
      read_file(std::string(OPPRENTICE_GOLDEN_DIR) + "/forest_digests.txt");
  EXPECT_EQ(actual, golden) << "digests now:\n" << actual;
}

}  // namespace
