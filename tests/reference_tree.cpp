#include "reference_tree.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stack>

#include "util/rng.hpp"

namespace opprentice::ml::reference {
namespace {

double gini(double pos, double total) {
  if (total <= 0.0) return 0.0;
  const double p = pos / total;
  return 2.0 * p * (1.0 - p);
}

}  // namespace

std::vector<TreeNode> train_binned_dense(const BinnedDataset& data,
                                         std::vector<std::size_t> rows,
                                         const TreeOptions& options) {
  util::Rng rng(options.seed);
  std::vector<TreeNode> nodes;
  const std::size_t num_features = data.num_features();
  const std::size_t mtry = options.mtry == 0
                               ? num_features
                               : std::min(options.mtry, num_features);

  struct WorkItem {
    std::int32_t node;
    std::size_t begin;
    std::size_t end;
    std::size_t depth;
  };
  nodes.push_back(TreeNode{});
  std::stack<WorkItem> work;
  work.push({0, 0, rows.size(), 0});

  std::array<std::uint32_t, 256> hist_total{};
  std::array<std::uint32_t, 256> hist_pos{};

  while (!work.empty()) {
    const WorkItem item = work.top();
    work.pop();
    const std::size_t n = item.end - item.begin;

    std::size_t positives = 0;
    for (std::size_t i = item.begin; i < item.end; ++i) {
      positives += data.label(rows[i]);
    }
    nodes[static_cast<std::size_t>(item.node)].anomaly_fraction =
        static_cast<float>(positives) / static_cast<float>(n);

    const bool pure = positives == 0 || positives == n;
    if (pure || n < options.min_samples_split ||
        item.depth >= options.max_depth) {
      continue;
    }

    std::vector<std::size_t> candidates(num_features);
    if (mtry == num_features) {
      std::iota(candidates.begin(), candidates.end(), std::size_t{0});
    } else {
      candidates = rng.sample_without_replacement(num_features, mtry);
    }

    const double parent_gini =
        gini(static_cast<double>(positives), static_cast<double>(n));
    double best_gain = 0.0;
    std::size_t best_feature = 0;
    std::uint8_t best_code = 0;
    bool found = false;

    for (std::size_t f : candidates) {
      const auto& codes = data.codes(f);
      hist_total.fill(0);
      hist_pos.fill(0);
      std::uint8_t max_code = 0;
      for (std::size_t i = item.begin; i < item.end; ++i) {
        const std::size_t r = rows[i];
        ++hist_total[codes[r]];
        hist_pos[codes[r]] += data.label(r);
        max_code = std::max(max_code, codes[r]);
      }
      double left_total = 0.0, left_pos = 0.0;
      for (std::size_t b = 0; b < max_code; ++b) {
        left_total += hist_total[b];
        left_pos += hist_pos[b];
        if (left_total == 0.0) continue;
        const double right_total = static_cast<double>(n) - left_total;
        if (right_total == 0.0) break;
        const double right_pos = static_cast<double>(positives) - left_pos;
        const double weighted =
            (left_total * gini(left_pos, left_total) +
             right_total * gini(right_pos, right_total)) /
            static_cast<double>(n);
        const double gain = parent_gini - weighted;
        if (gain > best_gain + 1e-15) {
          best_gain = gain;
          best_feature = f;
          best_code = static_cast<std::uint8_t>(b);
          found = true;
        }
      }
    }
    if (!found) continue;

    const auto& codes = data.codes(best_feature);
    const auto middle = std::partition(
        rows.begin() + static_cast<std::ptrdiff_t>(item.begin),
        rows.begin() + static_cast<std::ptrdiff_t>(item.end),
        [&](std::size_t r) { return codes[r] <= best_code; });
    const auto mid = static_cast<std::size_t>(middle - rows.begin());

    const auto left_id = static_cast<std::int32_t>(nodes.size());
    nodes.push_back(TreeNode{});
    const auto right_id = static_cast<std::int32_t>(nodes.size());
    nodes.push_back(TreeNode{});
    TreeNode& parent = nodes[static_cast<std::size_t>(item.node)];
    parent.feature = static_cast<std::int32_t>(best_feature);
    parent.threshold = data.binner(best_feature).upper_edge(best_code);
    parent.left = left_id;
    parent.right = right_id;

    work.push({left_id, item.begin, mid, item.depth + 1});
    work.push({right_id, mid, item.end, item.depth + 1});
  }
  return nodes;
}

std::vector<FlatNode> flatten(const std::vector<TreeNode>& nodes) {
  std::vector<FlatNode> flat;
  // (node index, position of the parent whose right child it is, or -1).
  std::vector<std::pair<std::size_t, std::ptrdiff_t>> work{{0, -1}};
  while (!work.empty()) {
    const auto [index, right_of] = work.back();
    work.pop_back();
    if (right_of >= 0) {
      flat[static_cast<std::size_t>(right_of)].right =
          static_cast<std::uint32_t>(flat.size() -
                                     static_cast<std::size_t>(right_of));
    }
    const TreeNode& node = nodes[index];
    const auto at = static_cast<std::ptrdiff_t>(flat.size());
    if (node.feature < 0) {
      flat.push_back(FlatNode{static_cast<double>(node.anomaly_fraction), 0,
                              FlatNode::kLeaf});
      continue;
    }
    flat.push_back(FlatNode{node.threshold, 0,
                            static_cast<std::uint8_t>(node.feature)});
    work.push_back({static_cast<std::size_t>(node.right), at});
    work.push_back({static_cast<std::size_t>(node.left), -1});
  }
  return flat;
}

double score_tree(const std::vector<TreeNode>& nodes,
                  std::span<const double> features) {
  std::size_t node = 0;
  for (;;) {
    const TreeNode& n = nodes[node];
    if (n.feature < 0) return n.anomaly_fraction;
    const double v = features[static_cast<std::size_t>(n.feature)];
    // NaN goes left, with bin 0.
    node = static_cast<std::size_t>(v > n.threshold ? n.right : n.left);
  }
}

std::vector<std::vector<TreeNode>> train_forest_dense(
    const Dataset& data, const ForestOptions& options) {
  const BinnedDataset binned(data);
  util::Rng rng(options.seed);
  const std::size_t sample_size = std::max<std::size_t>(
      1, static_cast<std::size_t>(options.sample_fraction *
                                  static_cast<double>(data.num_rows())));
  const std::size_t mtry =
      options.mtry != 0
          ? options.mtry
          : std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       std::sqrt(static_cast<double>(data.num_features()))));
  std::vector<std::vector<TreeNode>> trees;
  for (std::size_t t = 0; t < options.num_trees; ++t) {
    TreeOptions tree_options;
    tree_options.max_depth = options.max_depth;
    tree_options.min_samples_split = options.min_samples_split;
    tree_options.mtry = mtry;
    tree_options.seed = rng.next_u64();
    std::vector<std::size_t> rows(sample_size);
    for (auto& r : rows) r = rng.uniform_int(data.num_rows());
    trees.push_back(train_binned_dense(binned, std::move(rows), tree_options));
  }
  return trees;
}

double score_forest(const std::vector<std::vector<TreeNode>>& trees,
                    std::span<const double> features) {
  std::size_t votes = 0;
  for (const auto& tree : trees) {
    votes += score_tree(tree, features) >= 0.5 ? 1 : 0;
  }
  return static_cast<double>(votes) / static_cast<double>(trees.size());
}

}  // namespace opprentice::ml::reference
