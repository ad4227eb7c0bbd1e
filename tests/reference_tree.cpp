#include "reference_tree.hpp"

#include <algorithm>
#include <array>
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

}  // namespace opprentice::ml::reference
