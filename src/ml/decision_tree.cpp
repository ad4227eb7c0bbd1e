#include "ml/decision_tree.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <sstream>
#include <stack>
#include <stdexcept>

namespace opprentice::ml {
namespace {

constexpr std::size_t kNumBins = 256;

struct SplitCandidate {
  double gain = 0.0;
  std::size_t feature = 0;
  std::uint8_t code = 0;       // go left when bin <= code
  std::size_t left_count = 0;
  bool valid = false;
};

double gini(double pos, double total) {
  if (total <= 0.0) return 0.0;
  const double p = pos / total;
  return 2.0 * p * (1.0 - p);  // 1 - p^2 - (1-p)^2
}

}  // namespace

DecisionTree::DecisionTree(TreeOptions options)
    : options_(options), rng_(options.seed) {}

void DecisionTree::train(const Dataset& data) {
  if (data.empty()) {
    throw std::invalid_argument("DecisionTree::train: empty dataset");
  }
  const BinnedDataset binned(data);
  std::vector<std::size_t> rows(data.num_rows());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  train_binned(binned, std::move(rows));
}

void DecisionTree::train_binned(const BinnedDataset& data,
                                std::vector<std::size_t> rows) {
  if (rows.empty()) {
    throw std::invalid_argument("DecisionTree::train_binned: no rows");
  }
  nodes_.clear();
  importances_.assign(data.num_features(), 0.0);

  const std::size_t num_features = data.num_features();
  const std::size_t mtry =
      options_.mtry == 0 ? num_features
                         : std::min(options_.mtry, num_features);

  struct WorkItem {
    std::int32_t node;
    std::size_t begin;
    std::size_t end;
    std::size_t depth;
  };

  // Root.
  nodes_.push_back(TreeNode{});
  std::stack<WorkItem> work;
  work.push({0, 0, rows.size(), 0});

  std::array<std::uint32_t, kNumBins> hist_total{};
  std::array<std::uint32_t, kNumBins> hist_pos{};

  while (!work.empty()) {
    const WorkItem item = work.top();
    work.pop();
    const std::size_t n = item.end - item.begin;

    std::size_t positives = 0;
    for (std::size_t i = item.begin; i < item.end; ++i) {
      positives += data.label(rows[i]);
    }
    TreeNode& node = nodes_[static_cast<std::size_t>(item.node)];
    node.anomaly_fraction =
        static_cast<float>(positives) / static_cast<float>(n);

    const bool pure = positives == 0 || positives == n;
    if (pure || n < options_.min_samples_split ||
        item.depth >= options_.max_depth) {
      continue;  // leaf
    }

    // Random feature subset (random forests evaluate only a random subset
    // of features at each node, §4.4.2).
    std::vector<std::size_t> candidates =
        mtry == num_features
            ? [&] {
                std::vector<std::size_t> all(num_features);
                std::iota(all.begin(), all.end(), std::size_t{0});
                return all;
              }()
            : rng_.sample_without_replacement(num_features, mtry);

    const double parent_gini =
        gini(static_cast<double>(positives), static_cast<double>(n));
    SplitCandidate best;

    for (std::size_t f : candidates) {
      const auto& codes = data.codes(f);
      hist_total.fill(0);
      hist_pos.fill(0);
      std::uint8_t max_code = 0;
      for (std::size_t i = item.begin; i < item.end; ++i) {
        const std::size_t r = rows[i];
        const std::uint8_t c = codes[r];
        ++hist_total[c];
        hist_pos[c] += data.label(r);
        max_code = std::max(max_code, c);
      }
      // Prefix scan over bins: candidate split after each occupied bin.
      // An empty bin would repeat the previous candidate exactly, and a
      // repeat never beats the best by more than 1e-15, so skipping it
      // leaves every chosen split unchanged.
      double left_total = 0.0, left_pos = 0.0;
      for (std::size_t b = 0; b < max_code; ++b) {
        if (hist_total[b] == 0) continue;
        left_total += hist_total[b];
        left_pos += hist_pos[b];
        const double right_total = static_cast<double>(n) - left_total;
        if (right_total == 0.0) break;
        const double right_pos = static_cast<double>(positives) - left_pos;
        const double weighted =
            (left_total * gini(left_pos, left_total) +
             right_total * gini(right_pos, right_total)) /
            static_cast<double>(n);
        const double gain = parent_gini - weighted;
        if (gain > best.gain + 1e-15) {
          best.gain = gain;
          best.feature = f;
          best.code = static_cast<std::uint8_t>(b);
          best.left_count = static_cast<std::size_t>(left_total);
          best.valid = true;
        }
      }
    }

    if (!best.valid) continue;  // all candidate features constant here

    importances_[best.feature] += best.gain * static_cast<double>(n);

    // Partition rows in place: left side first.
    const auto& codes = data.codes(best.feature);
    auto middle = std::partition(
        rows.begin() + static_cast<std::ptrdiff_t>(item.begin),
        rows.begin() + static_cast<std::ptrdiff_t>(item.end),
        [&](std::size_t r) { return codes[r] <= best.code; });
    const std::size_t mid =
        static_cast<std::size_t>(middle - rows.begin());

    const auto left_id = static_cast<std::int32_t>(nodes_.size());
    nodes_.push_back(TreeNode{});
    const auto right_id = static_cast<std::int32_t>(nodes_.size());
    nodes_.push_back(TreeNode{});

    TreeNode& parent = nodes_[static_cast<std::size_t>(item.node)];
    parent.feature = static_cast<std::int32_t>(best.feature);
    parent.threshold = data.binner(best.feature).upper_edge(best.code);
    parent.left = left_id;
    parent.right = right_id;

    work.push({left_id, item.begin, mid, item.depth + 1});
    work.push({right_id, mid, item.end, item.depth + 1});
  }
}

double DecisionTree::score(std::span<const double> features) const {
  if (nodes_.empty()) {
    throw std::logic_error("DecisionTree::score: not trained");
  }
  std::size_t node = 0;
  for (;;) {
    const TreeNode& n = nodes_[node];
    if (n.feature < 0) return n.anomaly_fraction;
    const double v = features[static_cast<std::size_t>(n.feature)];
    node = static_cast<std::size_t>(v <= n.threshold ? n.left : n.right);
  }
}

std::size_t DecisionTree::depth() const {
  if (nodes_.empty()) return 0;
  // Iterative depth computation over the implicit tree.
  std::size_t max_depth = 0;
  std::stack<std::pair<std::size_t, std::size_t>> work;
  work.push({0, 1});
  while (!work.empty()) {
    const auto [node, d] = work.top();
    work.pop();
    max_depth = std::max(max_depth, d);
    const TreeNode& n = nodes_[node];
    if (n.feature >= 0) {
      work.push({static_cast<std::size_t>(n.left), d + 1});
      work.push({static_cast<std::size_t>(n.right), d + 1});
    }
  }
  return max_depth;
}

std::string DecisionTree::print_rules(
    const std::vector<std::string>& feature_names,
    std::size_t max_print_depth) const {
  std::ostringstream out;
  if (nodes_.empty()) return "(untrained tree)\n";

  struct PrintItem {
    std::size_t node;
    std::size_t depth;
    std::string prefix;
  };
  std::stack<PrintItem> work;
  work.push(PrintItem{0, 0, ""});
  while (!work.empty()) {
    auto [node, depth, prefix] = work.top();
    work.pop();
    const TreeNode& n = nodes_[node];
    const std::string indent(2 * depth, ' ');
    if (n.feature < 0 || depth >= max_print_depth) {
      out << indent << prefix
          << (n.anomaly_fraction >= 0.5f ? "-> Anomaly" : "-> Normal")
          << " (p=" << n.anomaly_fraction << ")\n";
      continue;
    }
    const auto f = static_cast<std::size_t>(n.feature);
    const std::string fname =
        f < feature_names.size() ? feature_names[f] : "feature";
    out << indent << prefix << "severity[" << fname << "]"
        << " split at " << n.threshold << ":\n";
    // Right pushed first so the "<=" branch prints first.
    work.push(PrintItem{static_cast<std::size_t>(n.right), depth + 1, ">  : "});
    work.push(PrintItem{static_cast<std::size_t>(n.left), depth + 1, "<= : "});
  }
  return out.str();
}

}  // namespace opprentice::ml
