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
  const std::size_t num_features = data.num_features();
  if (num_features > FlatNode::kMaxFeatures) {
    throw std::invalid_argument(
        "DecisionTree::train_binned: more features than a node can index");
  }
  nodes_.clear();
  importances_.assign(num_features, 0.0);

  const std::size_t mtry =
      options_.mtry == 0 ? num_features
                         : std::min(options_.mtry, num_features);

  // Nodes are grown in pop order: depth first, right child first (it is
  // pushed last), the order rng_'s draws follow. A node's right child is
  // then the next grown node, and left_child records its left one.
  std::vector<FlatNode> grown;
  std::vector<std::size_t> left_child;
  struct WorkItem {
    std::size_t parent;  // grown index of the parent (unused at the root)
    bool is_left;
    std::size_t begin;
    std::size_t end;
    std::size_t depth;
  };
  std::stack<WorkItem> work;
  work.push({0, false, 0, rows.size(), 0});

  std::array<std::uint32_t, kNumBins> hist_total{};
  std::array<std::uint32_t, kNumBins> hist_pos{};

  while (!work.empty()) {
    const WorkItem item = work.top();
    work.pop();
    const std::size_t n = item.end - item.begin;
    const std::size_t at = grown.size();
    if (item.is_left) left_child[item.parent] = at;

    std::size_t positives = 0;
    for (std::size_t i = item.begin; i < item.end; ++i) {
      positives += data.label(rows[i]);
    }
    // The positive-class fraction, rounded through f32 so leaf scores
    // keep their bits; it stays the node's value if the node is a leaf.
    grown.push_back(FlatNode{
        static_cast<double>(static_cast<float>(positives) /
                            static_cast<float>(n)),
        0, FlatNode::kLeaf});
    left_child.push_back(0);

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

    FlatNode& node = grown[at];
    node.feature = static_cast<std::uint8_t>(best.feature);
    node.value = data.binner(best.feature).upper_edge(best.code);

    work.push({at, true, item.begin, mid, item.depth + 1});
    work.push({at, false, mid, item.end, item.depth + 1});
  }

  // Lay the tree out in preorder, left child first: a normal point's
  // severities mostly sit at or below the thresholds, so its walk mostly
  // steps to the next node, in the same or the next cache line. A right
  // child patches its parent's offset once the left subtree is in place.
  nodes_.clear();
  nodes_.reserve(grown.size());
  struct Move {
    std::size_t from;    // grown index
    std::size_t parent;  // nodes_ index of the parent, for a right child
    bool is_right;
  };
  std::stack<Move> moves;
  moves.push({0, 0, false});
  while (!moves.empty()) {
    const Move move = moves.top();
    moves.pop();
    const std::size_t at = nodes_.size();
    if (move.is_right) {
      nodes_[move.parent].right = static_cast<std::uint32_t>(at - move.parent);
    }
    nodes_.push_back(grown[move.from]);
    if (!grown[move.from].is_leaf()) {
      moves.push({move.from + 1, at, true});
      moves.push({left_child[move.from], at, false});
    }
  }
}

double DecisionTree::score(std::span<const double> features) const {
  if (nodes_.empty()) {
    throw std::logic_error("DecisionTree::score: not trained");
  }
  const FlatNode* node = nodes_.data();
  while (!node->is_leaf()) node = descend(node, features);
  return node->value;
}

std::size_t DecisionTree::depth() const {
  std::size_t max_depth = 0;
  std::stack<std::pair<std::size_t, std::size_t>> work;
  if (!nodes_.empty()) work.push({0, 1});
  while (!work.empty()) {
    const auto [node, d] = work.top();
    work.pop();
    max_depth = std::max(max_depth, d);
    const FlatNode& n = nodes_[node];
    if (!n.is_leaf()) {
      work.push({node + 1, d + 1});
      work.push({node + n.right, d + 1});
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
    const FlatNode& n = nodes_[node];
    const std::string indent(2 * depth, ' ');
    if (n.is_leaf()) {
      out << indent << prefix
          << (n.value >= 0.5 ? "-> Anomaly" : "-> Normal")
          << " (p=" << n.value << ")\n";
      continue;
    }
    if (depth >= max_print_depth) {
      out << indent << prefix << "-> (deeper splits not shown)\n";
      continue;
    }
    const std::string fname =
        n.feature < feature_names.size() ? feature_names[n.feature] : "feature";
    out << indent << prefix << "severity[" << fname << "]"
        << " split at " << n.value << ":\n";
    // Right pushed first so the "<=" branch prints first.
    work.push(PrintItem{node + n.right, depth + 1, ">  : "});
    work.push(PrintItem{node + 1, depth + 1, "<= : "});
  }
  return out.str();
}

}  // namespace opprentice::ml
