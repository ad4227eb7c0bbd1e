// CART decision tree (§4.4.2 "Preliminaries: decision trees").
//
// Gini-impurity splits, grown fully by default (the paper's random forest
// grows trees without pruning). Split finding runs on a BinnedDataset;
// the learned splits are translated back to raw-value thresholds so a
// trained tree scores unbinned feature vectors directly.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ml/binning.hpp"
#include "ml/dataset.hpp"
#include "util/rng.hpp"

namespace opprentice::ml {

struct TreeOptions {
  std::size_t max_depth = 64;         // effectively unlimited ("fully grown")
  std::size_t min_samples_split = 2;
  std::size_t mtry = 0;               // features tried per node; 0 = all
  std::uint64_t seed = 1;
};

// One 16-byte tree node (DESIGN.md §5d). A tree's nodes sit in preorder,
// left child first: an internal node's left child (value <= threshold,
// or NaN) is the next node, and its right child (value > threshold) is
// `right` nodes further on. NaN goes left because training bins it with
// the lowest values (bin 0). A forest is its trees' nodes back to back
// in one array.
struct FlatNode {
  static constexpr std::uint8_t kLeaf = 0xFF;
  // Feature indices fit in the u8 below the leaf mark.
  static constexpr std::size_t kMaxFeatures = kLeaf;

  double value = 0.0;          // threshold (go left unless x > value), or
                               // a leaf's positive-class fraction
  std::uint32_t right = 0;     // offset of the right child; 0 for a leaf
  std::uint8_t feature = kLeaf;

  bool is_leaf() const { return feature == kLeaf; }
};
static_assert(sizeof(FlatNode) == 16);

// One step down a tree; a leaf stays where it is.
inline const FlatNode* descend(const FlatNode* node,
                               std::span<const double> features) {
  if (node->is_leaf()) return node;
  return node + (features[node->feature] > node->value ? node->right : 1u);
}

class DecisionTree final : public BinaryClassifier {
 public:
  explicit DecisionTree(TreeOptions options = {});

  std::string name() const override { return "decision_tree"; }

  // Bins the dataset internally and grows the tree on all rows.
  void train(const Dataset& data) override;

  // Grows the tree on an already-binned dataset, row r taken counts[r]
  // times (a bootstrap sample as multiplicities; the random forest trains
  // its trees through this entry point). The tree equals one grown on
  // the rows listed with their repeats. Throws std::invalid_argument
  // unless there is one count per row, some count is non-zero and the
  // counts sum below 2^32, or past FlatNode::kMaxFeatures features.
  void train_binned(const BinnedDataset& data,
                    std::span<const std::uint32_t> counts);

  bool is_trained() const override { return !nodes_.empty(); }

  // Leaf anomaly fraction of the feature vector.
  double score(std::span<const double> features) const override;

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t depth() const;

  // Total gini gain contributed by each feature (unnormalized), summed
  // over the splits in the order they were grown.
  const std::vector<double>& feature_importances() const {
    return importances_;
  }

  // Human-readable if-then rules down to `max_print_depth` (Fig 5 prints a
  // compacted tree); `feature_names` supplies the detector names.
  std::string print_rules(const std::vector<std::string>& feature_names,
                          std::size_t max_print_depth = 3) const;

  std::span<const FlatNode> nodes() const { return nodes_; }

 private:
  TreeOptions options_;
  std::vector<FlatNode> nodes_;
  std::vector<double> importances_;
  util::Rng rng_;
};

}  // namespace opprentice::ml
