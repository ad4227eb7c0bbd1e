// Test-only reference forest: DecisionTree::train_binned's split search
// as it was before the occupied-bin scan, evaluating a candidate after
// every bin up to the highest occupied one, empty bins included, over
// every bootstrap draw as its own row (before the multiplicity
// bootstrap), and the node layout and index walk trees had before the
// flat forest.
// tests/forest_oracle_test.cpp checks the shipped trainer against it node
// for node, and the flat forest's scores against the index walk bit for
// bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ml/binning.hpp"
#include "ml/dataset.hpp"
#include "ml/decision_tree.hpp"
#include "ml/random_forest.hpp"

namespace opprentice::ml::reference {

// One node with its children by index into the tree's own array, in the
// order the trainer allocates them (children in pairs, when their parent
// splits).
struct TreeNode {
  std::int32_t feature = -1;  // -1 marks a leaf
  double threshold = 0.0;     // go left when value <= threshold
  std::int32_t left = -1;
  std::int32_t right = -1;
  float anomaly_fraction = 0.0f;  // positive-class fraction at this node
};

// Grows a tree on the given rows of `data`, repeats visited one by one,
// with the same options, seed and random stream as
// DecisionTree(options).train_binned(data, counts), counts[r] being how
// often r is listed, and returns its node array.
std::vector<TreeNode> train_binned_dense(const BinnedDataset& data,
                                         std::vector<std::size_t> rows,
                                         const TreeOptions& options);

// The tree's nodes in the flat layout: preorder, left child first, each
// internal node holding its threshold and the offset of its right child,
// each leaf its anomaly fraction.
std::vector<FlatNode> flatten(const std::vector<TreeNode>& nodes);

// The leaf anomaly fraction reached by following child indices.
double score_tree(const std::vector<TreeNode>& nodes,
                  std::span<const double> features);

// RandomForest(options).train(data)'s trees, grown one by one with
// train_binned_dense from the same per-tree seeds and bootstrap rows.
std::vector<std::vector<TreeNode>> train_forest_dense(
    const Dataset& data, const ForestOptions& options);

// Fraction of the trees whose leaf fraction is at least 0.5.
double score_forest(const std::vector<std::vector<TreeNode>>& trees,
                    std::span<const double> features);

}  // namespace opprentice::ml::reference
