// Test-only reference tree trainer: DecisionTree::train_binned's split
// search as it was before the occupied-bin scan, evaluating a candidate
// after every bin up to the highest occupied one, empty bins included.
// tests/forest_oracle_test.cpp checks the shipped trainer against it node
// for node.
#pragma once

#include <cstddef>
#include <vector>

#include "ml/binning.hpp"
#include "ml/decision_tree.hpp"

namespace opprentice::ml::reference {

// Grows a tree on the given rows of `data` with the same options, seed
// and random stream as DecisionTree(options).train_binned(data, rows),
// and returns its node array.
std::vector<TreeNode> train_binned_dense(const BinnedDataset& data,
                                         std::vector<std::size_t> rows,
                                         const TreeOptions& options);

}  // namespace opprentice::ml::reference
