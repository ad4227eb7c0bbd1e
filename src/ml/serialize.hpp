// Model persistence.
//
// A deployed Opprentice retrains weekly but classifies continuously; the
// trained forest must survive process restarts without retraining. The
// format is a line-oriented text format (versioned, human-inspectable):
//
//   opprentice-forest v2
//   trees <n> features <f>
//   names <name> ...                  (URL-style escapes for ' ', '%', '\n')
//   tree <nodes>
//   <feature> <threshold> <right>     (an internal node)
//   -1 <anomaly_fraction> 0           (a leaf)
//
// Each tree's nodes are listed in the forest's order (ml::FlatNode):
// preorder, left child first, so an internal node's left child is the
// next line and its right child `right` lines further on. Values are
// printed with 17 significant digits and read back bit for bit. v1 files
// (per-tree node indices) are refused.
#pragma once

#include <iosfwd>
#include <string>

#include "ml/random_forest.hpp"

namespace opprentice::ml {

// Writes the trained forest. Throws std::logic_error if untrained.
void save_forest(std::ostream& out, const RandomForest& forest,
                 const std::vector<std::string>& feature_names);

struct LoadedForest {
  RandomForest forest;
  std::vector<std::string> feature_names;
};

// Reads a forest previously written by save_forest. Throws
// std::runtime_error on format errors or version mismatch, and on any
// tree a walk could leave or loop in: an internal node whose feature is
// not below the feature count, or whose children are not both after it
// and inside its tree.
LoadedForest load_forest(std::istream& in);

// File-path convenience wrappers.
void save_forest_file(const std::string& path, const RandomForest& forest,
                      const std::vector<std::string>& feature_names);
LoadedForest load_forest_file(const std::string& path);

}  // namespace opprentice::ml
