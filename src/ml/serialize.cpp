#include "ml/serialize.hpp"

#include <charconv>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace opprentice::ml {
namespace {

constexpr const char* kMagic = "opprentice-forest";
constexpr const char* kVersion = "v2";

// Feature names may contain spaces in principle; encode them URL-style.
std::string encode_name(const std::string& name) {
  std::string out;
  for (char c : name) {
    if (c == ' ' || c == '%' || c == '\n') {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

// -1 for a non-hex character; no exceptions on a corrupt model file.
int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

std::string decode_name(const std::string& encoded) {
  std::string out;
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    if (encoded[i] == '%' && i + 2 < encoded.size()) {
      const int hi = hex_value(encoded[i + 1]);
      const int lo = hex_value(encoded[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out += static_cast<char>(hi * 16 + lo);
        i += 2;
        continue;
      }
    }
    // A bare or malformed escape passes through unchanged rather than
    // throwing deep inside model loading.
    out += encoded[i];
  }
  return out;
}

// Thresholds can be infinite (an edge between -inf and a finite value)
// or NaN (between -inf and +inf); std::from_chars reads back the "inf",
// "-inf" and "nan" that operator<< writes, where operator>> would fail.
bool parse_double(const std::string& token, double& out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

void save_forest(std::ostream& out, const RandomForest& forest,
                 const std::vector<std::string>& feature_names) {
  if (!forest.is_trained()) {
    throw std::logic_error("save_forest: forest is not trained");
  }
  out << kMagic << ' ' << kVersion << '\n';
  out << "trees " << forest.tree_count() << " features "
      << feature_names.size() << '\n';
  out << "names";
  for (const auto& name : feature_names) out << ' ' << encode_name(name);
  out << '\n';
  out.precision(17);
  for (std::size_t t = 0; t < forest.tree_count(); ++t) {
    const std::span<const FlatNode> nodes = forest.tree_nodes(t);
    out << "tree " << nodes.size() << '\n';
    for (const FlatNode& node : nodes) {
      if (node.is_leaf()) {
        out << "-1 " << node.value << " 0\n";
      } else {
        out << static_cast<unsigned>(node.feature) << ' ' << node.value << ' '
            << node.right << '\n';
      }
    }
  }
}

LoadedForest load_forest(std::istream& in) {
  std::string magic, version, token;
  if (!(in >> magic >> version) || magic != kMagic) {
    throw std::runtime_error("load_forest: not an opprentice forest file");
  }
  if (version != kVersion) {
    throw std::runtime_error("load_forest: unsupported version " + version);
  }
  std::size_t num_trees = 0, num_features = 0;
  if (!(in >> token >> num_trees) || token != "trees" ||
      !(in >> token >> num_features) || token != "features") {
    throw std::runtime_error("load_forest: malformed header");
  }
  if (!(in >> token) || token != "names") {
    throw std::runtime_error("load_forest: missing feature names");
  }
  LoadedForest loaded;
  loaded.feature_names.reserve(num_features);
  for (std::size_t f = 0; f < num_features; ++f) {
    if (!(in >> token)) {
      throw std::runtime_error("load_forest: truncated feature names");
    }
    loaded.feature_names.push_back(decode_name(token));
  }

  if (num_trees == 0) {
    throw std::runtime_error("load_forest: no trees");
  }
  // A tree walk must only ever move forward inside its own tree, so that
  // it ends at a leaf: every internal node's left child (the next node)
  // and right child (`right` further on) lie after it and inside the
  // tree.
  std::vector<FlatNode> nodes;
  std::vector<std::uint32_t> roots;
  for (std::size_t t = 0; t < num_trees; ++t) {
    std::size_t num_nodes = 0;
    if (!(in >> token >> num_nodes) || token != "tree") {
      throw std::runtime_error("load_forest: malformed tree header");
    }
    if (num_nodes == 0) {
      throw std::runtime_error("load_forest: empty tree");
    }
    roots.push_back(static_cast<std::uint32_t>(nodes.size()));
    for (std::size_t i = 0; i < num_nodes; ++i) {
      std::int64_t feature = 0;
      double value = 0.0;
      std::int64_t right = 0;
      if (!(in >> feature >> token >> right)) {
        throw std::runtime_error("load_forest: truncated tree nodes");
      }
      if (!parse_double(token, value)) {
        throw std::runtime_error("load_forest: malformed node value");
      }
      if (feature < 0) {
        nodes.push_back(FlatNode{value, 0, FlatNode::kLeaf});
        continue;
      }
      if (static_cast<std::uint64_t>(feature) >= num_features ||
          static_cast<std::uint64_t>(feature) >= FlatNode::kMaxFeatures) {
        throw std::runtime_error("load_forest: feature index out of range");
      }
      if (right < 2 || static_cast<std::uint64_t>(right) >= num_nodes - i) {
        throw std::runtime_error("load_forest: child offset out of range");
      }
      nodes.push_back(FlatNode{value, static_cast<std::uint32_t>(right),
                               static_cast<std::uint8_t>(feature)});
    }
  }
  loaded.forest.adopt(std::move(nodes), std::move(roots), num_features);
  return loaded;
}

void save_forest_file(const std::string& path, const RandomForest& forest,
                      const std::vector<std::string>& feature_names) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_forest_file: cannot open " + path);
  save_forest(out, forest, feature_names);
}

LoadedForest load_forest_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_forest_file: cannot open " + path);
  return load_forest(in);
}

}  // namespace opprentice::ml
