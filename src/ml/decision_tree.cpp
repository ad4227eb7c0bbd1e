#include "ml/decision_tree.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <sstream>
#include <stack>
#include <stdexcept>

namespace opprentice::ml {
namespace {

constexpr std::size_t kNumBins = 256;
constexpr std::uint64_t kLowHalf = 0xFFFFFFFFull;

// A distinct sampled row and its bootstrap count, packed with its
// positive count: count in the low half, count * label in the high half.
// Sums of packed values are two 32-bit sums side by side.
struct Sample {
  std::uint64_t packed;
  std::uint32_t row;
};

struct SplitCandidate {
  double gain = 0.0;
  std::size_t feature = 0;
  std::uint8_t code = 0;       // go left when bin <= code
  bool valid = false;
  std::uint64_t left = 0;      // the left side's packed sums
};

// The split search of one tree, per candidate feature of a node: fill a
// histogram of packed sums over the node's samples, then list one
// candidate per occupied bin below the highest occupied one, in bin
// order, with the left side's sums up to and including that bin. An
// empty bin would repeat the previous candidate exactly, and a repeat
// never beats the best by more than 1e-15, so skipping it changes no
// split. Between features every histogram is all zero: each scan clears
// exactly the bins it filled.
class SplitScan {
 public:
  // Nodes of at most this many distinct sampled rows visit only their
  // occupied bins; larger ones fill kLanes histograms and scan every bin
  // between their lowest and highest occupied one (DESIGN.md §5d).
  static constexpr std::size_t kSparseRows = 128;
  static constexpr std::size_t kLanes = 4;

  // One entry per candidate: the split's bin, and the left side's size,
  // positives and gain.
  std::array<std::uint8_t, kNumBins> split_code{};
  std::array<double, kNumBins> left_total{};
  std::array<double, kNumBins> left_pos{};
  std::array<double, kNumBins> gain{};

  // Fills one histogram and a bitmap of its occupied bins, then walks
  // the set bits in ascending order. Returns the candidate count.
  std::size_t sparse(const std::uint8_t* codes, const Sample* first,
                     const Sample* last) {
    std::array<std::uint64_t, kNumBins / 64> occupied{};
    std::array<std::uint64_t, kNumBins>& h = hist_[0];
    for (const Sample* s = first; s != last; ++s) {
      const std::uint8_t code = codes[s->row];
      h[code] += s->packed;
      occupied[code >> 6] |= std::uint64_t{1} << (code & 63);
    }
    std::size_t k = 0;
    std::uint64_t left = 0;
    for (std::size_t w = 0; w < occupied.size(); ++w) {
      for (std::uint64_t bits = occupied[w]; bits != 0; bits &= bits - 1) {
        const std::size_t b =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        left += h[b];
        h[b] = 0;
        record(k++, b, left);
      }
    }
    return k - 1;  // the highest occupied bin leaves the right side empty
  }

  // Fills kLanes histograms in turn, so runs of samples in one bin do not
  // wait on one counter, and scans the bins between the lowest and the
  // highest occupied one, each bin the sum of its lanes (integer sums, in
  // any order). Returns the candidate count.
  std::size_t interleaved(const std::uint8_t* codes, const Sample* first,
                          const Sample* last, std::size_t bins) {
    auto& [h0, h1, h2, h3] = hist_;
    const Sample* s = first;
    for (; last - s >= 4; s += 4) {
      h0[codes[s[0].row]] += s[0].packed;
      h1[codes[s[1].row]] += s[1].packed;
      h2[codes[s[2].row]] += s[2].packed;
      h3[codes[s[3].row]] += s[3].packed;
    }
    for (; s != last; ++s) h0[codes[s->row]] += s->packed;
    const auto bin = [&](std::size_t b) {
      return h0[b] + h1[b] + h2[b] + h3[b];
    };
    std::size_t max_code = bins - 1;
    while (max_code > 0 && bin(max_code) == 0) --max_code;
    std::size_t min_code = 0;
    while (bin(min_code) == 0) ++min_code;
    // Every bin is written to the next free slot, which only an occupied
    // bin claims: no branch on the occupancy.
    std::size_t k = 0;
    std::uint64_t left = 0;
    for (std::size_t b = min_code; b < max_code; ++b) {
      const std::uint64_t sum = bin(b);
      left += sum;
      record(k, b, left);
      k += sum != 0 ? 1 : 0;
    }
    for (auto& lane : hist_) {
      std::fill(lane.begin() + static_cast<std::ptrdiff_t>(min_code),
                lane.begin() + static_cast<std::ptrdiff_t>(max_code) + 1,
                std::uint64_t{0});
    }
    return k;
  }

  // Candidate k's left side as packed sums; both halves are below 2^32,
  // so their doubles hold them exactly.
  std::uint64_t left_sums(std::size_t k) const {
    return static_cast<std::uint64_t>(left_pos[k]) << 32 |
           static_cast<std::uint64_t>(left_total[k]);
  }

 private:
  void record(std::size_t k, std::size_t code, std::uint64_t left) {
    split_code[k] = static_cast<std::uint8_t>(code);
    left_total[k] = static_cast<double>(static_cast<std::uint32_t>(left));
    left_pos[k] = static_cast<double>(static_cast<std::uint32_t>(left >> 32));
  }

  std::array<std::array<std::uint64_t, kNumBins>, kLanes> hist_{};
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
  const std::vector<std::uint32_t> counts(data.num_rows(), 1);
  train_binned(binned, counts);
}

void DecisionTree::train_binned(const BinnedDataset& data,
                                std::span<const std::uint32_t> counts) {
  if (counts.size() != data.num_rows()) {
    throw std::invalid_argument(
        "DecisionTree::train_binned: need one count per row");
  }
  const std::size_t num_features = data.num_features();
  if (num_features > FlatNode::kMaxFeatures) {
    throw std::invalid_argument(
        "DecisionTree::train_binned: more features than a node can index");
  }
  // The tree grows over the distinct sampled rows only. A node's size,
  // its positives and every histogram bin are sums of counts, the same
  // integers the duplicated rows would sum to, so every split, leaf and
  // draw of rng_ is the same as growing over the duplicates.
  std::vector<Sample> samples;
  samples.reserve(static_cast<std::size_t>(std::count_if(
      counts.begin(), counts.end(), [](std::uint32_t c) { return c != 0; })));
  std::uint64_t total = 0;
  std::uint64_t root_sums = 0;
  for (std::size_t r = 0; r < counts.size(); ++r) {
    if (counts[r] == 0) continue;
    total += counts[r];
    const std::uint64_t count = counts[r];
    samples.push_back(
        {count | (count * data.label(r)) << 32, static_cast<std::uint32_t>(r)});
    root_sums += samples.back().packed;
  }
  if (samples.empty()) {
    throw std::invalid_argument("DecisionTree::train_binned: no rows");
  }
  if (total > kLowHalf) {
    throw std::invalid_argument(
        "DecisionTree::train_binned: counts sum past 32 bits");
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
    // Packed sums of samples [begin, end): the root's are summed once,
    // a child's are its side of the parent's split.
    std::uint64_t sums;
  };
  std::stack<WorkItem> work;
  work.push({0, false, 0, samples.size(), 0, root_sums});

  // Every feature, or the buffer each node's random subset is drawn into.
  std::vector<std::size_t> candidates(num_features);
  std::iota(candidates.begin(), candidates.end(), std::size_t{0});
  SplitScan scan;

  while (!work.empty()) {
    const WorkItem item = work.top();
    work.pop();
    const std::size_t at = grown.size();
    if (item.is_left) left_child[item.parent] = at;

    const std::uint64_t n = item.sums & kLowHalf;
    const std::uint64_t positives = item.sums >> 32;
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
    if (mtry != num_features) {
      rng_.sample_without_replacement(num_features, mtry, candidates);
    }

    const double node_total = static_cast<double>(n);
    const double node_pos = static_cast<double>(positives);
    const double parent_gini = gini(node_pos, node_total);
    SplitCandidate best;

    const Sample* first = samples.data() + item.begin;
    const Sample* last = samples.data() + item.end;
    for (std::size_t f : candidates) {
      const std::uint8_t* codes = data.codes(f).data();
      const std::size_t occupied =
          item.end - item.begin <= SplitScan::kSparseRows
              ? scan.sparse(codes, first, last)
              : scan.interleaved(codes, first, last,
                                 std::min(data.binner(f).num_bins(), kNumBins));
      // Each gain on its own, in the expression order of gini(): both
      // sides are non-empty, so neither total is zero.
      for (std::size_t k = 0; k < occupied; ++k) {
        const double left_total = scan.left_total[k];
        const double left_pos = scan.left_pos[k];
        const double right_total = node_total - left_total;
        const double right_pos = node_pos - left_pos;
        const double p_left = left_pos / left_total;
        const double p_right = right_pos / right_total;
        const double weighted =
            (left_total * (2.0 * p_left * (1.0 - p_left)) +
             right_total * (2.0 * p_right * (1.0 - p_right))) /
            node_total;
        scan.gain[k] = parent_gini - weighted;
      }
      for (std::size_t k = 0; k < occupied; ++k) {
        if (scan.gain[k] > best.gain + 1e-15) {
          best.gain = scan.gain[k];
          best.feature = f;
          best.code = scan.split_code[k];
          best.left = scan.left_sums(k);
          best.valid = true;
        }
      }
    }

    if (!best.valid) continue;  // all candidate features constant here

    importances_[best.feature] += best.gain * node_total;

    // Partition the samples in place: left side first.
    const std::uint8_t* codes = data.codes(best.feature).data();
    auto middle = std::partition(
        samples.begin() + static_cast<std::ptrdiff_t>(item.begin),
        samples.begin() + static_cast<std::ptrdiff_t>(item.end),
        [&](const Sample& s) { return codes[s.row] <= best.code; });
    const std::size_t mid =
        static_cast<std::size_t>(middle - samples.begin());

    FlatNode& node = grown[at];
    node.feature = static_cast<std::uint8_t>(best.feature);
    node.value = data.binner(best.feature).upper_edge(best.code);

    work.push({at, true, item.begin, mid, item.depth + 1, best.left});
    work.push({at, false, mid, item.end, item.depth + 1,
               item.sums - best.left});
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
