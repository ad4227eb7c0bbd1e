#include "ml/dataset.hpp"

#include <stdexcept>

namespace opprentice::ml {

Dataset::Dataset(std::vector<std::string> feature_names,
                 std::vector<std::vector<double>> columns,
                 std::vector<std::uint8_t> labels)
    : feature_names_(std::move(feature_names)),
      columns_(std::move(columns)),
      labels_(std::move(labels)) {
  if (feature_names_.size() != columns_.size()) {
    throw std::invalid_argument("Dataset: names/columns size mismatch");
  }
  for (const auto& col : columns_) {
    if (col.size() != labels_.size()) {
      throw std::invalid_argument("Dataset: column/labels size mismatch");
    }
  }
}

std::vector<double> Dataset::row(std::size_t i) const {
  std::vector<double> out(columns_.size());
  for (std::size_t f = 0; f < columns_.size(); ++f) out[f] = columns_[f][i];
  return out;
}

std::size_t Dataset::positives() const {
  std::size_t n = 0;
  for (std::uint8_t y : labels_) n += y;
  return n;
}

Dataset Dataset::slice(std::size_t begin, std::size_t end) const {
  if (begin > end || end > num_rows()) {
    throw std::out_of_range("Dataset::slice: bad range");
  }
  std::vector<std::vector<double>> cols;
  cols.reserve(columns_.size());
  for (const auto& col : columns_) {
    cols.emplace_back(col.begin() + static_cast<std::ptrdiff_t>(begin),
                      col.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return Dataset(feature_names_,
                 std::move(cols),
                 std::vector<std::uint8_t>(
                     labels_.begin() + static_cast<std::ptrdiff_t>(begin),
                     labels_.begin() + static_cast<std::ptrdiff_t>(end)));
}

Dataset Dataset::select_features(
    const std::vector<std::size_t>& features) const {
  std::vector<std::string> names;
  std::vector<std::vector<double>> cols;
  names.reserve(features.size());
  cols.reserve(features.size());
  for (std::size_t f : features) {
    if (f >= columns_.size()) {
      throw std::out_of_range("Dataset::select_features: bad index");
    }
    names.push_back(feature_names_[f]);
    cols.push_back(columns_[f]);
  }
  return Dataset(std::move(names), std::move(cols), labels_);
}

Dataset Dataset::select_rows(const std::vector<std::size_t>& rows) const {
  std::vector<std::vector<double>> cols(columns_.size());
  std::vector<std::uint8_t> labels;
  labels.reserve(rows.size());
  for (std::size_t f = 0; f < columns_.size(); ++f) {
    cols[f].reserve(rows.size());
  }
  for (std::size_t r : rows) {
    if (r >= num_rows()) {
      throw std::out_of_range("Dataset::select_rows: bad index");
    }
    for (std::size_t f = 0; f < columns_.size(); ++f) {
      cols[f].push_back(columns_[f][r]);
    }
    labels.push_back(labels_[r]);
  }
  return Dataset(feature_names_, std::move(cols), std::move(labels));
}

std::vector<double> BinaryClassifier::score_all(const Dataset& data) const {
  std::vector<double> scores(data.num_rows());
  std::vector<double> row(data.num_features());
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    for (std::size_t f = 0; f < data.num_features(); ++f) {
      row[f] = data.value(i, f);
    }
    scores[i] = score(row);
  }
  return scores;
}

}  // namespace opprentice::ml
