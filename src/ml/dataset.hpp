// Column-major labeled dataset for the classifiers.
//
// Rows are data points, columns are detector-configuration severities
// (features), labels are the operators' 0/1 anomaly marks.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace opprentice::ml {

class Dataset {
 public:
  Dataset() = default;
  Dataset(std::vector<std::string> feature_names,
          std::vector<std::vector<double>> columns,
          std::vector<std::uint8_t> labels);

  std::size_t num_rows() const { return labels_.size(); }
  std::size_t num_features() const { return columns_.size(); }
  bool empty() const { return labels_.empty(); }

  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }
  const std::vector<std::vector<double>>& columns() const { return columns_; }
  std::span<const double> column(std::size_t f) const { return columns_[f]; }
  const std::vector<std::uint8_t>& labels() const { return labels_; }
  std::uint8_t label(std::size_t i) const { return labels_[i]; }

  double value(std::size_t row, std::size_t feature) const {
    return columns_[feature][row];
  }

  std::vector<double> row(std::size_t i) const;

  // Number of anomaly-labeled rows.
  std::size_t positives() const;

  // Rows [begin, end).
  Dataset slice(std::size_t begin, std::size_t end) const;

  // Keeps only the given feature columns, in the given order.
  Dataset select_features(const std::vector<std::size_t>& features) const;

  // Keeps only the given rows, in the given order.
  Dataset select_rows(const std::vector<std::size_t>& rows) const;

 private:
  std::vector<std::string> feature_names_;
  std::vector<std::vector<double>> columns_;  // [feature][row]
  std::vector<std::uint8_t> labels_;          // [row]
};

// Interface shared by all binary anomaly classifiers (§5.3.2 compares
// random forests against decision trees, logistic regression, linear SVM,
// and naive Bayes). score() is an anomaly score ascending with anomaly
// likelihood; probabilistic models return values in [0, 1].
class BinaryClassifier {
 public:
  virtual ~BinaryClassifier() = default;

  virtual std::string name() const = 0;

  // Trains from scratch on the dataset. Throws std::invalid_argument if
  // the dataset is empty or single-class where the model cannot cope.
  virtual void train(const Dataset& data) = 0;

  virtual bool is_trained() const = 0;

  // Anomaly score of one feature vector (size == num_features at train).
  virtual double score(std::span<const double> features) const = 0;

  // Scores every row of the dataset. Virtual so models with a cheap
  // parallel batch path (the random forest) can override; the default
  // scores rows serially.
  virtual std::vector<double> score_all(const Dataset& data) const;
};

}  // namespace opprentice::ml
