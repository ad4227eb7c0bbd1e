// Fixed-capacity ring buffer for detectors that need a sliding window of
// recent points (lags, moving averages, SVD/wavelet windows).
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

namespace opprentice::detectors {

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity)
      : capacity_(capacity), data_(capacity) {
    if (capacity == 0) {
      throw std::invalid_argument("RingBuffer: capacity must be positive");
    }
  }

  void push(T value) {
    data_[head_] = value;
    head_ = (head_ + 1) % capacity_;
    if (size_ < capacity_) ++size_;
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  bool full() const { return size_ == capacity_; }

  // Element pushed `age` steps ago; age 0 = most recent. Requires age < size.
  const T& back(std::size_t age = 0) const {
    if (age >= size_) throw std::out_of_range("RingBuffer::back");
    return data_[(head_ + capacity_ - 1 - age) % capacity_];
  }

  // Copies contents oldest-first into `out` (resized to size()).
  void copy_ordered(std::vector<T>& out) const {
    // Allocates only until `out` first reaches the window size.
    out.resize(size_);
    for (std::size_t i = 0; i < size_; ++i) {
      out[i] = data_[(head_ + capacity_ - size_ + i) % capacity_];
    }
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  std::size_t capacity_;
  std::vector<T> data_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace opprentice::detectors
