// Fixed-capacity ring buffer for detectors that need a sliding window of
// recent points (lags, moving averages, SVD/wavelet windows).
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

namespace opprentice::detectors {

// Every value is written twice, at its slot and one capacity further on,
// so the held values are always one contiguous run, oldest first: a
// window is read in place, with no copy and no modulo per element.
template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity)
      : capacity_(capacity), data_(2 * capacity) {
    if (capacity == 0) {
      throw std::invalid_argument("RingBuffer: capacity must be positive");
    }
  }

  void push(T value) {
    data_[head_] = value;
    data_[head_ + capacity_] = value;
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    if (size_ < capacity_) ++size_;
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  bool full() const { return size_ == capacity_; }

  // Element pushed `age` steps ago; age 0 = most recent. Requires age < size.
  const T& back(std::size_t age = 0) const {
    if (age >= size_) throw std::out_of_range("RingBuffer::back");
    return data_[head_ + capacity_ - 1 - age];
  }

  // The held values, oldest first; valid until the next push or clear.
  std::span<const T> window() const {
    return std::span<const T>(data_).subspan(head_ + capacity_ - size_,
                                             size_);
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  std::size_t capacity_;
  std::vector<T> data_;
  std::size_t head_ = 0;  // where the next value goes, in [0, capacity)
  std::size_t size_ = 0;
};

}  // namespace opprentice::detectors
