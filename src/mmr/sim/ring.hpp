// FIFO ring over a power-of-two slot array: push_back / pop_front are an
// index mask, never an allocation, once the ring has grown (by doubling,
// order preserved) to its queue's high-water mark.  The credit-return and
// link queues sit on the router's per-cycle path and hold a handful of
// entries, so they need neither a block map nor per-push allocation.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <vector>

#include "mmr/sim/assert.hpp"

namespace mmr {

template <class T>
class Ring {
 public:
  /// Room for at least `capacity` entries before the first growth.
  explicit Ring(std::size_t capacity = 1)
      : slots_(std::bit_ceil(std::max<std::size_t>(capacity, 1))) {}

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// The `k`-th entry from the front.
  [[nodiscard]] T& operator[](std::size_t k) {
    return slots_[(head_ + k) & (slots_.size() - 1)];
  }
  [[nodiscard]] const T& operator[](std::size_t k) const {
    return slots_[(head_ + k) & (slots_.size() - 1)];
  }
  [[nodiscard]] T& front() { return (*this)[0]; }
  [[nodiscard]] const T& front() const { return (*this)[0]; }
  [[nodiscard]] const T& back() const { return (*this)[size_ - 1]; }

  void push_back(const T& item) {
    if (size_ == slots_.size()) grow();
    (*this)[size_] = item;
    ++size_;
  }

  void pop_front() {
    MMR_ASSERT(size_ > 0);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

  /// Removes every entry `pred` holds for, keeping the others in order;
  /// returns how many went.
  template <class Pred>
  std::size_t erase_if(Pred pred) {
    std::size_t kept = 0;
    for (std::size_t k = 0; k < size_; ++k) {
      if (pred((*this)[k])) continue;
      if (kept != k) (*this)[kept] = (*this)[k];
      ++kept;
    }
    const std::size_t removed = size_ - kept;
    size_ = kept;
    return removed;
  }

 private:
  void grow() {
    std::vector<T> bigger(slots_.size() * 2);
    for (std::size_t k = 0; k < size_; ++k) bigger[k] = (*this)[k];
    slots_.swap(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace mmr
