// Id-indexed row storage in fixed-size chunks (DESIGN.md §8).
//
// A chunk is reserved once and never reallocates, so a row never moves:
// pointers, references and views into a row stay valid while rows are
// appended, and growth copies nothing. A doubling vector would copy every
// row and briefly hold 1.5x the store. Rows are never removed; a store
// that retires ids empties the row in place.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace heus::common {

template <typename T>
class Rows {
 public:
  Rows() = default;
  // A copied chunk would lose its reserved capacity, and the next append
  // could move its rows.
  Rows(const Rows&) = delete;
  Rows& operator=(const Rows&) = delete;
  Rows(Rows&&) noexcept = default;
  Rows& operator=(Rows&&) noexcept = default;

  [[nodiscard]] std::size_t size() const {
    if (chunks_.empty()) return 0;
    return (chunks_.size() - 1) * kChunk + chunks_.back().size();
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return chunks_[i / kChunk][i % kChunk];
  }
  T& operator[](std::size_t i) { return chunks_[i / kChunk][i % kChunk]; }
  T& push_back(T row) {
    if (size() % kChunk == 0) chunks_.emplace_back().reserve(kChunk);
    return chunks_.back().emplace_back(std::move(row));
  }

 private:
  static constexpr std::size_t kChunk = 4096;
  std::vector<std::vector<T>> chunks_;
};

}  // namespace heus::common
