#ifndef SOPS_CORE_CHUNK_FENWICK_HPP
#define SOPS_CORE_CHUNK_FENWICK_HPP

/// \file chunk_fenwick.hpp
/// Small non-negative integer weights of a sequence of items, summed per
/// 64-item chunk under one Fenwick tree: the item holding the rank-th
/// unit of weight is found by an O(log n) descent to its chunk, then a
/// scan of that chunk's items, which the caller weighs itself.  Items are
/// found by their position in the sequence, never by insertion order, so
/// a rebuilt tree finds what an incrementally kept one finds.  Algorithm
/// A's rejection-free index keeps its candidate masses in one
/// (amoebot/rejection_free.hpp).

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sops::core {

class ChunkFenwick {
 public:
  static constexpr std::size_t kChunk = 64;

  /// `items` items of weight zero.  Weights then go in through
  /// addBeforeBuild() and build(), or one by one through add().
  void reset(std::size_t items) {
    chunks_ = (items + kChunk - 1) / kChunk;
    sums_.assign(chunks_, 0);
    tree_.assign(chunks_ + 1, 0);
  }

  /// Adds `weight` to item i's chunk sum only; build() makes the tree.
  void addBeforeBuild(std::size_t item, int weight) noexcept {
    sums_[item / kChunk] =
        static_cast<std::uint16_t>(sums_[item / kChunk] + weight);
  }

  /// The tree from the chunk sums, in O(chunks).
  void build() noexcept {
    tree_.assign(chunks_ + 1, 0);
    for (std::size_t j = 1; j <= chunks_; ++j) {
      tree_[j] += sums_[j - 1];
      const std::size_t parent = j + (j & (~j + 1));
      if (parent <= chunks_) tree_[parent] += tree_[j];
    }
  }

  /// Adds `delta` to item i's weight.
  void add(std::size_t item, int delta) noexcept {
    const std::size_t chunk = item / kChunk;
    sums_[chunk] = static_cast<std::uint16_t>(sums_[chunk] + delta);
    for (std::size_t j = chunk + 1; j <= chunks_; j += j & (~j + 1)) {
      tree_[j] = static_cast<std::uint32_t>(
          static_cast<std::int64_t>(tree_[j]) + delta);
    }
  }

  [[nodiscard]] std::size_t chunks() const noexcept { return chunks_; }
  [[nodiscard]] std::uint16_t chunkSum(std::size_t chunk) const noexcept {
    return sums_[chunk];
  }

  /// The chunk holding the rank-th unit of weight (rank below the total):
  /// its first item, and the rank within the chunk.
  struct Position {
    std::size_t first;
    std::uint32_t rank;
  };
  [[nodiscard]] Position descend(std::uint32_t rank) const noexcept {
    std::size_t pos = 0;
    for (std::size_t step = std::bit_floor(chunks_); step != 0; step >>= 1) {
      if (pos + step <= chunks_ && tree_[pos + step] <= rank) {
        pos += step;
        rank -= tree_[pos];
      }
    }
    return {pos * kChunk, rank};
  }

  [[nodiscard]] std::size_t memoryBytes() const noexcept {
    return sums_.capacity() * sizeof(std::uint16_t) +
           tree_.capacity() * sizeof(std::uint32_t);
  }

  bool operator==(const ChunkFenwick&) const = default;

 private:
  std::size_t chunks_ = 0;
  std::vector<std::uint16_t> sums_;  ///< weight per 64-item chunk
  std::vector<std::uint32_t> tree_;  ///< 1-based Fenwick tree over sums_
};

}  // namespace sops::core

#endif  // SOPS_CORE_CHUNK_FENWICK_HPP
