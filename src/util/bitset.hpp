#pragma once
// Packed 64-bit bitsets for candidate-domain algebra.
//
// NETEMBED's eq.-2 candidate computation is set intersection over host-node
// domains; represented as packed words it becomes one AND per 64 host nodes
// plus a ctz-driven walk over the surviving bits. Bitset is the dynamic
// single-row flavour used for per-search scratch state (`used_`, the
// per-depth intersection accumulator); BitMatrix packs a family of
// equal-width rows contiguously (node viability, per-cell filter rows) so a
// row is a plain word span that other bitsets can AND against.
//
// All word-level operations preserve the invariant that bits at positions
// >= size() in the last word are zero, so forEachSet() never sees ghost
// bits and row-vs-row operations on equal-sized operands are exact.
//
// The word loops are util::simd's portable kernels, inlined here.

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/simd.hpp"

namespace netembed::util {

inline constexpr std::size_t kBitsPerWord = 64;

[[nodiscard]] inline constexpr std::size_t wordsForBits(std::size_t bits) noexcept {
  return (bits + kBitsPerWord - 1) / kBitsPerWord;
}

/// Test bit `i` of a raw word row (e.g. a BitMatrix row span).
[[nodiscard]] inline bool testBit(std::span<const std::uint64_t> words,
                                  std::size_t i) noexcept {
  return (words[i / kBitsPerWord] >> (i % kBitsPerWord)) & 1u;
}

/// Invoke `fn(index)` for every set bit of `words` in ascending order.
template <typename Fn>
inline void forEachSetBit(std::span<const std::uint64_t> words, Fn&& fn) {
  for (std::size_t w = 0; w < words.size(); ++w) {
    std::uint64_t word = words[w];
    while (word != 0) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(word));
      fn(w * kBitsPerWord + bit);
      word &= word - 1;  // clear lowest set bit
    }
  }
}

/// Dynamically-sized bitset over [0, size()) with word-parallel set algebra.
class Bitset {
 public:
  Bitset() = default;
  explicit Bitset(std::size_t bits) { assign(bits); }

  /// Resize to `bits` positions, all cleared.
  void assign(std::size_t bits) {
    bits_ = bits;
    words_.assign(wordsForBits(bits), 0);
  }

  [[nodiscard]] std::size_t size() const noexcept { return bits_; }
  [[nodiscard]] std::size_t wordCount() const noexcept { return words_.size(); }
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return words_;
  }

  [[nodiscard]] bool test(std::size_t i) const noexcept {
    assert(i < bits_);
    return (words_[i / kBitsPerWord] >> (i % kBitsPerWord)) & 1u;
  }
  void set(std::size_t i) noexcept {
    assert(i < bits_);
    words_[i / kBitsPerWord] |= std::uint64_t{1} << (i % kBitsPerWord);
  }
  void reset(std::size_t i) noexcept {
    assert(i < bits_);
    words_[i / kBitsPerWord] &= ~(std::uint64_t{1} << (i % kBitsPerWord));
  }

  void clearAll() noexcept {
    for (auto& w : words_) w = 0;
  }

  /// this &= row. Returns true when any bit survives (cheap emptiness check
  /// folded into the pass so callers can stop intersecting a dead set).
  bool andWith(std::span<const std::uint64_t> row) noexcept {
    assert(row.size() == words_.size());
    return simd::andInto(words_.data(), row.data(), words_.size()) != 0;
  }

  /// this = a & ~b — the fused "viable minus used" seed (one pass where a
  /// copy and an and-not would take two).
  void assignAndNot(std::span<const std::uint64_t> a, const Bitset& b) noexcept {
    assert(a.size() == words_.size() && b.wordCount() == words_.size());
    simd::copyAndNot(words_.data(), a.data(), b.words().data(), words_.size());
  }

  /// this = a & b & ~c, returning true when any bit survives — the fused
  /// first-constrainer intersection with viability and the used-set folded
  /// into the same pass.
  bool assignAndAndNot(std::span<const std::uint64_t> a,
                       std::span<const std::uint64_t> b, const Bitset& c) noexcept {
    assert(a.size() == words_.size() && b.size() == words_.size() &&
           c.wordCount() == words_.size());
    return simd::copyAndAndNot(words_.data(), a.data(), b.data(),
                               c.words().data(), words_.size()) != 0;
  }

  /// Invoke `fn(index)` for every set bit in ascending order.
  template <typename Fn>
  void forEachSet(Fn&& fn) const {
    forEachSetBit(words(), std::forward<Fn>(fn));
  }

  friend bool operator==(const Bitset&, const Bitset&) = default;

 private:
  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

/// A rows() x cols() bit matrix stored as contiguous word rows; row(r) is a
/// span other bitsets AND against without copying.
class BitMatrix {
 public:
  BitMatrix() = default;
  BitMatrix(std::size_t rows, std::size_t cols) { assign(rows, cols); }

  /// Resize to rows x cols, all bits cleared.
  void assign(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    wordsPerRow_ = wordsForBits(cols);
    words_.assign(rows * wordsPerRow_, 0);
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t wordsPerRow() const noexcept { return wordsPerRow_; }
  [[nodiscard]] bool empty() const noexcept { return rows_ == 0; }

  [[nodiscard]] std::span<const std::uint64_t> row(std::size_t r) const noexcept {
    assert(r < rows_);
    return {words_.data() + r * wordsPerRow_, wordsPerRow_};
  }
  /// Mutable row access for builders (rows are disjoint word ranges, so
  /// distinct rows may be filled from different threads).
  [[nodiscard]] std::uint64_t* rowData(std::size_t r) noexcept {
    assert(r < rows_);
    return words_.data() + r * wordsPerRow_;
  }

  [[nodiscard]] bool test(std::size_t r, std::size_t c) const noexcept {
    assert(r < rows_ && c < cols_);
    return (words_[r * wordsPerRow_ + c / kBitsPerWord] >> (c % kBitsPerWord)) & 1u;
  }
  void set(std::size_t r, std::size_t c) noexcept {
    assert(r < rows_ && c < cols_);
    words_[r * wordsPerRow_ + c / kBitsPerWord] |= std::uint64_t{1}
                                                   << (c % kBitsPerWord);
  }
  void reset(std::size_t r, std::size_t c) noexcept {
    assert(r < rows_ && c < cols_);
    words_[r * wordsPerRow_ + c / kBitsPerWord] &=
        ~(std::uint64_t{1} << (c % kBitsPerWord));
  }
  /// Write one bit (named distinctly from assign(rows, cols), which resizes).
  void setTo(std::size_t r, std::size_t c, bool value) noexcept {
    value ? set(r, c) : reset(r, c);
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t wordsPerRow_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace netembed::util
