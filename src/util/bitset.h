// Copyright 2026 The QPGC Authors.
//
// A dynamic bitset sized at runtime, with the block-level operations the
// compression algorithms need: word access for hashing/equality of ranges,
// bulk OR (closure propagation), and fast iteration over set bits.

#ifndef QPGC_UTIL_BITSET_H_
#define QPGC_UTIL_BITSET_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <vector>

#include "util/common.h"

namespace qpgc {

/// Runtime-sized bitset backed by 64-bit words.
class Bitset {
 public:
  using Word = uint64_t;
  static constexpr size_t kWordBits = 64;

  Bitset() = default;
  /// Creates a bitset with `n` bits, all clear.
  explicit Bitset(size_t n) : n_bits_(n), words_((n + kWordBits - 1) / kWordBits, 0) {}

  /// Number of addressable bits.
  size_t size() const { return n_bits_; }
  /// Number of backing words.
  size_t num_words() const { return words_.size(); }

  /// Resizes to `n` bits; newly added bits are clear.
  void Resize(size_t n) {
    n_bits_ = n;
    words_.resize((n + kWordBits - 1) / kWordBits, 0);
    ClearTail();
  }

  void Set(size_t i) {
    QPGC_DCHECK(i < n_bits_);
    words_[i / kWordBits] |= Word{1} << (i % kWordBits);
  }
  void Clear(size_t i) {
    QPGC_DCHECK(i < n_bits_);
    words_[i / kWordBits] &= ~(Word{1} << (i % kWordBits));
  }
  bool Test(size_t i) const {
    QPGC_DCHECK(i < n_bits_);
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1;
  }

  /// Clears all bits without changing the size.
  void Reset() { std::memset(words_.data(), 0, words_.size() * sizeof(Word)); }

  /// Sets all bits.
  void Fill() {
    std::memset(words_.data(), 0xff, words_.size() * sizeof(Word));
    ClearTail();
  }

  /// this |= other. Sizes must match.
  void OrWith(const Bitset& other) {
    QPGC_DCHECK(other.n_bits_ == n_bits_);
    const Word* src = other.words_.data();
    Word* dst = words_.data();
    for (size_t i = 0; i < words_.size(); ++i) dst[i] |= src[i];
  }

  /// this &= other. Sizes must match.
  void AndWith(const Bitset& other) {
    QPGC_DCHECK(other.n_bits_ == n_bits_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  }

  /// this &= ~other. Sizes must match.
  void AndNotWith(const Bitset& other) {
    QPGC_DCHECK(other.n_bits_ == n_bits_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
  }

  /// Number of set bits.
  size_t Count() const {
    size_t c = 0;
    for (Word w : words_) c += static_cast<size_t>(std::popcount(w));
    return c;
  }

  /// True if no bit is set.
  bool None() const {
    for (Word w : words_) {
      if (w != 0) return false;
    }
    return true;
  }

  bool operator==(const Bitset& other) const {
    return n_bits_ == other.n_bits_ && words_ == other.words_;
  }

  /// Calls `fn(i)` for every set bit `i` in ascending order.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      Word w = words_[wi];
      while (w != 0) {
        const int b = std::countr_zero(w);
        fn(wi * kWordBits + static_cast<size_t>(b));
        w &= w - 1;
      }
    }
  }

  /// Collects set bits into a vector of NodeId.
  std::vector<NodeId> ToVector() const {
    std::vector<NodeId> out;
    out.reserve(Count());
    ForEachSetBit([&](size_t i) { out.push_back(static_cast<NodeId>(i)); });
    return out;
  }

  /// Raw word storage, e.g. for hashing or exact-bytes partition refinement.
  const Word* words() const { return words_.data(); }
  Word* mutable_words() { return words_.data(); }

  /// Read-only view of the raw bytes (exact content; tail bits are zero).
  std::string_view BytesView() const {
    return std::string_view(reinterpret_cast<const char*>(words_.data()),
                            words_.size() * sizeof(Word));
  }

  /// Heap bytes held by this bitset (for memory accounting).
  size_t MemoryBytes() const { return words_.capacity() * sizeof(Word); }

 private:
  // Keeps bits past n_bits_ zero so that word-level equality and hashing are
  // well defined.
  void ClearTail() {
    const size_t tail = n_bits_ % kWordBits;
    if (tail != 0 && !words_.empty()) {
      words_.back() &= (Word{1} << tail) - 1;
    }
  }

  size_t n_bits_ = 0;
  std::vector<Word> words_;
};

/// A rectangular array of bitsets (rows of equal width), stored contiguously.
/// Used for blocked transitive-closure computation where `rows` nodes each
/// track reachability into a block of `cols` target nodes.
class BitMatrix {
 public:
  using Word = Bitset::Word;

  BitMatrix() = default;
  BitMatrix(size_t rows, size_t cols)
      : rows_(rows),
        cols_(cols),
        words_per_row_((cols + Bitset::kWordBits - 1) / Bitset::kWordBits),
        data_(rows * words_per_row_, 0) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t words_per_row() const { return words_per_row_; }

  void Reset() { std::memset(data_.data(), 0, data_.size() * sizeof(Word)); }

  void Set(size_t r, size_t c) {
    QPGC_DCHECK(r < rows_ && c < cols_);
    Row(r)[c / Bitset::kWordBits] |= Word{1} << (c % Bitset::kWordBits);
  }
  bool Test(size_t r, size_t c) const {
    QPGC_DCHECK(r < rows_ && c < cols_);
    return (Row(r)[c / Bitset::kWordBits] >> (c % Bitset::kWordBits)) & 1;
  }

  /// row(dst) |= row(src).
  void OrRowInto(size_t src, size_t dst) {
    const Word* s = Row(src);
    Word* d = Row(dst);
    for (size_t i = 0; i < words_per_row_; ++i) d[i] |= s[i];
  }

  Word* Row(size_t r) { return data_.data() + r * words_per_row_; }
  const Word* Row(size_t r) const { return data_.data() + r * words_per_row_; }

  /// The exact words of a row (bits past `cols` are zero), for partition
  /// refinement keyed on row content.
  std::span<const Word> RowWords(size_t r) const {
    return {Row(r), words_per_row_};
  }

  size_t MemoryBytes() const { return data_.capacity() * sizeof(Word); }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  size_t words_per_row_ = 0;
  std::vector<Word> data_;
};

}  // namespace qpgc

#endif  // QPGC_UTIL_BITSET_H_
