// Copyright 2026 The QPGC Authors.

#include "util/hash.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace qpgc {
namespace {

std::vector<uint64_t> RandomWords(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> words(n);
  for (uint64_t& w : words) w = rng.Next();
  return words;
}

TEST(HashWordsTest, EqualInputsHashEqual) {
  for (size_t n = 1; n <= 9; ++n) {
    const std::vector<uint64_t> a = RandomWords(n, n);
    const std::vector<uint64_t> b = a;  // same content, other address
    EXPECT_EQ(HashWords(a.data(), n), HashWords(b.data(), n)) << n;
    const std::vector<uint64_t> zeros(n, 0);
    EXPECT_EQ(HashWords(zeros.data(), n),
              HashWords(std::vector<uint64_t>(n, 0).data(), n))
        << n;
  }
}

// Each lane step is a bijection of its accumulator and of the word it
// reads, so changing one word always changes the hash: checked here for
// every single-bit flip of inputs of 1..9 words (all lanes and the tail).
TEST(HashWordsTest, EverySingleBitFlipChangesTheHash) {
  for (size_t n = 1; n <= 9; ++n) {
    std::vector<uint64_t> words = RandomWords(n, 100 + n);
    const uint64_t base = HashWords(words.data(), n);
    for (size_t i = 0; i < n; ++i) {
      for (int bit = 0; bit < 64; ++bit) {
        words[i] ^= uint64_t{1} << bit;
        EXPECT_NE(HashWords(words.data(), n), base)
            << "n=" << n << " word=" << i << " bit=" << bit;
        words[i] ^= uint64_t{1} << bit;
      }
    }
  }
}

TEST(HashWordsTest, LengthIsPartOfTheHash) {
  const std::vector<uint64_t> zeros(9, 0);
  for (size_t n = 1; n < 9; ++n) {
    EXPECT_NE(HashWords(zeros.data(), n), HashWords(zeros.data(), n + 1))
        << n;
  }
}

}  // namespace
}  // namespace qpgc
