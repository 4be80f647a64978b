// Copyright 2026 The QPGC Authors.

#include "util/bitset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace qpgc {
namespace {

TEST(BitsetTest, EmptyHasNoBits) {
  Bitset b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.Count(), 0u);
  EXPECT_TRUE(b.None());
}

TEST(BitsetTest, SetTestClear) {
  Bitset b(130);
  EXPECT_FALSE(b.Test(0));
  b.Set(0);
  b.Set(63);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(63));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(129));
  EXPECT_FALSE(b.Test(1));
  EXPECT_FALSE(b.Test(128));
  EXPECT_EQ(b.Count(), 4u);
  b.Clear(64);
  EXPECT_FALSE(b.Test(64));
  EXPECT_EQ(b.Count(), 3u);
}

TEST(BitsetTest, FillRespectsTail) {
  Bitset b(70);
  b.Fill();
  EXPECT_EQ(b.Count(), 70u);
  // Tail bits beyond size stay zero so word equality is well defined.
  Bitset c(70);
  for (size_t i = 0; i < 70; ++i) c.Set(i);
  EXPECT_EQ(b, c);
}

TEST(BitsetTest, OrAndAndNot) {
  Bitset a(100), b(100);
  a.Set(1);
  a.Set(50);
  b.Set(50);
  b.Set(99);
  Bitset or_ab = a;
  or_ab.OrWith(b);
  EXPECT_TRUE(or_ab.Test(1));
  EXPECT_TRUE(or_ab.Test(50));
  EXPECT_TRUE(or_ab.Test(99));
  EXPECT_EQ(or_ab.Count(), 3u);

  Bitset and_ab = a;
  and_ab.AndWith(b);
  EXPECT_EQ(and_ab.Count(), 1u);
  EXPECT_TRUE(and_ab.Test(50));

  Bitset diff = a;
  diff.AndNotWith(b);
  EXPECT_EQ(diff.Count(), 1u);
  EXPECT_TRUE(diff.Test(1));
}

TEST(BitsetTest, ForEachSetBitAscending) {
  Bitset b(200);
  const std::vector<size_t> bits = {0, 3, 63, 64, 65, 127, 128, 199};
  for (size_t i : bits) b.Set(i);
  std::vector<size_t> seen;
  b.ForEachSetBit([&](size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, bits);
  const std::vector<NodeId> vec = b.ToVector();
  ASSERT_EQ(vec.size(), bits.size());
  for (size_t i = 0; i < bits.size(); ++i) {
    EXPECT_EQ(vec[i], static_cast<NodeId>(bits[i]));
  }
}

TEST(BitsetTest, ResizeKeepsContent) {
  Bitset b(10);
  b.Set(3);
  b.Resize(100);
  EXPECT_TRUE(b.Test(3));
  EXPECT_FALSE(b.Test(64));
  EXPECT_EQ(b.Count(), 1u);
}

TEST(BitsetTest, BytesViewIsExactContent) {
  Bitset a(65), b(65);
  a.Set(64);
  b.Set(64);
  EXPECT_EQ(a.BytesView(), b.BytesView());
  b.Set(0);
  EXPECT_NE(a.BytesView(), b.BytesView());
}

TEST(BitMatrixTest, SetAndTest) {
  BitMatrix m(3, 70);
  m.Set(0, 0);
  m.Set(1, 69);
  m.Set(2, 64);
  EXPECT_TRUE(m.Test(0, 0));
  EXPECT_TRUE(m.Test(1, 69));
  EXPECT_TRUE(m.Test(2, 64));
  EXPECT_FALSE(m.Test(0, 1));
  EXPECT_FALSE(m.Test(2, 63));
}

TEST(BitMatrixTest, OrRowInto) {
  BitMatrix m(2, 130);
  m.Set(0, 5);
  m.Set(0, 128);
  m.Set(1, 7);
  m.OrRowInto(0, 1);
  EXPECT_TRUE(m.Test(1, 5));
  EXPECT_TRUE(m.Test(1, 7));
  EXPECT_TRUE(m.Test(1, 128));
  EXPECT_FALSE(m.Test(0, 7));  // source row untouched
}

TEST(BitMatrixTest, RowWordsDistinguishRows) {
  BitMatrix m(2, 64);
  m.Set(0, 10);
  m.Set(1, 10);
  EXPECT_TRUE(std::ranges::equal(m.RowWords(0), m.RowWords(1)));
  m.Set(1, 11);
  EXPECT_FALSE(std::ranges::equal(m.RowWords(0), m.RowWords(1)));
}

TEST(BitMatrixTest, ResetClearsAll) {
  BitMatrix m(4, 100);
  m.Set(3, 99);
  m.Reset();
  EXPECT_FALSE(m.Test(3, 99));
}

}  // namespace
}  // namespace qpgc
