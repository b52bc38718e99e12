// util::Bitset / util::BitMatrix — the word-parallel candidate-domain
// primitives. The invariant under test throughout: bits past size() stay
// zero, so set-bit walks never see ghost bits.

#include "util/bitset.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace {

using netembed::util::BitMatrix;
using netembed::util::Bitset;

std::vector<std::size_t> setBits(const Bitset& b) {
  std::vector<std::size_t> out;
  b.forEachSet([&](std::size_t i) { out.push_back(i); });
  return out;
}

TEST(Bitset, SetTestResetRoundTrip) {
  Bitset b(130);  // straddles three words
  EXPECT_EQ(b.size(), 130u);
  EXPECT_EQ(b.wordCount(), 3u);
  EXPECT_TRUE(setBits(b).empty());
  for (const std::size_t i : {0u, 63u, 64u, 127u, 128u, 129u}) {
    b.set(i);
    EXPECT_TRUE(b.test(i));
  }
  EXPECT_EQ(setBits(b).size(), 6u);
  b.reset(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(setBits(b),
            (std::vector<std::size_t>{0, 63, 127, 128, 129}));
  b.clearAll();
  EXPECT_TRUE(setBits(b).empty());
}

TEST(Bitset, ForEachSetVisitsAscending) {
  Bitset b(200);
  const std::vector<std::size_t> expected{3, 64, 65, 130, 199};
  for (const std::size_t i : expected) b.set(i);
  EXPECT_EQ(setBits(b), expected);
}

TEST(Bitset, AndWithReportsSurvivors) {
  Bitset a(100), mask(100);
  a.set(10);
  a.set(70);
  mask.set(70);
  mask.set(71);
  EXPECT_TRUE(a.andWith(mask.words()));
  EXPECT_EQ(setBits(a), (std::vector<std::size_t>{70}));
  Bitset empty(100);
  EXPECT_FALSE(a.andWith(empty.words()));  // intersection died: early-exit signal
  EXPECT_TRUE(setBits(a).empty());
}

TEST(Bitset, MatchesReferenceUnderRandomOps) {
  // Randomized differential check against std::vector<bool> semantics.
  netembed::util::Rng rng(99);
  const std::size_t n = 193;
  Bitset a(n), mask(n);
  std::vector<bool> refA(n, false), refMask(n, false);
  for (int i = 0; i < 400; ++i) {
    const std::size_t pos = rng.index(n);
    if (rng.bernoulli(0.5)) {
      a.set(pos);
      refA[pos] = true;
    } else {
      mask.set(pos);
      refMask[pos] = true;
    }
  }
  a.andWith(mask.words());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(a.test(i), refA[i] && refMask[i]) << i;
  }
}

TEST(BitMatrix, RowsAreIndependentSpans) {
  BitMatrix m(4, 65);
  EXPECT_EQ(m.wordsPerRow(), 2u);
  m.set(2, 64);
  EXPECT_TRUE(m.test(2, 64));
  EXPECT_FALSE(m.test(1, 64));
  EXPECT_FALSE(m.test(3, 64));
  EXPECT_TRUE(netembed::util::testBit(m.row(2), 64));
  EXPECT_FALSE(netembed::util::testBit(m.row(2), 63));
}

TEST(BitMatrix, AssignResetsShape) {
  BitMatrix m;
  EXPECT_TRUE(m.empty());
  m.assign(2, 10);
  m.set(0, 5);
  m.assign(2, 10);  // reassign clears
  EXPECT_FALSE(m.test(0, 5));
}

TEST(BitMatrix, RowDataWritesMatchTestReads) {
  BitMatrix m(2, 130);
  std::uint64_t* row = m.rowData(1);
  row[129 / 64] |= std::uint64_t{1} << (129 % 64);
  EXPECT_TRUE(m.test(1, 129));
}

}  // namespace
