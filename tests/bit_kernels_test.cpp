// Exact equivalence of the word-parallel bit kernels: every public
// bitkern:: entry point must produce bit-identical results to the scalar
// reference on randomized and tail-heavy word counts — on both sides of
// kInlineWords (the inline scalar path and the out-of-line unrolled loops),
// including the unrolling remainders (n % 4) and the empty case.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "util/bit_kernels.hpp"

namespace rdt {
namespace {

// Word counts chosen to cover every unrolling remainder and the sizes on
// both sides of kInlineWords (4 inline, 5 out of line).
const std::vector<std::size_t>& word_counts() {
  static const std::vector<std::size_t> sizes = {
      0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 15, 16, 17,
      31, 32, 33, 63, 64, 65, 127, 128, 129, 1000, 4096 + 17};
  return sizes;
}

std::vector<std::uint64_t> random_words(std::mt19937_64& rng, std::size_t n,
                                        bool sparse) {
  std::vector<std::uint64_t> w(n);
  for (std::uint64_t& x : w) {
    x = rng();
    // Sparse blocks exercise the early-out paths (any, first_nonzero) and
    // the no-change path of or_into_changed.
    if (sparse) x &= rng() & rng() & rng() & rng() & rng();
  }
  return w;
}

TEST(BitKernels, OrIntoMatchesScalar) {
  std::mt19937_64 rng(42);
  for (const std::size_t n : word_counts()) {
    SCOPED_TRACE("words " + std::to_string(n));
    for (const bool sparse : {false, true}) {
      const std::vector<std::uint64_t> src = random_words(rng, n, sparse);
      std::vector<std::uint64_t> expect = random_words(rng, n, false);
      std::vector<std::uint64_t> got = expect;
      bitkern::scalar::or_into(expect.data(), src.data(), n);
      bitkern::or_into(got.data(), src.data(), n);
      EXPECT_EQ(got, expect);
    }
  }
}

TEST(BitKernels, OrIntoChangedMatchesScalar) {
  std::mt19937_64 rng(43);
  for (const std::size_t n : word_counts()) {
    SCOPED_TRACE("words " + std::to_string(n));
    for (const bool sparse : {false, true}) {
      const std::vector<std::uint64_t> src = random_words(rng, n, sparse);
      std::vector<std::uint64_t> expect = random_words(rng, n, false);
      std::vector<std::uint64_t> got = expect;
      const bool ce = bitkern::scalar::or_into_changed(expect.data(),
                                                       src.data(), n);
      const bool cg = bitkern::or_into_changed(got.data(), src.data(), n);
      EXPECT_EQ(got, expect);
      EXPECT_EQ(cg, ce);
      // Re-running on the merged destination must report no change.
      EXPECT_FALSE(bitkern::or_into_changed(got.data(), src.data(), n));
    }
  }
}

TEST(BitKernels, AndIntoMatchesScalar) {
  std::mt19937_64 rng(44);
  for (const std::size_t n : word_counts()) {
    SCOPED_TRACE("words " + std::to_string(n));
    const std::vector<std::uint64_t> src = random_words(rng, n, false);
    std::vector<std::uint64_t> expect = random_words(rng, n, false);
    std::vector<std::uint64_t> got = expect;
    bitkern::scalar::and_into(expect.data(), src.data(), n);
    bitkern::and_into(got.data(), src.data(), n);
    EXPECT_EQ(got, expect);
  }
}

TEST(BitKernels, EqualMatchesScalar) {
  std::mt19937_64 rng(45);
  for (const std::size_t n : word_counts()) {
    SCOPED_TRACE("words " + std::to_string(n));
    const std::vector<std::uint64_t> a = random_words(rng, n, false);
    std::vector<std::uint64_t> b = a;
    EXPECT_TRUE(bitkern::equal(a.data(), b.data(), n));
    if (n == 0) continue;
    // Flip one bit at several positions, including the very last word
    // (the unrolling tail) and the very first.
    for (const std::size_t at : {std::size_t{0}, n / 2, n - 1}) {
      b[at] ^= std::uint64_t{1} << (at % 64);
      EXPECT_EQ(bitkern::equal(a.data(), b.data(), n),
                bitkern::scalar::equal(a.data(), b.data(), n));
      EXPECT_FALSE(bitkern::equal(a.data(), b.data(), n));
      b[at] = a[at];
    }
  }
}

TEST(BitKernels, PopcountAnyFirstNonzeroMatchScalar) {
  std::mt19937_64 rng(46);
  for (const std::size_t n : word_counts()) {
    SCOPED_TRACE("words " + std::to_string(n));
    for (const bool sparse : {false, true}) {
      const std::vector<std::uint64_t> w = random_words(rng, n, sparse);
      EXPECT_EQ(bitkern::popcount(w.data(), n),
                bitkern::scalar::popcount(w.data(), n));
      EXPECT_EQ(bitkern::any(w.data(), n), bitkern::scalar::any(w.data(), n));
      EXPECT_EQ(bitkern::first_nonzero(w.data(), n),
                bitkern::scalar::first_nonzero(w.data(), n));
    }
    // All-zero blocks: any=false, first_nonzero=n, popcount=0.
    const std::vector<std::uint64_t> z(n, 0);
    EXPECT_FALSE(bitkern::any(z.data(), n));
    EXPECT_EQ(bitkern::first_nonzero(z.data(), n), n);
    EXPECT_EQ(bitkern::popcount(z.data(), n), 0u);
    // A single bit in the last word: first_nonzero must find the tail.
    if (n > 0) {
      std::vector<std::uint64_t> tail(n, 0);
      tail[n - 1] = std::uint64_t{1} << 63;
      EXPECT_TRUE(bitkern::any(tail.data(), n));
      EXPECT_EQ(bitkern::first_nonzero(tail.data(), n), n - 1);
      EXPECT_EQ(bitkern::popcount(tail.data(), n), 1u);
    }
  }
}

// find_next calls bitkern::first_nonzero internally; sweep it against a
// scalar bit scan from many offsets, including from >= size.
TEST(BitKernels, FindNextMatchesScalarScan) {
  std::mt19937_64 rng(47);
  for (const std::size_t n : word_counts()) {
    const std::size_t bits = n * 64;
    SCOPED_TRACE("bits " + std::to_string(bits));
    for (const bool sparse : {false, true}) {
      const std::vector<std::uint64_t> w = random_words(rng, n, sparse);
      const auto scan = [&](std::size_t from) {
        for (std::size_t i = from; i < bits; ++i)
          if ((w[i / 64] >> (i % 64)) & 1u) return i;
        return bits;
      };
      std::vector<std::size_t> froms = {0, bits / 2, bits, bits + 1,
                                        bits + 1000};
      for (int s = 0; s < 16 && bits > 0; ++s) froms.push_back(rng() % bits);
      for (const std::size_t from : froms) {
        if (from >= bits) {
          // Out-of-range starts (incl. empty blocks) return size, touching
          // no memory — the ConstBitSpan::find_next contract.
          EXPECT_EQ(bitkern::find_next(w.data(), bits, from), bits);
          continue;
        }
        EXPECT_EQ(bitkern::find_next(w.data(), bits, from), scan(from))
            << "from " << from;
      }
    }
  }
}

// Non-multiple-of-64 logical sizes: find_next over a partial last word.
TEST(BitKernels, FindNextPartialLastWord) {
  // 70 bits in 2 words; set bits 3 and 69.
  std::vector<std::uint64_t> w = {std::uint64_t{1} << 3, std::uint64_t{1} << 5};
  EXPECT_EQ(bitkern::find_next(w.data(), 70, 0), 3u);
  EXPECT_EQ(bitkern::find_next(w.data(), 70, 4), 69u);
  EXPECT_EQ(bitkern::find_next(w.data(), 70, 70), 70u);
  EXPECT_EQ(bitkern::find_next(w.data(), 70, 200), 70u);
  // A set bit beyond the logical size must be clamped to size.
  w[1] = std::uint64_t{1} << 20;  // bit 84 > size 70
  EXPECT_EQ(bitkern::find_next(w.data(), 70, 64), 70u);
}

}  // namespace
}  // namespace rdt
