#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "util/bit_matrix.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/scc.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace rdt {
namespace {

// ---------------------------------------------------------------- BitVector

TEST(BitVector, StartsCleared) {
  BitVector v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_EQ(v.count(), 0u);
  EXPECT_FALSE(v.any());
}

TEST(BitVector, SetGetClear) {
  BitVector v(70);
  v.set(0);
  v.set(63);
  v.set(64);
  v.set(69);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(63));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(69));
  EXPECT_FALSE(v.get(1));
  EXPECT_EQ(v.count(), 4u);
  v.set(63, false);
  EXPECT_FALSE(v.get(63));
  EXPECT_EQ(v.count(), 3u);
}

TEST(BitVector, OutOfRangeThrows) {
  BitVector v(10);
  EXPECT_THROW(v.get(10), std::invalid_argument);
  EXPECT_THROW(v.set(10), std::invalid_argument);
}

TEST(BitVector, FillTrueRespectsSize) {
  BitVector v(67, true);
  EXPECT_EQ(v.count(), 67u);
  v.fill(false);
  EXPECT_EQ(v.count(), 0u);
  v.fill(true);
  EXPECT_EQ(v.count(), 67u);
}

TEST(BitVector, OrWithReportsChange) {
  BitVector a(100);
  BitVector b(100);
  b.set(3);
  b.set(99);
  EXPECT_TRUE(a.or_with(b));
  EXPECT_FALSE(a.or_with(b));  // idempotent
  EXPECT_TRUE(a.get(3));
  EXPECT_TRUE(a.get(99));
}

TEST(BitVector, OrWithSizeMismatchThrows) {
  BitVector a(10);
  BitVector b(11);
  EXPECT_THROW(a.or_with(b), std::invalid_argument);
}

TEST(BitVector, AndWith) {
  BitVector a(80, true);
  BitVector b(80);
  b.set(5);
  b.set(79);
  a.and_with(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_TRUE(a.get(5));
  EXPECT_TRUE(a.get(79));
}

TEST(BitVector, FindNext) {
  BitVector v(200);
  v.set(7);
  v.set(64);
  v.set(199);
  EXPECT_EQ(v.find_next(0), 7u);
  EXPECT_EQ(v.find_next(7), 7u);
  EXPECT_EQ(v.find_next(8), 64u);
  EXPECT_EQ(v.find_next(65), 199u);
  EXPECT_EQ(v.find_next(200), 200u);  // past the end
  BitVector empty(64);
  EXPECT_EQ(empty.find_next(0), 64u);
}

TEST(BitVector, FindNextScansAllBits) {
  BitVector v(300);
  std::set<std::size_t> expected{0, 1, 63, 64, 65, 128, 299};
  for (auto i : expected) v.set(i);
  std::set<std::size_t> seen;
  for (std::size_t i = v.find_next(0); i < v.size(); i = v.find_next(i + 1))
    seen.insert(i);
  EXPECT_EQ(seen, expected);
}

TEST(BitVector, FindNextEdgeCases) {
  // Zero-size vector: any from lands past the end.
  BitVector none(0);
  EXPECT_EQ(none.find_next(0), 0u);
  EXPECT_EQ(none.find_next(5), 0u);
  // from at or beyond size() returns size() even with bits set.
  BitVector v(100);
  v.set(99);
  EXPECT_EQ(v.find_next(100), 100u);
  EXPECT_EQ(v.find_next(1000), 100u);
  // Exact word-multiple size: the last bit sits in the top position of the
  // last word, with no trailing partial word to mask.
  BitVector exact(128);
  exact.set(127);
  EXPECT_EQ(exact.find_next(0), 127u);
  EXPECT_EQ(exact.find_next(127), 127u);
  EXPECT_EQ(exact.find_next(128), 128u);
  BitVector exact_empty(128);
  EXPECT_EQ(exact_empty.find_next(64), 128u);
}

TEST(BitVector, SetRangeMatchesPerBitSets) {
  Rng rng(11);
  for (const std::size_t size : {1u, 63u, 64u, 65u, 200u, 256u}) {
    for (int round = 0; round < 50; ++round) {
      const auto lo = static_cast<std::size_t>(rng.below(size + 1));
      const auto hi = lo + static_cast<std::size_t>(rng.below(size - lo + 1));
      BitVector ranged(size);
      ranged.set_range(lo, hi);
      BitVector expected(size);
      for (std::size_t i = lo; i < hi; ++i) expected.set(i);
      EXPECT_EQ(ranged, expected) << size << " [" << lo << ", " << hi << ")";
      EXPECT_TRUE(ranged.span().tail_zero());
    }
  }
  BitVector v(10);
  EXPECT_THROW(v.set_range(4, 11), std::invalid_argument);
  EXPECT_THROW(v.set_range(5, 4), std::invalid_argument);
}

TEST(BitVector, FindLastMatchesBackwardScan) {
  Rng rng(12);
  for (const std::size_t size : {1u, 63u, 64u, 65u, 200u, 256u}) {
    for (int round = 0; round < 50; ++round) {
      BitVector v(size);
      for (std::size_t i = 0; i < size; ++i)
        if (rng.below(16) == 0) v.set(i);
      const auto lo = static_cast<std::size_t>(rng.below(size + 1));
      const auto hi = lo + static_cast<std::size_t>(rng.below(size - lo + 1));
      std::size_t expected = hi;
      for (std::size_t i = hi; i > lo; --i)
        if (v.get(i - 1)) {
          expected = i - 1;
          break;
        }
      EXPECT_EQ(v.find_last(lo, hi), expected)
          << size << " [" << lo << ", " << hi << ")";
    }
  }
  BitVector v(130);
  v.set(0);
  v.set(129);
  EXPECT_EQ(v.find_last(0, 130), 129u);
  EXPECT_EQ(v.find_last(0, 129), 0u);
  EXPECT_EQ(v.find_last(1, 129), 129u);  // empty range answers hi
  EXPECT_EQ(v.find_last(7, 7), 7u);
  EXPECT_THROW((void)v.find_last(0, 131), std::invalid_argument);
}

TEST(BitVector, MergeOrsWithoutChangeTracking) {
  BitVector a(130);
  BitVector b(130);
  a.set(0);
  b.set(0);
  b.set(129);
  a.merge(b);
  EXPECT_TRUE(a.get(0));
  EXPECT_TRUE(a.get(129));
  EXPECT_EQ(a.count(), 2u);
  // Merging again is idempotent, and size mismatches still throw.
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  BitVector small(64);
  EXPECT_THROW(a.merge(small), std::invalid_argument);
}

TEST(BitVector, Equality) {
  BitVector a(50);
  BitVector b(50);
  EXPECT_EQ(a, b);
  a.set(13);
  EXPECT_NE(a, b);
  b.set(13);
  EXPECT_EQ(a, b);
}

// The zero-tail-bits invariant: every mutating op on a non-word-multiple
// size must leave the bits past size() clear, or the word-parallel count/
// equality/any kernels would silently read garbage.
TEST(BitVector, TailBitsStayZeroAfterMutations) {
  BitVector full(70, true);  // fill at construction trims the tail
  EXPECT_TRUE(full.span().tail_zero());
  EXPECT_EQ(full.count(), 70u);

  BitVector a(70);
  a.merge(full);
  EXPECT_TRUE(a.span().tail_zero());
  EXPECT_EQ(a.count(), 70u);

  BitVector b(70);
  EXPECT_TRUE(b.or_with(full));
  EXPECT_TRUE(b.span().tail_zero());
  EXPECT_EQ(b.count(), 70u);
  EXPECT_FALSE(b.or_with(full));  // idempotent: no change reported

  BitVector c(70);
  c.assign(full);
  EXPECT_TRUE(c.span().tail_zero());
  EXPECT_EQ(c, full);

  c.fill(true);
  EXPECT_TRUE(c.span().tail_zero());
  EXPECT_EQ(c.count(), 70u);
  EXPECT_EQ(c.find_next(69), 69u);
  EXPECT_EQ(c.find_next(70), 70u);  // tail bits never surface as hits
}

// ---------------------------------------------------------------- BitMatrix

TEST(BitMatrix, Shape) {
  BitMatrix m(3, 5);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 5u);
  EXPECT_EQ(m.count(), 0u);
}

TEST(BitMatrix, SetGetAndDiagonal) {
  BitMatrix m(4, 4);
  m.set(1, 2);
  EXPECT_TRUE(m.get(1, 2));
  EXPECT_FALSE(m.get(2, 1));
  m.set_diagonal(true);
  EXPECT_EQ(m.count(), 5u);
  m.set_diagonal(false);
  EXPECT_EQ(m.count(), 1u);
}

TEST(BitMatrix, DiagonalRequiresSquare) {
  BitMatrix m(2, 3);
  EXPECT_THROW(m.set_diagonal(true), std::invalid_argument);
}

TEST(BitMatrix, TransitiveClosureChain) {
  // 0 -> 1 -> 2 -> 3.
  BitMatrix m(4, 4);
  m.set(0, 1);
  m.set(1, 2);
  m.set(2, 3);
  m.close_transitively();
  EXPECT_TRUE(m.get(0, 3));
  EXPECT_TRUE(m.get(1, 3));
  EXPECT_TRUE(m.get(0, 0));  // reflexive
  EXPECT_FALSE(m.get(3, 0));
  EXPECT_FALSE(m.get(2, 1));
}

TEST(BitMatrix, TransitiveClosureCycle) {
  BitMatrix m(3, 3);
  m.set(0, 1);
  m.set(1, 2);
  m.set(2, 0);
  m.close_transitively();
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_TRUE(m.get(r, c));
}

TEST(BitMatrix, ClosureRequiresSquare) {
  BitMatrix m(2, 3);
  EXPECT_THROW(m.close_transitively(), std::invalid_argument);
}

TEST(Scc, ComponentsAreReverseTopological) {
  // 0 -> 1 -> 2 -> 0 is a cycle; 2 -> 3 -> 4 -> 3 another; 5 is isolated.
  const std::vector<std::vector<int>> succ = {{1}, {2}, {0, 3}, {4}, {3}, {}};
  std::vector<int> comp;
  const int comps = strongly_connected_components(
      static_cast<int>(succ.size()),
      [&](int v) {
        return std::pair<std::size_t, std::size_t>{0, succ[static_cast<std::size_t>(v)].size()};
      },
      [&](int v, std::size_t i) { return succ[static_cast<std::size_t>(v)][i]; }, comp);
  EXPECT_EQ(comps, 3);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_NE(comp[5], comp[0]);
  EXPECT_NE(comp[5], comp[3]);
  // Every edge leads to a component with an equal or smaller id.
  for (std::size_t v = 0; v < succ.size(); ++v)
    for (int w : succ[v]) EXPECT_GE(comp[v], comp[static_cast<std::size_t>(w)]);
  EXPECT_LT(comp[3], comp[0]);
}

// ----------------------------------------------------------------------- Rng

TEST(Rng, DeterministicPerSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(13), 13u);
  EXPECT_THROW(rng.below(0), std::invalid_argument);
}

TEST(Rng, BelowCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 400; ++i) seen.insert(rng.below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(3);
  bool lo_seen = false;
  bool hi_seen = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    lo_seen |= v == -2;
    hi_seen |= v == 2;
  }
  EXPECT_TRUE(lo_seen);
  EXPECT_TRUE(hi_seen);
  EXPECT_THROW(rng.uniform_int(2, 1), std::invalid_argument);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
  EXPECT_THROW(rng.bernoulli(1.5), std::invalid_argument);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.exponential(2.0);
    ASSERT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 20000.0, 2.0, 0.1);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
}

TEST(Rng, SplitStreamsLookIndependent) {
  Rng parent(21);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += parent.next() == child.next();
  EXPECT_LT(same, 4);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  auto shuffled_sorted = v;
  std::sort(shuffled_sorted.begin(), shuffled_sorted.end());
  EXPECT_EQ(shuffled_sorted, sorted);
}

// --------------------------------------------------------------------- Stats

TEST(Stats, EmptyIsZero) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.stddev, 0.0);
}

TEST(Stats, KnownValues) {
  const Summary s = summarize({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
}

TEST(Stats, SingleSample) {
  const Summary s = summarize({3.5});
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 3.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.min, 3.5);
  EXPECT_DOUBLE_EQ(s.max, 3.5);
}

TEST(Stats, RunningMatchesBatch) {
  Rng rng(33);
  std::vector<double> xs;
  RunningStats acc;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-3, 7);
    xs.push_back(x);
    acc.add(x);
  }
  const Summary batch = summarize(xs);
  EXPECT_NEAR(acc.mean(), batch.mean, 1e-9);
  EXPECT_NEAR(acc.stddev(), batch.stddev, 1e-9);
}

TEST(Stats, Ci95ShrinksWithSamples) {
  RunningStats small;
  RunningStats large;
  Rng rng(4);
  for (int i = 0; i < 10; ++i) small.add(rng.uniform());
  for (int i = 0; i < 1000; ++i) large.add(rng.uniform());
  EXPECT_GT(small.summary().ci95, large.summary().ci95);
}

TEST(Stats, PercentileEmptyIsZero) {
  EXPECT_EQ(percentile({}, 50.0), 0.0);
  EXPECT_EQ(percentile({}, 0.0), 0.0);
}

TEST(Stats, PercentileSingleElementAnswersItAtEveryQ) {
  const std::vector<double> one = {42.0};
  for (const double q : {0.0, 1.0, 50.0, 99.0, 100.0})
    EXPECT_DOUBLE_EQ(percentile(one, q), 42.0) << "q = " << q;
}

TEST(Stats, PercentileOddCountMedianIsMiddleElement) {
  const std::vector<double> odd = {1.0, 2.0, 10.0, 20.0, 100.0};
  EXPECT_DOUBLE_EQ(percentile(odd, 50.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(odd, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(odd, 100.0), 100.0);
  // Rank 25% of n-1 = 1 exactly: no interpolation.
  EXPECT_DOUBLE_EQ(percentile(odd, 25.0), 2.0);
}

TEST(Stats, PercentileEvenCountInterpolatesMedian) {
  const std::vector<double> even = {1.0, 3.0, 5.0, 7.0};
  // Rank (4-1)*0.5 = 1.5: halfway between 3 and 5.
  EXPECT_DOUBLE_EQ(percentile(even, 50.0), 4.0);
  // Rank 3 * 0.99 = 2.97: 97% of the way from 5 to 7.
  EXPECT_DOUBLE_EQ(percentile(even, 99.0), 5.0 + 0.97 * 2.0);
}

TEST(Stats, PercentileRejectsBadInput) {
  const std::vector<double> sorted = {1.0, 2.0};
  EXPECT_THROW(percentile(sorted, -0.5), std::invalid_argument);
  EXPECT_THROW(percentile(sorted, 100.5), std::invalid_argument);
  EXPECT_THROW(percentile({5.0, 1.0}, 50.0), std::invalid_argument);
}

TEST(Stats, PercentileSummarySortsInPlace) {
  std::vector<double> samples = {9.0, 1.0, 5.0, 3.0, 7.0};
  const PercentileSummary s = percentile_summary(samples);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.p50, 5.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_TRUE(std::is_sorted(samples.begin(), samples.end()));

  std::vector<double> empty;
  const PercentileSummary zero = percentile_summary(empty);
  EXPECT_EQ(zero.count, 0u);
  EXPECT_EQ(zero.p99, 0.0);
}

// --------------------------------------------------------------------- Table

TEST(Table, RendersAlignedBox) {
  Table t({"proto", "R"});
  t.begin_row().add("fdas").add(0.5, 2);
  t.begin_row().add("bhmr").add(0.25, 2);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| proto | R    |"), std::string::npos);
  EXPECT_NE(out.find("| bhmr  | 0.25 |"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"name", "note"});
  t.begin_row().add("a,b").add("say \"hi\"");
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "name,note\n\"a,b\",\"say \"\"hi\"\"\"\n");
}

TEST(Table, RowOverflowThrows) {
  Table t({"only"});
  t.begin_row().add("x");
  EXPECT_THROW(t.add("y"), std::invalid_argument);
}

TEST(Table, AddBeforeRowThrows) {
  Table t({"c"});
  EXPECT_THROW(t.add("x"), std::invalid_argument);
}

// --------------------------------------------------------------------- Check

TEST(Check, RequireThrowsInvalidArgument) {
  EXPECT_THROW(RDT_REQUIRE(false, "boom"), std::invalid_argument);
  EXPECT_NO_THROW(RDT_REQUIRE(true, "fine"));
}

TEST(Check, AssertThrowsLogicError) {
  EXPECT_THROW(RDT_ASSERT(false), std::logic_error);
  EXPECT_NO_THROW(RDT_ASSERT(true));
}

// ---------------------------------------------------------------- BucketPlan

// The regression this pins: a 10k+3-event stream split into 20 rate buckets
// must not drop the 3 remainder events — they belong to the LAST bucket.
TEST(BucketPlan, RemainderFoldsIntoLastBucket) {
  const BucketPlan plan(10003, 20);
  EXPECT_EQ(plan.base(), 500u);
  std::size_t total = 0;
  for (std::size_t b = 0; b < 20; ++b) total += plan.size_of(b);
  EXPECT_EQ(total, 10003u);
  for (std::size_t b = 0; b + 1 < 20; ++b) EXPECT_EQ(plan.size_of(b), 500u);
  EXPECT_EQ(plan.size_of(19), 503u);
  EXPECT_EQ(plan.bucket_of(0), 0u);
  EXPECT_EQ(plan.bucket_of(499), 0u);
  EXPECT_EQ(plan.bucket_of(500), 1u);
  EXPECT_EQ(plan.bucket_of(9499), 18u);
  EXPECT_EQ(plan.bucket_of(9500), 19u);
  EXPECT_EQ(plan.bucket_of(10002), 19u);  // remainder clamps to the last
  EXPECT_TRUE(plan.closes_bucket(499));
  EXPECT_FALSE(plan.closes_bucket(500));
  EXPECT_FALSE(plan.closes_bucket(9999));  // 500*20 is NOT a boundary here
  EXPECT_TRUE(plan.closes_bucket(10002));
}

TEST(BucketPlan, BucketOfAgreesWithSizes) {
  for (const std::size_t items : {0u, 1u, 19u, 20u, 21u, 10003u}) {
    const BucketPlan plan(items, 20);
    std::vector<std::size_t> counts(20, 0);
    for (std::size_t i = 0; i < items; ++i) ++counts[plan.bucket_of(i)];
    for (std::size_t b = 0; b < 20; ++b) EXPECT_EQ(counts[b], plan.size_of(b));
  }
}

TEST(BucketPlan, FewerItemsThanBuckets) {
  const BucketPlan plan(3, 20);
  EXPECT_EQ(plan.base(), 0u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(plan.bucket_of(i), 19u);
  EXPECT_EQ(plan.size_of(0), 0u);
  EXPECT_EQ(plan.size_of(19), 3u);
  EXPECT_FALSE(plan.closes_bucket(0));
  EXPECT_TRUE(plan.closes_bucket(2));
}

TEST(BucketPlan, ZeroBucketsClampsToOne) {
  const BucketPlan plan(5, 0);
  EXPECT_EQ(plan.buckets, 1u);
  EXPECT_EQ(plan.bucket_of(4), 0u);
  EXPECT_EQ(plan.size_of(0), 5u);
}

}  // namespace
}  // namespace rdt
