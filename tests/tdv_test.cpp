#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "core/chains.hpp"
#include "core/tdv.hpp"
#include "fixtures.hpp"
#include "util/rng.hpp"

namespace rdt {
namespace {

TEST(Tdv, OwnEntryEqualsCheckpointIndex) {
  Rng rng(1);
  const Pattern p = test::random_pattern(rng, 4, 150);
  const TdvAnalysis tdv(p);
  for (ProcessId i = 0; i < p.num_processes(); ++i)
    for (CkptIndex x = 0; x <= p.last_ckpt(i); ++x)
      EXPECT_EQ(tdv.at_ckpt({i, x})[static_cast<std::size_t>(i)], x);
}

TEST(Tdv, EntriesAreMonotoneAlongAProcess) {
  Rng rng(2);
  const Pattern p = test::random_pattern(rng, 4, 150);
  const TdvAnalysis tdv(p);
  for (ProcessId i = 0; i < p.num_processes(); ++i)
    for (CkptIndex x = 1; x <= p.last_ckpt(i); ++x) {
      const Tdv& prev = tdv.at_ckpt({i, x - 1});
      const Tdv& cur = tdv.at_ckpt({i, x});
      for (std::size_t q = 0; q < prev.size(); ++q)
        EXPECT_LE(prev[q], cur[q]);
    }
}

TEST(Tdv, EntryNeverExceedsPartnersCurrentInterval) {
  // TDV_i[j] records an interval index P_j has actually started.
  Rng rng(3);
  const Pattern p = test::random_pattern(rng, 4, 150);
  const TdvAnalysis tdv(p);
  for (ProcessId i = 0; i < p.num_processes(); ++i)
    for (CkptIndex x = 0; x <= p.last_ckpt(i); ++x)
      for (ProcessId j = 0; j < p.num_processes(); ++j)
        EXPECT_LE(tdv.at_ckpt({i, x})[static_cast<std::size_t>(j)],
                  p.last_ckpt(j));
}

TEST(Tdv, MessageCarriesSendersVector) {
  const auto f = test::figure1();
  const TdvAnalysis tdv(f.pattern);
  // m4 is sent by P_j in I_j2 right after C_j1: the piggybacked vector is
  // the post-checkpoint TDV.
  EXPECT_EQ(tdv.on_msg(f.m4), (Tdv{1, 2, 1}));
}

TEST(Tdv, TrackableSameProcessIsPositional) {
  const auto f = test::figure1();
  const TdvAnalysis tdv(f.pattern);
  EXPECT_TRUE(tdv.trackable({0, 1}, {0, 1}));
  EXPECT_TRUE(tdv.trackable({0, 1}, {0, 3}));
  EXPECT_FALSE(tdv.trackable({0, 2}, {0, 1}));
}

TEST(Tdv, TrackableMatchesCausalChains) {
  // The TDV theorem: C_{i,x} -> C_{j,y} is trackable iff some causal chain
  // leaves an interval of P_i at or after I_{i,x} and enters P_j at or
  // before C_{j,y}. Cross-validated against the brute-force causal Z-path
  // enumeration.
  Rng rng(4);
  for (int round = 0; round < 15; ++round) {
    const Pattern p = test::random_pattern(rng, 3, 60);
    const TdvAnalysis tdv(p);
    const ChainAnalysis chains(p);
    for (ProcessId i = 0; i < p.num_processes(); ++i)
      for (CkptIndex x = 0; x <= p.last_ckpt(i); ++x)
        for (ProcessId j = 0; j < p.num_processes(); ++j) {
          if (i == j) continue;
          for (CkptIndex y = 0; y <= p.last_ckpt(j); ++y) {
            if (x == 0) {
              // Dependencies on an initial checkpoint are vacuous: TDV
              // entries start at 0, so they are always trackable.
              EXPECT_TRUE(tdv.trackable({i, x}, {j, y}));
              continue;
            }
            bool chain = false;
            for (CkptIndex s = x; s <= p.last_ckpt(i) && !chain; ++s)
              for (CkptIndex t = 1; t <= y && !chain; ++t)
                chain = chains.zpath_between_intervals({i, s}, {j, t},
                                                       /*causal_only=*/true);
            EXPECT_EQ(tdv.trackable({i, x}, {j, y}), chain)
                << "C(" << i << ',' << x << ") -> C(" << j << ',' << y
                << ") round " << round;
          }
        }
  }
}

TEST(Tdv, MinGlobalCkptSubstitutesOwnIndex) {
  const auto f = test::figure1();
  const TdvAnalysis tdv(f.pattern);
  const GlobalCkpt g = tdv.min_global_ckpt({test::Figure1::j, 2});
  EXPECT_EQ(g, (GlobalCkpt{{3, 2, 1}}));
}

TEST(Tdv, RangeChecks) {
  const auto f = test::figure1();
  const TdvAnalysis tdv(f.pattern);
  EXPECT_THROW(tdv.at_ckpt({0, 42}), std::invalid_argument);
  EXPECT_THROW(tdv.on_msg(99), std::invalid_argument);
}

// Row x of a window over stride-3 rows is filled with {x, 10 + x, 20 + x}
// so every read can name the row it came from.
void append_row(SavedTdvWindow& w) {
  const CkptIndex x = w.last_index() + 1;
  const std::span<CkptIndex> row = w.append();
  ASSERT_EQ(row.size(), w.stride());
  for (std::size_t k = 0; k < row.size(); ++k)
    row[k] = x + 10 * static_cast<CkptIndex>(k);
}

std::vector<CkptIndex> row_of(const SavedTdvWindow& w, CkptIndex x) {
  const CkptIndex* row = w.at(x);
  return {row, row + w.stride()};
}

TEST(SavedTdvWindow, AppendAtContains) {
  SavedTdvWindow w;
  w.reset(3, 16);
  EXPECT_EQ(w.stride(), 3u);
  EXPECT_EQ(w.base(), 0);
  EXPECT_EQ(w.size(), 0u);
  EXPECT_EQ(w.last_index(), 0);
  // C_{p,0} is never stored: index 0 is outside even an empty window.
  EXPECT_FALSE(w.contains(0));
  EXPECT_FALSE(w.contains(1));
  EXPECT_THROW(w.at(1), contract_violation);

  for (int i = 0; i < 4; ++i) append_row(w);
  EXPECT_EQ(w.size(), 4u);
  EXPECT_EQ(w.last_index(), 4);
  EXPECT_FALSE(w.contains(0));
  EXPECT_TRUE(w.contains(1));
  EXPECT_TRUE(w.contains(4));
  EXPECT_FALSE(w.contains(5));
  for (CkptIndex x = 1; x <= 4; ++x)
    EXPECT_EQ(row_of(w, x), (std::vector<CkptIndex>{x, 10 + x, 20 + x}));
  EXPECT_THROW(w.at(5), contract_violation);
  EXPECT_GE(w.resident_bytes(), 12 * sizeof(CkptIndex));
}

TEST(SavedTdvWindow, ReleaseAdvancesTheBase) {
  SavedTdvWindow w;
  w.reset(3, 16);
  for (int i = 0; i < 5; ++i) append_row(w);

  // Nothing at or below the base is resident, so nothing is released.
  EXPECT_EQ(w.release_through(0), 0u);
  EXPECT_EQ(w.release_through(2), 2u);
  EXPECT_EQ(w.base(), 2);
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(w.last_index(), 5);
  EXPECT_FALSE(w.contains(2));
  EXPECT_TRUE(w.contains(3));
  EXPECT_THROW(w.at(2), contract_violation);
  // The surviving rows moved to the front of the buffer unchanged.
  for (CkptIndex x = 3; x <= 5; ++x)
    EXPECT_EQ(row_of(w, x), (std::vector<CkptIndex>{x, 10 + x, 20 + x}));
  EXPECT_EQ(w.release_through(1), 0u);  // behind the base: a no-op
  EXPECT_EQ(w.base(), 2);

  // Appends continue past the advanced base.
  append_row(w);
  EXPECT_EQ(w.last_index(), 6);
  EXPECT_EQ(row_of(w, 6), (std::vector<CkptIndex>{6, 16, 26}));
  EXPECT_EQ(row_of(w, 3), (std::vector<CkptIndex>{3, 13, 23}));
}

TEST(SavedTdvWindow, ReleasePastSizeEmptiesAtLastIndex) {
  SavedTdvWindow w;
  w.reset(3, 16);
  for (int i = 0; i < 3; ++i) append_row(w);
  // A line past every resident row drops them all; the base stops at the
  // last stored index, so the next append is still index last_index()+1.
  EXPECT_EQ(w.release_through(10), 3u);
  EXPECT_EQ(w.size(), 0u);
  EXPECT_EQ(w.base(), 3);
  EXPECT_EQ(w.last_index(), 3);
  EXPECT_FALSE(w.contains(3));
  append_row(w);
  EXPECT_EQ(w.last_index(), 4);
  EXPECT_EQ(row_of(w, 4), (std::vector<CkptIndex>{4, 14, 24}));
}

TEST(SavedTdvWindow, ResetTakesANewStride) {
  SavedTdvWindow w;
  w.reset(3, 16);
  for (int i = 0; i < 4; ++i) append_row(w);
  w.release_through(2);
  const std::size_t warm = w.resident_bytes();

  // Within the row cap the buffer keeps its capacity for the next stream.
  w.reset(5, 16);
  EXPECT_EQ(w.stride(), 5u);
  EXPECT_EQ(w.base(), 0);
  EXPECT_EQ(w.size(), 0u);
  EXPECT_FALSE(w.contains(1));
  EXPECT_EQ(w.resident_bytes(), warm);
  const std::span<CkptIndex> row = w.append();
  EXPECT_EQ(row.size(), 5u);
  EXPECT_EQ(std::vector<CkptIndex>(row.begin(), row.end()),
            std::vector<CkptIndex>(5, 0));
  EXPECT_EQ(w.last_index(), 1);

  // Past the cap the buffer is freed.
  w.reset(2, 0);
  EXPECT_EQ(w.stride(), 2u);
  EXPECT_EQ(w.resident_bytes(), 0u);
  append_row(w);
  EXPECT_EQ(row_of(w, 1), (std::vector<CkptIndex>{1, 11}));
}

}  // namespace
}  // namespace rdt
