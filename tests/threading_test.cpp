// Thread-safety contract of the shared analysis objects: one Pattern,
// ChainAnalysis or RdtAnalyses instance may be used from many threads
// concurrently. The lazy caches (vector clocks, z-reach tables, R-graph
// closure) are built under std::call_once, so concurrent first use is safe
// and every thread observes identical results. Run under TSan (the ci
// workflow's tsan job) these tests also prove the absence of the lazy-cache
// data race the pre-SCC engine had.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/pattern_stats.hpp"
#include "core/rdt_checker.hpp"
#include "fixtures.hpp"
#include "sim/environments.hpp"
#include "sim/runner.hpp"
#include "util/rng.hpp"

namespace rdt {
namespace {

constexpr int kThreads = 8;

Trace small_random_trace(std::uint64_t seed) {
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 60;
  cfg.basic_ckpt_mean = 8.0;
  cfg.send_gap_mean = 1.0;
  cfg.seed = seed;
  return random_environment(cfg);
}

// Runs `work(thread_index)` on kThreads threads at once.
template <typename Fn>
void hammer(Fn&& work) {
  std::vector<std::jthread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) pool.emplace_back(work, t);
}

TEST(Threading, SharedPatternClockCache) {
  Rng rng(1);
  const Pattern p = test::random_pattern(rng, 4, 200);
  // A copy shares the clock cache with the original; exercising both from
  // every thread makes the sharing itself part of the test.
  const Pattern copy = p;
  std::vector<long> hb_counts(kThreads, -1);
  hammer([&](int t) {
    const Pattern& view = t % 2 ? copy : p;
    long count = 0;
    for (const EventRef& a : view.topological_order())
      for (const EventRef& b : view.topological_order())
        count += view.happened_before(a, b);
    hb_counts[static_cast<std::size_t>(t)] = count;
  });
  for (int t = 1; t < kThreads; ++t)
    EXPECT_EQ(hb_counts[static_cast<std::size_t>(t)], hb_counts[0]);
}

TEST(Threading, SharedChainAnalysisZReach) {
  Rng rng(2);
  const Pattern p = test::random_pattern(rng, 4, 150);
  const ChainAnalysis chains(p);
  std::vector<long> reach_counts(kThreads, -1);
  hammer([&](int t) {
    // Every thread triggers the lazy build of both reachability tables.
    long count = 0;
    for (ProcessId i = 0; i < p.num_processes(); ++i)
      for (CkptIndex s = 1; s <= p.last_ckpt(i); ++s)
        for (ProcessId j = 0; j < p.num_processes(); ++j)
          for (CkptIndex y = 1; y <= p.last_ckpt(j); ++y)
            for (bool causal : {false, true})
              count += chains.zpath_between_intervals({i, s}, {j, y}, causal);
    reach_counts[static_cast<std::size_t>(t)] = count;
  });
  for (int t = 1; t < kThreads; ++t)
    EXPECT_EQ(reach_counts[static_cast<std::size_t>(t)], reach_counts[0]);
}

TEST(Threading, SharedRdtAnalysesAcrossCheckers) {
  Rng rng(3);
  const Pattern p = test::random_pattern(rng, 4, 150);
  const RdtAnalyses analyses(p);
  const RdtReport expected = analyze_rdt(p);  // private analyses, serial
  // vector<char>, not vector<bool>: packed bits would share words across
  // threads and race.
  std::vector<char> agree(kThreads, 0);
  hammer([&](int t) {
    // All threads race the lazy chains()/closure() builds and then run the
    // full checker ladder on the shared instance.
    const RdtReport r = analyze_rdt(analyses);
    const PatternStats s = compute_stats(analyses);
    agree[static_cast<std::size_t>(t)] =
        r.definitional.ok == expected.definitional.ok &&
        r.cm.paths_checked == expected.cm.paths_checked &&
        r.pcm.paths_satisfied == expected.pcm.paths_satisfied &&
        r.mm.ok == expected.mm.ok && r.vcm.ok == expected.vcm.ok &&
        r.vpcm.ok == expected.vpcm.ok &&
        r.no_z_cycle.ok == expected.no_z_cycle.ok &&
        s.zreach_edges == s.causal_junctions + s.noncausal_junctions;
  });
  for (int t = 0; t < kThreads; ++t) EXPECT_TRUE(agree[static_cast<std::size_t>(t)]);
}

TEST(Threading, ParallelSweepMatchesSerialSweep) {
  const std::vector<ProtocolKind> kinds{ProtocolKind::kFdas,
                                        ProtocolKind::kBhmr};
  const auto generate = [](std::uint64_t seed) {
    return small_random_trace(seed);
  };
  const auto serial = sweep(generate, kinds, 8, /*threads=*/1, /*seed0=*/500);
  const auto parallel = sweep(generate, kinds, 8, kThreads, /*seed0=*/500);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].kind, parallel[i].kind);
    EXPECT_EQ(serial[i].total_messages, parallel[i].total_messages);
    EXPECT_EQ(serial[i].total_forced, parallel[i].total_forced);
    EXPECT_EQ(serial[i].r_forced_per_basic.mean,
              parallel[i].r_forced_per_basic.mean);
  }
}

}  // namespace
}  // namespace rdt
