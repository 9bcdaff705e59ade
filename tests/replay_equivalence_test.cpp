// The counters-only fast path and the arena-backed payload storage are
// optimizations, not semantic changes: for every protocol, environment and
// seed, the overhead counters of
//  * a full replay (pattern materialized, replay-owned storage),
//  * a counters-only replay (internal temporary arena), and
//  * a counters-only replay through a shared, warm PayloadArena
// must be identical, and the sweep aggregates must stay bit-identical for
// any thread count under the fused (seed x protocol) scheduler.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "protocols/registry.hpp"
#include "sim/environments.hpp"
#include "sim/payload_arena.hpp"
#include "sim/replay.hpp"
#include "sim/runner.hpp"
#include "stream_fixtures.hpp"

namespace rdt {
namespace {

using test::Env;
using test::small_environments;

TEST(ReplayEquivalence, FastPathAndArenaMatchFullReplay) {
  constexpr int kSeeds = 8;
  // One arena shared across ALL kinds/environments/seeds: shapes and trace
  // sizes change between replays, which is exactly the reuse pattern the
  // sweep runner exercises.
  PayloadArena shared;
  for (const Env& env : small_environments()) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      const Trace trace = env.generate(seed);
      for (ProtocolKind kind : all_protocol_kinds()) {
        SCOPED_TRACE(env.name + "/" + to_string(kind) +
                     "/seed=" + std::to_string(seed));
        const ReplayResult full = replay(trace, kind);
        const ReplayResult fast = replay_metrics(trace, kind);
        const ReplayResult arena = replay_metrics(trace, kind, &shared);

        for (const ReplayResult* r : {&fast, &arena}) {
          EXPECT_EQ(full.messages, r->messages);
          EXPECT_EQ(full.basic, r->basic);
          EXPECT_EQ(full.forced, r->forced);
          EXPECT_EQ(full.flat_bits_total, r->flat_bits_total);
        }
        // The full replay materializes; the fast paths only do under audits.
        EXPECT_TRUE(full.pattern_built);
        EXPECT_EQ(fast.pattern_built, kAuditsEnabled);
        if (!fast.pattern_built) {
          EXPECT_TRUE(fast.forced_ckpts.empty());
          EXPECT_TRUE(fast.saved_tdvs.empty());
        } else {
          EXPECT_EQ(full.forced_ckpts.size(), fast.forced_ckpts.size());
        }
      }
    }
  }
}

TEST(ReplayEquivalence, FusedParallelSweepIsBitIdenticalToSerial) {
  const auto generate = [](std::uint64_t seed) {
    RandomEnvConfig cfg;
    cfg.num_processes = 6;
    cfg.duration = 80.0;
    cfg.basic_ckpt_mean = 8.0;
    cfg.seed = seed;
    return random_environment(cfg);
  };
  const std::vector<ProtocolKind> kinds = all_protocol_kinds();
  const auto serial = sweep(generate, kinds, 9, /*threads=*/1);
  for (int threads : {2, 3, 7}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto parallel = sweep(generate, kinds, 9, threads);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].kind, parallel[i].kind);
      EXPECT_EQ(serial[i].total_messages, parallel[i].total_messages);
      EXPECT_EQ(serial[i].total_basic, parallel[i].total_basic);
      EXPECT_EQ(serial[i].total_forced, parallel[i].total_forced);
      // Bit-identical, not approximately equal: the fold order is fixed.
      EXPECT_EQ(serial[i].r_forced_per_basic.mean,
                parallel[i].r_forced_per_basic.mean);
      EXPECT_EQ(serial[i].r_forced_per_basic.stddev,
                parallel[i].r_forced_per_basic.stddev);
      EXPECT_EQ(serial[i].forced_per_message.mean,
                parallel[i].forced_per_message.mean);
      EXPECT_EQ(serial[i].wire_bits.mean, parallel[i].wire_bits.mean);
      EXPECT_EQ(serial[i].flat_bits.mean, parallel[i].flat_bits.mean);
    }
  }
}

TEST(ReplayEquivalence, ArenaRejectsOutOfRangeMessage) {
  PayloadArena arena;
  arena.reset(4, PayloadShape{.tdv = true}, 10, PiggybackCodecKind::kFlat);
  EXPECT_NO_THROW(arena.view(9));
  EXPECT_THROW(arena.view(10), std::invalid_argument);
  EXPECT_THROW(arena.slot(-1), std::invalid_argument);
}

}  // namespace
}  // namespace rdt
