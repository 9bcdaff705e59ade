// Codecs change representation, never semantics: a replay whose payloads
// travel through any PiggybackCodec must produce analysis results
// bit-identical to the replay through kFlat, the byte-aligned reference
// layout — same counters, same per-reason attribution, same checkpoint
// pattern, same saved TDVs. This is the property the serving pool and the
// sweeps rely on when they report measured wire bits next to the flat
// comparison column.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "protocols/registry.hpp"
#include "sim/environments.hpp"
#include "sim/payload_arena.hpp"
#include "sim/replay.hpp"
#include "sim/runner.hpp"

namespace rdt {
namespace {

struct Env {
  std::string name;
  std::function<Trace(std::uint64_t)> generate;
};

std::vector<Env> small_environments() {
  std::vector<Env> envs;
  envs.push_back({"random", [](std::uint64_t seed) {
                    RandomEnvConfig cfg;
                    cfg.num_processes = 6;
                    cfg.duration = 80.0;
                    cfg.basic_ckpt_mean = 8.0;
                    cfg.seed = seed;
                    return random_environment(cfg);
                  }});
  envs.push_back({"group", [](std::uint64_t seed) {
                    GroupEnvConfig cfg;
                    cfg.num_groups = 3;
                    cfg.group_size = 3;
                    cfg.overlap = 1;
                    cfg.duration = 80.0;
                    cfg.basic_ckpt_mean = 8.0;
                    cfg.seed = seed;
                    return group_environment(cfg);
                  }});
  envs.push_back({"client_server", [](std::uint64_t seed) {
                    ClientServerEnvConfig cfg;
                    cfg.num_servers = 5;
                    cfg.num_requests = 60;
                    cfg.basic_ckpt_mean = 8.0;
                    cfg.seed = seed;
                    return client_server_environment(cfg);
                  }});
  return envs;
}

// Every protocol x every codec x every environment family: the counters a
// sweep aggregates must match the flat reference codec's.
TEST(CodecEquivalence, EveryCodecMatchesFlatPathCounters) {
  constexpr int kSeeds = 4;
  PayloadArena shared;
  for (const Env& env : small_environments()) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      const Trace trace = env.generate(seed);
      for (ProtocolKind kind : all_protocol_kinds()) {
        const ReplayResult flat = replay_metrics(trace, kind, &shared, PiggybackCodecKind::kFlat);
        for (int c = 0; c < kNumPiggybackCodecKinds; ++c) {
          const auto codec = static_cast<PiggybackCodecKind>(c);
          SCOPED_TRACE(env.name + "/" + to_string(kind) + "/" +
                       to_cstring(codec) + "/seed=" + std::to_string(seed));
          const ReplayResult wire = replay_metrics(trace, kind, &shared, codec);
          EXPECT_EQ(flat.messages, wire.messages);
          EXPECT_EQ(flat.basic, wire.basic);
          EXPECT_EQ(flat.forced, wire.forced);
          EXPECT_EQ(flat.forced_by_reason, wire.forced_by_reason);
          EXPECT_EQ(flat.flat_bits_total, wire.flat_bits_total);
          // The flat codec is the byte-aligned reference layout: whole
          // bytes per message, never below the analytic bit count (bit
          // planes round up to bytes). The clever codecs may land on
          // either side of the analytic column (sparse inflates dense
          // planes), which is exactly why the sweeps *measure*.
          if (codec == PiggybackCodecKind::kFlat) {
            EXPECT_EQ(wire.wire_bits_total % 8, 0u);
            EXPECT_GE(wire.wire_bits_total, flat.flat_bits_total);
          }
        }
      }
    }
  }
}

// Stronger than counters: the materialized checkpoint pattern, the forced
// checkpoint inventory and the saved TDVs are identical object by object
// under the protocol's *declared* codec.
TEST(CodecEquivalence, DeclaredCodecPreservesThePattern) {
  for (const Env& env : small_environments()) {
    const Trace trace = env.generate(3);
    for (ProtocolKind kind : all_protocol_kinds()) {
      SCOPED_TRACE(env.name + "/" + to_string(kind));
      const ReplayResult flat = replay(trace, kind, {.wire_codec = PiggybackCodecKind::kFlat});
      const ReplayResult wire = replay(trace, kind);

      ASSERT_TRUE(flat.pattern_built);
      ASSERT_TRUE(wire.pattern_built);
      ASSERT_EQ(flat.pattern.num_processes(), wire.pattern.num_processes());
      for (ProcessId p = 0; p < flat.pattern.num_processes(); ++p)
        EXPECT_EQ(flat.pattern.num_ckpts(p), wire.pattern.num_ckpts(p));
      EXPECT_EQ(flat.forced_ckpts, wire.forced_ckpts);
      EXPECT_EQ(flat.saved_tdvs, wire.saved_tdvs);
    }
  }
}

// The wire measurement feeds the sweep aggregates: payload-carrying
// protocols report strictly positive measured bits bounded by the flat
// column; payload-free ones report zero on both.
TEST(CodecEquivalence, SweepWireBitsAreMeasuredAndBounded) {
  const auto generate = [](std::uint64_t seed) {
    RandomEnvConfig cfg;
    cfg.num_processes = 6;
    cfg.duration = 80.0;
    cfg.basic_ckpt_mean = 8.0;
    cfg.seed = seed;
    return random_environment(cfg);
  };
  const std::vector<ProtocolKind> kinds = all_protocol_kinds();
  const auto stats = sweep(generate, kinds, 5, /*threads=*/1);
  for (const ProtocolStats& s : stats) {
    SCOPED_TRACE(to_string(s.kind));
    const PayloadShape shape = ProtocolRegistry::instance().info(s.kind).shape;
    const bool carries =
        shape.tdv || shape.simple || shape.causal || shape.index;
    if (carries) {
      EXPECT_GT(s.wire_bits.mean, 0.0);
      EXPECT_LE(s.wire_bits.mean, s.flat_bits.mean);
    } else {
      EXPECT_EQ(s.wire_bits.mean, 0.0);
      EXPECT_EQ(s.flat_bits.mean, 0.0);
    }
  }
}

// Degenerate traces stay degenerate through the codec path: no messages
// means no wire bits and no decode calls, with or without checkpoints.
TEST(CodecEquivalence, MessageFreeTraces) {
  Trace empty;
  empty.num_processes = 2;
  Trace ckpts_only;
  ckpts_only.num_processes = 3;
  ckpts_only.ops.push_back(
      {.kind = TraceOpKind::kBasicCkpt, .time = 1.0, .process = 0});
  ckpts_only.ops.push_back(
      {.kind = TraceOpKind::kBasicCkpt, .time = 2.0, .process = 2});
  for (const Trace* trace : {&empty, &ckpts_only}) {
    for (ProtocolKind kind : all_protocol_kinds()) {
      for (int c = 0; c < kNumPiggybackCodecKinds; ++c) {
        SCOPED_TRACE(to_string(kind));
        const ReplayResult r = replay_metrics(
            *trace, kind, nullptr, static_cast<PiggybackCodecKind>(c));
        EXPECT_EQ(r.messages, 0);
        EXPECT_EQ(r.forced, 0);
        EXPECT_EQ(r.wire_bits_total, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace rdt
