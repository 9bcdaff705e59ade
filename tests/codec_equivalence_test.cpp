// Codecs change representation, never semantics. A replay encodes every
// payload with its codec and delivers the planes the sender wrote, so the
// receiver-side half is checked here: every payload of every replay in the
// grid, decoded by a separate receiving PiggybackCodec, must reproduce the
// sender's planes bit for bit and consume exactly the encoded bytes. On
// top, a replay through any codec must produce analysis results identical
// to the replay through kFlat, the byte-aligned reference layout — same
// counters, same per-reason attribution, same checkpoint pattern, same
// saved TDVs. This is the property the serving pool and the sweeps rely on
// when they report measured wire bits next to the flat comparison column.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "protocol_net.hpp"
#include "protocols/registry.hpp"
#include "sim/environments.hpp"
#include "sim/payload_arena.hpp"
#include "sim/protocol_driver.hpp"
#include "sim/replay.hpp"
#include "sim/runner.hpp"
#include "stream_fixtures.hpp"

namespace rdt {
namespace {

using test::Env;
using test::small_environments;

// Bit-identical payloads: the same TDV entries and index, and the same
// words in every bit-plane row.
bool same_planes(const PiggybackView& a, const PiggybackView& b) {
  if (!std::ranges::equal(a.tdv, b.tdv) || a.index != b.index || !(a.simple == b.simple) ||
      a.causal.rows() != b.causal.rows() || a.causal.cols() != b.causal.cols())
    return false;
  for (std::size_t r = 0; r < a.causal.rows(); ++r)
    if (!(a.causal.row(r) == b.causal.row(r))) return false;
  return true;
}

// Every protocol x every codec x every environment family x seed: drives
// the replay's ProtocolDriver over the trace and decodes each send's bytes
// at a receiving codec of its own, in trace order (the delta codec's
// channel order). The decoded planes must equal the sent ones and use up
// exactly the encoded bytes, and the measured bits must be the replay's.
TEST(CodecEquivalence, EveryPayloadDecodesBackToTheSentPlanes) {
  constexpr int kSeeds = 4;
  PayloadArena arena;
  for (const Env& env : small_environments()) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      const Trace trace = env.generate(seed);
      const int n = trace.num_processes;
      for (ProtocolKind kind : all_protocol_kinds()) {
        const PayloadShape shape = ProtocolRegistry::instance().info(kind).shape;
        PayloadArena received = test::payload_slots(n, shape, 1);
        for (int c = 0; c < kNumPiggybackCodecKinds; ++c) {
          const auto codec = static_cast<PiggybackCodecKind>(c);
          SCOPED_TRACE(env.name + "/" + to_string(kind) + "/" +
                       to_cstring(codec) + "/seed=" + std::to_string(seed));
          ProtocolDriver driver(kind, n, trace.messages.size(), codec, arena,
                                /*observer=*/nullptr,
                                /*save_tdv_history=*/false);
          PiggybackCodec receiver(codec, n, shape);
          int decoded = 0;
          for (const TraceOp& op : trace.ops) {
            if (op.kind == TraceOpKind::kBasicCkpt) {
              driver.basic_checkpoint(op.process);
              continue;
            }
            const TraceMessage& m = trace.messages[static_cast<std::size_t>(op.msg)];
            if (op.kind == TraceOpKind::kDeliver) {
              driver.deliver(m.sender, m.receiver, op.msg);
              continue;
            }
            driver.send(m.sender, m.receiver, op.msg);
            const auto bytes = arena.last_encoded();
            std::size_t offset = 0;
            receiver.decode(m.sender, m.receiver, bytes, offset, received.slot(0));
            ASSERT_EQ(offset, bytes.size()) << "message " << op.msg;
            ASSERT_TRUE(same_planes(received.view(0), arena.view(op.msg)))
                << "message " << op.msg;
            ++decoded;
          }
          EXPECT_EQ(decoded, trace.num_messages());
          EXPECT_EQ(driver.wire_bits_total(),
                    replay_metrics(trace, kind, nullptr, codec).wire_bits_total);
        }
      }
    }
  }
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
