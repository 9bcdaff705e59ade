// Zero-allocation guarantee of the counters-only replay path: with a warm
// PayloadArena, the number of heap allocations a replay performs is a
// function of (protocol kind, process count) ONLY — growing the trace adds
// messages, checkpoints and events but not a single extra allocation. This
// pins the arena contract ("no per-message heap allocation in steady
// state") as a test rather than a comment: any accidental per-message
// vector, Piggyback or node allocation shows up as a count difference.
//
// The same holds for ServePool's ingest handoff: once its buffers are warm,
// a pass of submits and the worker's apply loop allocate nothing per frame.
//
// The global operator new/delete overrides make this a dedicated binary;
// counts are taken around the measured calls only, with traces generated
// and the arena (or the pool) warmed beforehand.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "protocols/codec.hpp"
#include "serve/pool.hpp"
#include "serve/wire.hpp"
#include "sim/environments.hpp"
#include "sim/payload_arena.hpp"
#include "sim/replay.hpp"

namespace {

std::atomic<long long> g_allocs{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rdt {
namespace {

Trace make_trace(double duration) {
  RandomEnvConfig cfg;
  cfg.num_processes = 6;
  cfg.duration = duration;
  cfg.basic_ckpt_mean = 8.0;
  cfg.seed = 7;
  return random_environment(cfg);
}

long long allocs_during_replay(
    const Trace& trace, ProtocolKind kind, PayloadArena& arena,
    std::optional<PiggybackCodecKind> codec = std::nullopt) {
  const long long before = g_allocs.load(std::memory_order_relaxed);
  const ReplayResult r = replay_metrics(trace, kind, &arena, codec);
  const long long after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_GT(r.messages, 0);
  return after - before;
}

TEST(ZeroAllocation, ReplayAllocCountIsIndependentOfTraceSize) {
  if (kAuditsEnabled)
    GTEST_SKIP() << "audit builds materialize patterns on every replay";
  const Trace small = make_trace(60.0);
  const Trace large = make_trace(180.0);
  ASSERT_GT(large.num_messages(), 2 * small.num_messages());

  PayloadArena arena;
  for (ProtocolKind kind : all_protocol_kinds()) {
    SCOPED_TRACE(to_string(kind));
    // The default codec: the protocol's declared one. Warm: first replay
    // of the largest trace sizes the arena's planes and wire buffers.
    (void)allocs_during_replay(large, kind, arena);
    const long long on_small = allocs_during_replay(small, kind, arena);
    const long long on_large = allocs_during_replay(large, kind, arena);
    // Tripling the trace must not cost a single extra allocation: whatever
    // remains is per-replay setup (protocol instances, result struct),
    // proportional to the process count only.
    EXPECT_EQ(on_small, on_large);
  }
}

TEST(ZeroAllocation, WarmArenaReplayLoopStaysOffTheHeap) {
  if (kAuditsEnabled)
    GTEST_SKIP() << "audit builds materialize patterns on every replay";
  const Trace trace = make_trace(120.0);
  PayloadArena arena;
  for (ProtocolKind kind : all_protocol_kinds()) {
    SCOPED_TRACE(to_string(kind));
    // The default codec: the protocol's declared one.
    (void)allocs_during_replay(trace, kind, arena);
    const long long steady = allocs_during_replay(trace, kind, arena);
    // Per-replay setup for n=6 is a handful of protocol objects and their
    // fixed-size state; far below one allocation per message. The bound is
    // deliberately loose so protocol-state tweaks don't churn it, while a
    // per-message regression (hundreds of messages) trips it instantly.
    EXPECT_LT(steady, trace.num_messages() / 4)
        << "replay allocates proportionally to the message count";
  }
}

// Every explicit codec carves its wire buffers and channel shadows from the
// same arena: once warm, routing every payload through encode/decode adds
// zero allocations per message, for every codec kind.
TEST(ZeroAllocation, CodecPathAllocCountIsIndependentOfTraceSize) {
  if (kAuditsEnabled)
    GTEST_SKIP() << "audit builds materialize patterns on every replay";
  const Trace small = make_trace(60.0);
  const Trace large = make_trace(180.0);
  PayloadArena arena;
  for (ProtocolKind kind : all_protocol_kinds()) {
    for (int c = 0; c < kNumPiggybackCodecKinds; ++c) {
      const auto codec = static_cast<PiggybackCodecKind>(c);
      SCOPED_TRACE(std::string(to_string(kind)) + "/" + to_cstring(codec));
      (void)allocs_during_replay(large, kind, arena, codec);
      const long long on_small = allocs_during_replay(small, kind, arena,
                                                      codec);
      const long long on_large = allocs_during_replay(large, kind, arena,
                                                      codec);
      EXPECT_EQ(on_small, on_large);
    }
  }
}

// Submit copies each frame into a queue slot whose byte buffer kept its
// capacity from earlier frames; the worker swaps the whole queue for its
// batch and decodes into one reused Frame. Internal events leave the
// engines' feed path nothing to grow, so a warm pass allocates nothing per
// frame; the bound leaves room for a stray one-off growth, while a
// per-frame allocation anywhere on the path would cost one per submitted
// frame.
TEST(ZeroAllocation, ServeIngestPassStaysOffTheHeap) {
  if (kAuditsEnabled) GTEST_SKIP() << "audit builds cross-check every feed";
  constexpr std::size_t kQueueFrames = 4;
  constexpr int kSessions = 4;
  constexpr int kFramesPerSession = 64;
  constexpr long long kFramesPerPass = kSessions * kFramesPerSession;
  serve::ServePool pool(
      {.shards = 1, .num_processes = 4, .queue_frames = kQueueFrames});
  std::vector<std::vector<std::uint8_t>> frames(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    const auto id = static_cast<serve::SessionId>(s + 1);
    pool.open_session(id);
    const std::vector<StreamEvent> events(16, StreamEvent::internal(s));
    serve::encode_frame(id, events, frames[static_cast<std::size_t>(s)]);
  }
  auto pass = [&] {
    const long long before = g_allocs.load(std::memory_order_relaxed);
    for (int k = 0; k < kFramesPerSession; ++k)
      for (const std::vector<std::uint8_t>& frame : frames) pool.submit(frame);
    pool.drain();
    return g_allocs.load(std::memory_order_relaxed) - before;
  };
  (void)pass();  // warm: grows the slots' buffers and the worker's Frame
  const long long steady = pass();
  EXPECT_EQ(pool.shard_stats(0).frames, 2 * kFramesPerPass);
  EXPECT_LT(steady, kFramesPerPass / 8)
      << "the ingest handoff allocates per frame";
}

}  // namespace
}  // namespace rdt
