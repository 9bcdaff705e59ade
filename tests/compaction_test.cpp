// Prefix compaction vs a keep-all engine: a retention-enabled OnlineEngine,
// compacted at arbitrary stream positions, must stay bit-identical on every
// query about retained state — across all protocol kinds, three
// environments and several seeds, also with 1% of the deliveries lost or
// delivered two compaction cadences late — while queries behind the
// retention horizon report kEvicted (never a guessed answer). Plus the
// exact horizon boundary (the at-line checkpoint is evicted, line+1 is
// retained), the automatic compaction cadence, the keep-all no-op
// contract, the retention caps a reset() applies to recycled capacity,
// flat resident memory on a stream with lost sends, and the suffix
// rebuild's fallback paths (a stalled process's re-pushed frontier, and
// compactions with no open frontier).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "ccp/builder.hpp"
#include "online/engine.hpp"
#include "protocols/registry.hpp"
#include "sim/environments.hpp"
#include "sim/replay.hpp"
#include "stream_fixtures.hpp"

namespace rdt {
namespace {

using test::delay_deliveries;
using test::drop_deliveries;
using test::record_replay;

// Manual-only compaction with no eviction floor: compact() folds whatever
// the recovery line allows, which makes every boundary observable.
RetentionPolicy eager_manual() {
  RetentionPolicy policy;
  policy.enabled = true;
  policy.compact_every_events = 0;
  policy.min_evictable_checkpoints = 1;
  return policy;
}

// Every query the two engines share, compared. `durable[p]` is the highest
// checkpoint index the stream produced for p; the z-reach sweep walks one
// index past it so the open frontier (and the first invalid id) are covered
// on both sides.
void expect_matches_keepall(const OnlineEngine& compacted,
                            const OnlineEngine& keepall,
                            const std::vector<CkptIndex>& durable) {
  ASSERT_EQ(compacted.num_processes(), keepall.num_processes());
  EXPECT_EQ(compacted.events_consumed(), keepall.events_consumed());
  EXPECT_EQ(compacted.is_rdt_so_far(), keepall.is_rdt_so_far());

  const StatsResult cs = compacted.stats();
  const StatsResult ks = keepall.stats();
  ASSERT_TRUE(cs.ok());
  ASSERT_TRUE(ks.ok());
  EXPECT_EQ(cs.value, ks.value);

  const RecoveryResult cr = compacted.recovery_line();
  const RecoveryResult kr = keepall.recovery_line();
  ASSERT_TRUE(cr.ok());
  ASSERT_TRUE(kr.ok());
  EXPECT_EQ(cr.value.line, kr.value.line);
  EXPECT_EQ(cr.value.rollback_intervals, kr.value.rollback_intervals);
  EXPECT_EQ(cr.value.total_rollback, kr.value.total_rollback);
  EXPECT_EQ(cr.value.worst_fraction, kr.value.worst_fraction);

  const int n = keepall.num_processes();
  const auto retained = [&](const CkptId& c) {
    return c.index >= compacted.first_retained(c.process);
  };
  for (ProcessId p = 0; p < n; ++p) {
    for (CkptIndex x = 0; x <= durable[static_cast<std::size_t>(p)] + 2; ++x) {
      for (ProcessId q = 0; q < n; ++q) {
        for (CkptIndex y = 0; y <= durable[static_cast<std::size_t>(q)] + 2;
             ++y) {
          const CkptId u{p, x}, v{q, y};
          const ZreachResult keep = keepall.zreach(u, v);
          const ZreachResult got = compacted.zreach(u, v);
          if (keep.status == QueryStatus::kInvalid) {
            // An id the stream never produced is invalid on both sides —
            // eviction never reclassifies nonsense as merely unanswerable.
            ASSERT_EQ(got.status, QueryStatus::kInvalid)
                << "zreach(" << u << ", " << v << ")";
          } else if (retained(u) && retained(v)) {
            ASSERT_EQ(got, keep) << "zreach(" << u << ", " << v << ")";
          } else {
            ASSERT_EQ(got.status, QueryStatus::kEvicted)
                << "zreach(" << u << ", " << v << ")";
          }
        }
      }
    }
  }
}

// What a sweep's streams did to the compacted engines, summed.
struct Tally {
  long long lost = 0;         // deliveries removed
  long long delayed = 0;      // deliveries moved later
  long long late_edges = 0;   // late_edges_collapsed at each stream's end
  long long parked_seen = 0;  // parked_sends summed over every cut
  long long parked_left = 0;  // parked_sends at each stream's end
};

// Feed the same stream into a compacted and a keep-all engine, compacting
// the former at `rounds` pseudo-random cut points (deterministic seed), and
// compare the full query surface after every compaction and at the end.
void check_compaction_equivalence(int num_processes,
                                  const std::vector<StreamEvent>& ops,
                                  std::uint32_t seed, int rounds,
                                  Tally& tally) {
  OnlineEngine compacted(EngineOptions{num_processes, eager_manual()});
  OnlineEngine keepall(EngineOptions{num_processes});
  std::vector<CkptIndex> durable(static_cast<std::size_t>(num_processes), 0);

  std::minstd_rand rng(seed);
  std::vector<std::size_t> cuts;
  for (int r = 0; r < rounds; ++r)
    cuts.push_back(rng() % (ops.size() + 1));
  std::sort(cuts.begin(), cuts.end());
  cuts.push_back(ops.size());

  std::size_t fed = 0;
  const std::span<const StreamEvent> all(ops);
  for (const std::size_t cut : cuts) {
    compacted.feed(all.subspan(fed, cut - fed));
    keepall.feed(all.subspan(fed, cut - fed));
    for (std::size_t i = fed; i < cut; ++i)
      if (ops[i].kind == EventKind::kCheckpoint)
        durable[static_cast<std::size_t>(ops[i].p)] = ops[i].index;
    fed = cut;
    compacted.compact();
    tally.parked_seen += compacted.retention_stats().parked_sends;
    expect_matches_keepall(compacted, keepall, durable);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_FALSE(keepall.retention_stats().enabled);
  const RetentionStats stats = compacted.retention_stats();
  EXPECT_TRUE(stats.enabled);
  tally.late_edges += stats.late_edges_collapsed;
  tally.parked_left += stats.parked_sends;
}

// The equivalence sweeps over the three environment families, on each
// recorded stream as is or in a variant. kLossy removes a seeded 1% of the
// deliveries (at least one): a lost send stays in flight for good, and
// compaction parks it once its send interval closes. kDelayed moves a
// seeded 1% of the deliveries at least two compaction cadences later (the
// mean spacing of 8 cuts), so parked sends are delivered late.
enum class Variant { kRecorded, kLossy, kDelayed };

void feed_stream(int num_processes, std::vector<StreamEvent> ops,
                 std::uint64_t seed, Variant variant, Tally& tally) {
  int rounds = 4;
  if (variant == Variant::kLossy) tally.lost += drop_deliveries(ops, seed);
  if (variant == Variant::kDelayed) {
    rounds = 8;
    tally.delayed += delay_deliveries(
        ops, seed, 2 * ops.size() / static_cast<std::size_t>(rounds));
  }
  check_compaction_equivalence(num_processes, ops,
                               static_cast<std::uint32_t>(seed), rounds,
                               tally);
}

void random_env_sweep(Variant variant, Tally& tally) {
  for (const ProtocolKind kind : all_protocol_kinds()) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(ProtocolRegistry::instance().info(kind).id + " seed " +
                   std::to_string(seed));
      RandomEnvConfig cfg;
      cfg.num_processes = 4;
      cfg.duration = 12.0;
      cfg.basic_ckpt_mean = 5.0;
      cfg.seed = seed;
      feed_stream(cfg.num_processes,
                  record_replay(random_environment(cfg), kind), seed,
                  variant, tally);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

void group_env_sweep(Variant variant, Tally& tally) {
  GroupEnvConfig cfg;
  cfg.num_groups = 2;
  cfg.group_size = 3;
  cfg.overlap = 1;
  cfg.duration = 10.0;
  cfg.basic_ckpt_mean = 5.0;
  for (const ProtocolKind kind : all_protocol_kinds()) {
    SCOPED_TRACE(ProtocolRegistry::instance().info(kind).id);
    cfg.seed += 1;
    feed_stream(cfg.num_processes(),
                record_replay(group_environment(cfg), kind), cfg.seed,
                variant, tally);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

void client_server_env_sweep(Variant variant, Tally& tally) {
  ClientServerEnvConfig cfg;
  cfg.num_servers = 3;
  cfg.num_requests = 8;
  cfg.basic_ckpt_mean = 5.0;
  for (const ProtocolKind kind : all_protocol_kinds()) {
    SCOPED_TRACE(ProtocolRegistry::instance().info(kind).id);
    cfg.seed += 1;
    feed_stream(cfg.num_processes(),
                record_replay(client_server_environment(cfg), kind),
                cfg.seed, variant, tally);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

Tally all_environments_sweep(Variant variant) {
  Tally tally;
  random_env_sweep(variant, tally);
  if (::testing::Test::HasFatalFailure()) return tally;
  group_env_sweep(variant, tally);
  if (::testing::Test::HasFatalFailure()) return tally;
  client_server_env_sweep(variant, tally);
  return tally;
}

TEST(CompactionEquivalence, RandomEnvAllProtocolsAllSeeds) {
  Tally tally;
  random_env_sweep(Variant::kRecorded, tally);
}

TEST(CompactionEquivalence, GroupEnvAllProtocols) {
  Tally tally;
  group_env_sweep(Variant::kRecorded, tally);
}

TEST(CompactionEquivalence, ClientServerEnvAllProtocols) {
  Tally tally;
  client_server_env_sweep(Variant::kRecorded, tally);
}

TEST(CompactionEquivalence, LossyDeliveriesAllEnvironmentsAllProtocols) {
  const Tally tally = all_environments_sweep(Variant::kLossy);
  EXPECT_GT(tally.lost, 0);
  EXPECT_GT(tally.parked_seen, 0);
}

// Parked sends delivered late: each late delivery must find its own parked
// row (a wrong row changes the TDV merge, the clocks and the R-graph edge,
// which the keep-all twin catches at the next cut), and once every delayed
// delivery has arrived nothing stays parked.
TEST(CompactionEquivalence, DelayedDeliveriesAllEnvironmentsAllProtocols) {
  const Tally tally = all_environments_sweep(Variant::kDelayed);
  EXPECT_GT(tally.delayed, 0);
  EXPECT_GT(tally.parked_seen, 0);
  EXPECT_GT(tally.late_edges, 0);
  EXPECT_EQ(tally.parked_left, 0);
}

// The horizon boundary, pinned exactly: after a compaction the checkpoint
// AT the recovery line is evicted (its Z-paths may run through the evicted
// region), line+1 is the first retained index, and an id past the frontier
// stays invalid, not evicted.
TEST(CompactionHorizon, ExactlyAtLineCheckpointsAreEvicted) {
  // Two isolated processes: with no messages every durable checkpoint is
  // valid, so the recovery line is simply (2, 2).
  const std::vector<StreamEvent> ops = {
      StreamEvent::checkpoint(0, 1), StreamEvent::checkpoint(1, 1),
      StreamEvent::internal(0),      StreamEvent::internal(1),
      StreamEvent::checkpoint(0, 2), StreamEvent::checkpoint(1, 2),
      StreamEvent::internal(0),      StreamEvent::internal(1),
  };
  OnlineEngine engine(EngineOptions{2, eager_manual()});
  engine.feed(ops);

  EXPECT_EQ(engine.first_retained(0), 0);
  EXPECT_EQ(engine.first_retained(1), 0);
  ASSERT_TRUE(engine.compact());
  EXPECT_EQ(engine.recovery_line().value.line.indices,
            (std::vector<CkptIndex>{2, 2}));
  EXPECT_EQ(engine.first_retained(0), 3);
  EXPECT_EQ(engine.first_retained(1), 3);

  // Behind the horizon, including exactly at the line: evicted.
  for (const CkptIndex x : {0, 1, 2}) {
    EXPECT_TRUE(engine.zreach({0, x}, {1, 3}).evicted()) << x;
    EXPECT_TRUE(engine.zreach({0, 3}, {1, x}).evicted()) << x;
  }
  // The open frontier interval (line+1) is retained and answerable.
  const ZreachResult frontier = engine.zreach({0, 3}, {1, 3});
  ASSERT_TRUE(frontier.ok());
  EXPECT_FALSE(frontier.value);  // isolated processes: no Z-path
  // Past the frontier, and off the process grid: invalid, not evicted.
  EXPECT_EQ(engine.zreach({0, 4}, {1, 3}).status, QueryStatus::kInvalid);
  EXPECT_EQ(engine.zreach({0, -7}, {1, 3}).status, QueryStatus::kInvalid);
  EXPECT_EQ(engine.zreach({2, 0}, {1, 3}).status, QueryStatus::kInvalid);

  // Nothing left to evict: the line cannot advance without new checkpoints.
  EXPECT_FALSE(engine.compact());

  const RetentionStats stats = engine.retention_stats();
  EXPECT_TRUE(stats.enabled);
  EXPECT_EQ(stats.compactions, 1);
  // Indices 0..2 on each of the two processes folded into summaries.
  EXPECT_EQ(stats.evicted_checkpoints, 6);
  EXPECT_GT(stats.resident_bytes, 0u);
}

// compact() on a keep-all engine is a contract-level no-op.
TEST(CompactionPolicy, KeepAllCompactIsANoOp) {
  OnlineEngine engine(EngineOptions{4});
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 12.0;
  cfg.basic_ckpt_mean = 5.0;
  cfg.seed = 31;
  engine.feed(record_replay(random_environment(cfg), ProtocolKind::kBhmr));
  EXPECT_FALSE(engine.compact());
  const RetentionStats stats = engine.retention_stats();
  EXPECT_FALSE(stats.enabled);
  EXPECT_EQ(stats.compactions, 0);
  for (ProcessId p = 0; p < 4; ++p) EXPECT_EQ(engine.first_retained(p), 0);
}

// The automatic cadence: a bounded policy compacts on its own while the
// stream is fed in batches, advances the horizon, and the surviving answers
// still match a keep-all twin.
TEST(CompactionAuto, CadencePolicyCompactsDuringFeed) {
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 60.0;
  cfg.basic_ckpt_mean = 4.0;
  cfg.seed = 17;
  const std::vector<StreamEvent> ops =
      record_replay(random_environment(cfg), ProtocolKind::kBhmr);

  RetentionPolicy policy = RetentionPolicy::bounded(/*every_events=*/128);
  policy.min_evictable_checkpoints = 4;
  OnlineEngine engine(EngineOptions{cfg.num_processes, policy});
  OnlineEngine keepall(EngineOptions{cfg.num_processes});
  std::vector<CkptIndex> durable(4, 0);

  const std::span<const StreamEvent> all(ops);
  constexpr std::size_t kBatch = 64;
  for (std::size_t i = 0; i < all.size(); i += kBatch) {
    const std::size_t n = std::min(kBatch, all.size() - i);
    engine.feed(all.subspan(i, n));
    keepall.feed(all.subspan(i, n));
  }
  for (const StreamEvent& op : ops)
    if (op.kind == EventKind::kCheckpoint)
      durable[static_cast<std::size_t>(op.p)] = op.index;

  const RetentionStats stats = engine.retention_stats();
  EXPECT_GT(stats.compactions, 0);
  EXPECT_GT(stats.evicted_checkpoints, 0);
  CkptIndex max_horizon = 0;
  for (ProcessId p = 0; p < 4; ++p)
    max_horizon = std::max(max_horizon, engine.first_retained(p));
  EXPECT_GT(max_horizon, 0);
  expect_matches_keepall(engine, keepall, durable);
}

// reset() under a retention policy caps the recycled capacity; the engine
// that comes back must still be bit-identical to a fresh one, and its
// accounted footprint must undercut a keep-all reset of an identically
// warmed twin (which preserves every arena).
TEST(CompactionReset, RetentionCapsRecycledCapacity) {
  RandomEnvConfig warm_cfg;
  warm_cfg.num_processes = 4;
  warm_cfg.duration = 60.0;
  warm_cfg.basic_ckpt_mean = 5.0;
  warm_cfg.seed = 41;
  const std::vector<StreamEvent> warm =
      record_replay(random_environment(warm_cfg), ProtocolKind::kNoForce);

  RetentionPolicy tight = eager_manual();
  tight.max_reset_message_capacity = 64;

  OnlineEngine capped(EngineOptions{4});
  OnlineEngine uncapped(EngineOptions{4});
  capped.feed(warm);
  uncapped.feed(warm);
  capped.reset(EngineOptions{4, tight});
  // Keep-all reset: every arena keeps its capacity.
  uncapped.reset(EngineOptions{4});
  EXPECT_LT(capped.retention_stats().resident_bytes,
            uncapped.retention_stats().resident_bytes);

  // The capped recycled engine still answers like a fresh engine.
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 12.0;
  cfg.basic_ckpt_mean = 5.0;
  cfg.seed = 42;
  const std::vector<StreamEvent> ops =
      record_replay(random_environment(cfg), ProtocolKind::kBhmr);
  OnlineEngine fresh(EngineOptions{4});
  capped.feed(ops);
  fresh.feed(ops);
  std::vector<CkptIndex> durable(4, 0);
  for (const StreamEvent& op : ops)
    if (op.kind == EventKind::kCheckpoint)
      durable[static_cast<std::size_t>(op.p)] = op.index;
  capped.compact();
  expect_matches_keepall(capped, fresh, durable);
}

// Compaction is cumulative: repeated compact() calls as the line advances
// keep folding, the horizon is monotone, and the counters only grow.
TEST(CompactionRepeated, HorizonIsMonotoneAcrossCompactions) {
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 40.0;
  cfg.basic_ckpt_mean = 4.0;
  cfg.seed = 53;
  const std::vector<StreamEvent> ops =
      record_replay(random_environment(cfg), ProtocolKind::kBhmr);

  OnlineEngine engine(EngineOptions{4, eager_manual()});
  const std::span<const StreamEvent> all(ops);
  std::vector<CkptIndex> horizon(4, 0);
  long long last_evicted = 0;
  constexpr std::size_t kSlices = 8;
  for (std::size_t s = 0; s < kSlices; ++s) {
    const std::size_t begin = all.size() * s / kSlices;
    const std::size_t end = all.size() * (s + 1) / kSlices;
    engine.feed(all.subspan(begin, end - begin));
    engine.compact();
    const RetentionStats stats = engine.retention_stats();
    EXPECT_GE(stats.evicted_checkpoints, last_evicted);
    last_evicted = stats.evicted_checkpoints;
    for (ProcessId p = 0; p < 4; ++p) {
      const CkptIndex h = engine.first_retained(p);
      EXPECT_GE(h, horizon[static_cast<std::size_t>(p)]) << "process " << p;
      horizon[static_cast<std::size_t>(p)] = h;
    }
  }
  EXPECT_GT(last_evicted, 0);
}

// The sends a compaction after ops[0, len) parks: every send not yet
// delivered that lies ahead of the first send whose interval is still open
// (the message window's walk stops there). Message ids are dense in send
// order, so a send's id is its index here.
long long expected_parked(const std::vector<StreamEvent>& ops, std::size_t len,
                          int num_processes) {
  std::vector<CkptIndex> durable(static_cast<std::size_t>(num_processes), 0);
  std::vector<std::pair<ProcessId, CkptIndex>> sends;  // sender, interval
  std::vector<bool> delivered;
  for (std::size_t i = 0; i < len; ++i) {
    const StreamEvent& e = ops[i];
    if (e.kind == EventKind::kSend) {
      sends.emplace_back(e.p, durable[static_cast<std::size_t>(e.p)] + 1);
      delivered.push_back(false);
    } else if (e.kind == EventKind::kDeliver) {
      delivered[static_cast<std::size_t>(e.msg)] = true;
    } else if (e.kind == EventKind::kCheckpoint) {
      durable[static_cast<std::size_t>(e.p)] = e.index;
    }
  }
  long long parked = 0;
  for (std::size_t m = 0; m < sends.size(); ++m) {
    const auto [sender, interval] = sends[m];
    if (interval > durable[static_cast<std::size_t>(sender)]) break;
    if (!delivered[m]) ++parked;
  }
  return parked;
}

// A lost send must not pin the message window: with one send of the first
// cadence and a seeded 0.1% of the later ones never delivered, a bounded
// engine keeps evicting message rows every cadence, parks exactly the
// undelivered sends whose interval has closed, and its resident bytes stay
// flat from cadence 4 to cadence 16.
TEST(CompactionLossy, ResidentBytesStayFlatWithLostSends) {
  constexpr std::size_t kCadence = 2048;
  constexpr int kCadences = 16;
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 4500.0;
  cfg.basic_ckpt_mean = 5.0;
  cfg.seed = 61;
  std::vector<StreamEvent> ops =
      record_replay(random_environment(cfg), ProtocolKind::kBhmr);
  const auto first_delivery =
      std::find_if(ops.begin(), ops.begin() + kCadence,
                   [](const StreamEvent& e) {
                     return e.kind == EventKind::kDeliver;
                   });
  ASSERT_NE(first_delivery, ops.begin() + kCadence);
  ops.erase(first_delivery);
  EXPECT_GT(drop_deliveries(ops, cfg.seed, 0.001), 0);
  ASSERT_GE(ops.size(), kCadence * kCadences);
  ops.resize(kCadence * kCadences);

  OnlineEngine engine(EngineOptions{cfg.num_processes,
                                    RetentionPolicy::bounded(kCadence)});
  const std::span<const StreamEvent> all(ops);
  std::size_t resident_at_4 = 0;
  long long evicted = 0;
  for (int c = 1; c <= kCadences; ++c) {
    SCOPED_TRACE("cadence " + std::to_string(c));
    engine.feed(all.subspan(static_cast<std::size_t>(c - 1) * kCadence,
                            kCadence));
    const RetentionStats stats = engine.retention_stats();
    EXPECT_EQ(stats.compactions, c);
    EXPECT_GT(stats.evicted_messages, evicted);
    evicted = stats.evicted_messages;
    EXPECT_EQ(stats.parked_sends,
              expected_parked(ops, static_cast<std::size_t>(c) * kCadence,
                              cfg.num_processes));
    if (c == 4) resident_at_4 = stats.resident_bytes;
  }
  EXPECT_LE(static_cast<double>(engine.retention_stats().resident_bytes),
            1.25 * static_cast<double>(resident_at_4));
}

// A hand-written stream with dense message ids and consecutive checkpoint
// indexes; durable[p] is the highest index appended for p so far.
struct Script {
  explicit Script(int num_processes)
      : durable(static_cast<std::size_t>(num_processes), 0) {}

  MsgId send(ProcessId p, ProcessId q) {
    ops.push_back(StreamEvent::send(next, p, q));
    return next++;
  }
  void deliver(MsgId m, ProcessId p, ProcessId q) {
    ops.push_back(StreamEvent::deliver(m, p, q));
  }
  void message(ProcessId p, ProcessId q) { deliver(send(p, q), p, q); }
  void internal(ProcessId p) { ops.push_back(StreamEvent::internal(p)); }
  void checkpoint(ProcessId p) {
    ops.push_back(
        StreamEvent::checkpoint(p, ++durable[static_cast<std::size_t>(p)]));
  }

  std::vector<StreamEvent> ops;
  std::vector<CkptIndex> durable;
  MsgId next = 0;
};

// A compacted engine and its keep-all twin, fed a Script in steps: each
// step feeds what was appended since the last one, compacts, and compares
// the full query surface.
struct Twins {
  explicit Twins(int num_processes)
      : compacted(EngineOptions{num_processes, eager_manual()}),
        keepall(EngineOptions{num_processes}) {}

  bool step(const Script& script) {
    const std::span<const StreamEvent> fresh =
        std::span<const StreamEvent>(script.ops).subspan(fed);
    compacted.feed(fresh);
    keepall.feed(fresh);
    fed = script.ops.size();
    const bool evicted = compacted.compact();
    expect_matches_keepall(compacted, keepall, script.durable);
    return evicted;
  }

  OnlineEngine compacted;
  OnlineEngine keepall;
  std::size_t fed = 0;
};

// The suffix rebuild's fallback: a compaction reads the R-graph logs only
// from the oldest retained node on, and a node re-pushed by an earlier
// rebuild has no mark to skip by. Here P2 stops checkpointing for four
// cadences while P0 and P1 keep going, so P2's open frontier stays the
// oldest retained node and predates every rebuild of the pause. Its first
// stalled send, to P3, is an edge between two retained nodes that every
// rebuild of the pause must carry over (P3's line waits behind it). Then
// P2 resumes and both horizons move again.
TEST(CompactionRebuild, StalledProcessFallsBackToAFullRebuild) {
  constexpr ProcessId kStalled = 2;
  constexpr ProcessId kBehind = 3;
  Script script(4);
  Twins twins(4);
  bool sent_behind = false;
  const auto round = [&](bool stalled) {
    script.message(0, 1);
    script.message(1, 0);
    script.message(0, kStalled);  // an in-edge into P2's open interval
    script.internal(kStalled);
    if (stalled && !sent_behind) {
      script.message(kStalled, kBehind);
      sent_behind = true;
    }
    if (!stalled) {
      script.message(kStalled, 1);
      script.checkpoint(kStalled);
    }
    script.internal(kBehind);
    script.checkpoint(0);
    script.checkpoint(1);
    script.checkpoint(kBehind);
    script.internal(0);
    script.internal(1);
  };
  const auto cadence = [&](bool stalled) {
    round(stalled);
    round(stalled);
    return twins.step(script);
  };

  for (int c = 0; c < 3; ++c) {
    ASSERT_TRUE(cadence(false));
    if (HasFatalFailure()) return;
  }
  const CkptIndex stalled_horizon = twins.compacted.first_retained(kStalled);
  EXPECT_EQ(stalled_horizon, script.durable[kStalled] + 1);
  CkptIndex behind_horizon = -1;
  for (int c = 0; c < 4; ++c) {
    const CkptIndex p0_horizon = twins.compacted.first_retained(0);
    ASSERT_TRUE(cadence(true));
    if (HasFatalFailure()) return;
    EXPECT_EQ(twins.compacted.first_retained(kStalled), stalled_horizon);
    EXPECT_GT(twins.compacted.first_retained(0), p0_horizon);
    if (c == 0) behind_horizon = twins.compacted.first_retained(kBehind);
    EXPECT_EQ(twins.compacted.first_retained(kBehind), behind_horizon);
  }
  // P3's checkpoint after the stalled send: retained behind it, and still
  // reached from P2's frontier.
  const CkptIndex reached = behind_horizon;
  EXPECT_LT(reached, script.durable[kBehind]);
  const ZreachResult edge =
      twins.compacted.zreach({kStalled, stalled_horizon}, {kBehind, reached});
  ASSERT_TRUE(edge.ok());
  EXPECT_TRUE(edge.value);
  for (int c = 0; c < 3; ++c) {
    ASSERT_TRUE(cadence(false));
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(twins.compacted.first_retained(kStalled), stalled_horizon);
  EXPECT_GT(twins.compacted.first_retained(kBehind), behind_horizon);
  EXPECT_EQ(twins.compacted.retention_stats().compactions, 10);
}

// A compaction while processes have no open frontier (their last event was
// a checkpoint): such a process contributes no retained node, and when
// none has one every node is evicted and the rebuild keeps nothing but the
// summaries. A send carried over each compaction is delivered after it, as
// a late edge out of its sender's summary node.
TEST(CompactionRebuild, ProcessesWithoutAnOpenFrontier) {
  Script script(3);
  Twins twins(3);
  MsgId carried = kNoMsg;
  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    if (carried != kNoMsg) script.deliver(carried, 0, 1);
    script.message(0, 1);
    script.message(1, 2);
    script.message(2, 0);
    carried = script.send(0, 1);
    for (ProcessId p = 0; p < 3; ++p) script.checkpoint(p);
    // Odd rounds leave P2 an open frontier; even ones leave none open.
    const bool p2_open = round % 2 == 1;
    if (p2_open) script.internal(2);
    ASSERT_TRUE(twins.step(script));
    if (HasFatalFailure()) return;
    for (ProcessId p = 0; p < 3; ++p) {
      // With no seed reaching a durable checkpoint the line is the durable
      // frontier, so only P2's open interval (when there is one) survives.
      EXPECT_EQ(twins.compacted.first_retained(p),
                script.durable[static_cast<std::size_t>(p)] + 1)
          << "process " << p;
    }
  }
  EXPECT_EQ(twins.compacted.retention_stats().late_edges_collapsed, 5);
}

}  // namespace
}  // namespace rdt
