// OnlineEngine vs the batch pipeline: the engine's answers (RDT verdict,
// recovery outcome, z-reach matrix, stats) must be bit-identical to running
// the full batch analysis on the *closed prefix* — the events observed so
// far minus the sends of still-in-flight messages, finalized with virtual
// checkpoints — at EVERY prefix of the stream, across all protocol kinds,
// three environments and several seeds, each also with 1% of its
// deliveries lost; plus hand-built edge cases, a batched-vs-single
// bit-identity sweep over feed() batch sizes, the precondition-failure
// contract, and TSan-covered concurrent-reader cases whose every recovery
// answer must be one a serial twin gave at a batch boundary
// (OnlineConcurrency.*).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <latch>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ccp/builder.hpp"
#include "core/characterizations.hpp"
#include "core/pattern_stats.hpp"
#include "core/rdt_checker.hpp"
#include "online/engine.hpp"
#include "protocols/registry.hpp"
#include "recovery/recovery_line.hpp"
#include "sim/environments.hpp"
#include "sim/replay.hpp"
#include "stream_fixtures.hpp"

namespace rdt {
namespace {

using test::drop_deliveries;
using test::record_replay;

void feed_one(OnlineEngine& engine, const StreamEvent& op) {
  switch (op.kind) {
    case EventKind::kSend:
      engine.on_send(op.msg, op.p, op.q);
      break;
    case EventKind::kDeliver:
      engine.on_deliver(op.msg, op.p, op.q);
      break;
    case EventKind::kInternal:
      engine.on_internal(op.p);
      break;
    case EventKind::kCheckpoint:
      engine.on_checkpoint(op.p, op.index);
      break;
  }
}

// The batch pipeline's view of the prefix ops[0..len): drop sends whose
// delivery lies at or beyond len (message ids are remapped densely), close
// with virtual finals — exactly what the engine models.
Pattern closed_prefix(int num_processes, const std::vector<StreamEvent>& ops,
                      std::size_t len,
                      const std::vector<std::size_t>& deliver_pos) {
  PatternBuilder b(num_processes);
  std::vector<MsgId> remap(deliver_pos.size(), kNoMsg);
  for (std::size_t i = 0; i < len; ++i) {
    const StreamEvent& op = ops[i];
    switch (op.kind) {
      case EventKind::kSend:
        if (deliver_pos[static_cast<std::size_t>(op.msg)] < len)
          remap[static_cast<std::size_t>(op.msg)] = b.send(op.p, op.q);
        break;
      case EventKind::kDeliver:
        b.deliver(remap[static_cast<std::size_t>(op.msg)]);
        break;
      case EventKind::kInternal:
        b.internal(op.p);
        break;
      case EventKind::kCheckpoint:
        b.checkpoint(op.p);
        break;
    }
  }
  return b.build();
}

void expect_prefix_equivalence(const OnlineEngine& engine, const Pattern& pat,
                               std::size_t len) {
  SCOPED_TRACE("prefix length " + std::to_string(len));
  const RdtAnalyses analyses(pat);

  EXPECT_EQ(engine.is_rdt_so_far(), satisfies_rdt(analyses));

  const RecoveryOutcome online = engine.recovery_line().value;
  const RecoveryOutcome batch = recover_after_failure(pat, 0);
  EXPECT_EQ(online.line, batch.line);
  EXPECT_EQ(online.rollback_intervals, batch.rollback_intervals);
  EXPECT_EQ(online.total_rollback, batch.total_rollback);
  EXPECT_EQ(online.worst_fraction, batch.worst_fraction);  // bit-identical

  const PatternStats ps = compute_stats(analyses);
  const OnlineStats os = engine.stats().value;
  EXPECT_EQ(os.processes, ps.processes);
  EXPECT_EQ(os.messages, ps.messages);
  EXPECT_EQ(os.events, ps.events);
  EXPECT_EQ(os.checkpoints, ps.checkpoints);
  EXPECT_EQ(os.virtual_finals, ps.virtual_finals);
  EXPECT_EQ(os.causal_junctions, ps.causal_junctions);
  EXPECT_EQ(os.noncausal_junctions, ps.noncausal_junctions);

  const ReachabilityClosure& closure = analyses.closure();
  for (int u = 0; u < pat.total_ckpts(); ++u)
    for (int v = 0; v < pat.total_ckpts(); ++v)
      ASSERT_EQ(engine.zreach(pat.node_ckpt(u), pat.node_ckpt(v)),
                ZreachResult::make(closure.msg_reach(u, v)))
          << "zreach(" << pat.node_ckpt(u) << ", " << pat.node_ckpt(v) << ")";
}

// Every cheap live answer of the two engines, compared: the batched engine
// must be indistinguishable from the single-event one at each boundary.
void expect_same_live_state(const OnlineEngine& a, const OnlineEngine& b) {
  ASSERT_EQ(a.num_processes(), b.num_processes());
  EXPECT_EQ(a.events_consumed(), b.events_consumed());
  EXPECT_EQ(a.is_rdt_so_far(), b.is_rdt_so_far());
  EXPECT_EQ(a.stats().value, b.stats().value);
  for (ProcessId p = 0; p < a.num_processes(); ++p) {
    SCOPED_TRACE("process " + std::to_string(p));
    EXPECT_EQ(a.current_interval(p), b.current_interval(p));
    EXPECT_EQ(a.live_tdv(p), b.live_tdv(p));
    EXPECT_EQ(a.live_clock(p), b.live_clock(p));
  }
}

std::vector<std::size_t> deliver_positions(
    const std::vector<StreamEvent>& ops) {
  MsgId max_msg = -1;
  for (const StreamEvent& op : ops)
    if (op.msg > max_msg) max_msg = op.msg;
  std::vector<std::size_t> pos(static_cast<std::size_t>(max_msg + 1),
                               ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i)
    if (ops[i].kind == EventKind::kDeliver)
      pos[static_cast<std::size_t>(ops[i].msg)] = i;
  return pos;
}

void check_all_prefixes(int num_processes,
                        const std::vector<StreamEvent>& ops) {
  const std::vector<std::size_t> deliver_pos = deliver_positions(ops);
  OnlineEngine engine(EngineOptions{num_processes});
  expect_prefix_equivalence(
      engine, closed_prefix(num_processes, ops, 0, deliver_pos), 0);
  for (std::size_t len = 1; len <= ops.size(); ++len) {
    feed_one(engine, ops[len - 1]);
    expect_prefix_equivalence(
        engine, closed_prefix(num_processes, ops, len, deliver_pos), len);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// The equivalence sweep over one environment family: every protocol kind
// on seeds 1..8, `make(seed)` giving (process count, trace). The lossy
// variant drops a seeded 1% of each recorded stream's deliveries (at least
// one) and returns how many it dropped in total.
template <typename MakeTrace>
long long check_environment(MakeTrace make, bool lossy) {
  long long dropped = 0;
  for (const ProtocolKind kind : all_protocol_kinds()) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE(ProtocolRegistry::instance().info(kind).id + " seed " +
                   std::to_string(seed));
      const auto [num_processes, trace] = make(seed);
      std::vector<StreamEvent> ops = record_replay(trace, kind);
      if (lossy) dropped += drop_deliveries(ops, seed);
      check_all_prefixes(num_processes, ops);
      if (::testing::Test::HasFatalFailure()) return dropped;
    }
  }
  return dropped;
}

std::pair<int, Trace> random_env(std::uint64_t seed) {
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 12.0;
  cfg.basic_ckpt_mean = 5.0;
  cfg.seed = seed;
  return {cfg.num_processes, random_environment(cfg)};
}

std::pair<int, Trace> group_env(std::uint64_t seed) {
  GroupEnvConfig cfg;
  cfg.num_groups = 2;
  cfg.group_size = 3;
  cfg.overlap = 1;
  cfg.duration = 10.0;
  cfg.basic_ckpt_mean = 5.0;
  cfg.seed = seed;
  return {cfg.num_processes(), group_environment(cfg)};
}

std::pair<int, Trace> client_server_env(std::uint64_t seed) {
  ClientServerEnvConfig cfg;
  cfg.num_servers = 3;
  cfg.num_requests = 8;
  cfg.basic_ckpt_mean = 5.0;
  cfg.seed = seed;
  return {cfg.num_processes(), client_server_environment(cfg)};
}

TEST(OnlineEquivalence, RandomEnvironmentAllProtocolsAllSeeds) {
  check_environment(random_env, false);
}

TEST(OnlineEquivalence, GroupEnvironmentAllProtocolsAllSeeds) {
  check_environment(group_env, false);
}

TEST(OnlineEquivalence, ClientServerEnvironmentAllProtocolsAllSeeds) {
  check_environment(client_server_env, false);
}

// Lost deliveries: the sends stay in flight to the end of the stream, so
// the closed prefix never contains them.
TEST(OnlineEquivalence, LossyRandomEnvironmentAllProtocolsAllSeeds) {
  EXPECT_GT(check_environment(random_env, true), 0);
}

TEST(OnlineEquivalence, LossyGroupEnvironmentAllProtocolsAllSeeds) {
  EXPECT_GT(check_environment(group_env, true), 0);
}

TEST(OnlineEquivalence, LossyClientServerEnvironmentAllProtocolsAllSeeds) {
  EXPECT_GT(check_environment(client_server_env, true), 0);
}

// Edge cases a random environment rarely hits in one stream: an idle
// process, internal events, back-to-back checkpoints, a non-causal junction
// whose outgoing message is delivered much later (the deferred-verdict
// path), and trailing undelivered sends.
TEST(OnlineEquivalence, HandBuiltEdgeCases) {
  const ProcessId a = 0, b = 1, c = 2;  // process 3 stays idle throughout
  std::vector<StreamEvent> ops;
  const auto send = [&](MsgId m, ProcessId s, ProcessId r) {
    ops.push_back(StreamEvent::send(m, s, r));
  };
  const auto deliver = [&](MsgId m, ProcessId s, ProcessId r) {
    ops.push_back(StreamEvent::deliver(m, s, r));
  };
  const auto internal = [&](ProcessId p) {
    ops.push_back(StreamEvent::internal(p));
  };
  const auto checkpoint = [&](ProcessId p, CkptIndex x) {
    ops.push_back(StreamEvent::checkpoint(p, x));
  };

  internal(a);
  send(0, b, c);        // m0: b -> c, sent before b delivers m1 (non-causal
  send(1, a, b);        //     junction once both are delivered)
  deliver(1, a, b);
  checkpoint(b, 1);
  checkpoint(b, 2);     // back-to-back checkpoints (empty interval)
  send(2, c, a);        // m2 in flight across several checkpoints
  deliver(0, b, c);     // junction (m1, m0) materializes only here
  checkpoint(c, 1);
  deliver(2, c, a);
  checkpoint(a, 1);
  send(3, a, c);        // trailing undelivered send
  send(4, b, a);        // another, from a different process

  check_all_prefixes(4, ops);
}

// A junction discovered after its target checkpoint froze: m' is delivered
// at P2, P2 checkpoints, and only then is m delivered at P1 — the engine
// must judge the junction against the saved TDV history, not the live TDV.
TEST(OnlineEquivalence, JunctionAgainstFrozenTarget) {
  const std::vector<StreamEvent> ops = {
      StreamEvent::send(0, 1, 2),        // m' : P1 -> P2
      StreamEvent::deliver(0, 1, 2),
      StreamEvent::checkpoint(2, 1),     // target C_{2,1} freezes
      StreamEvent::send(1, 0, 1),        // m : P0 -> P1
      StreamEvent::deliver(1, 0, 1),     // junction (m, m') discovered now
      StreamEvent::checkpoint(0, 1),
      StreamEvent::checkpoint(1, 1),
  };
  check_all_prefixes(3, ops);
}

// zreach as an all-pairs table over hand-built shapes: want[u][v] says
// whether a Z-path leads from checkpoint u to checkpoint v (rows and
// columns in node order, process-major), and both the engine and the batch
// closure's msg_reach must reproduce the table exactly.
void expect_zreach_table(int num_processes, const std::vector<StreamEvent>& ops,
                         const std::vector<std::vector<int>>& want) {
  OnlineEngine engine(EngineOptions{num_processes});
  engine.feed(ops);
  const Pattern pat =
      closed_prefix(num_processes, ops, ops.size(), deliver_positions(ops));
  const RdtAnalyses analyses(pat);
  ASSERT_EQ(static_cast<std::size_t>(pat.total_ckpts()), want.size());
  for (int u = 0; u < pat.total_ckpts(); ++u)
    for (int v = 0; v < pat.total_ckpts(); ++v) {
      const bool expected = want[static_cast<std::size_t>(u)]
                                [static_cast<std::size_t>(v)] != 0;
      EXPECT_EQ(analyses.closure().msg_reach(u, v), expected)
          << pat.node_ckpt(u) << " -> " << pat.node_ckpt(v);
      EXPECT_EQ(engine.zreach(pat.node_ckpt(u), pat.node_ckpt(v)),
                ZreachResult::make(expected))
          << pat.node_ckpt(u) << " -> " << pat.node_ckpt(v);
    }
}

using SE = StreamEvent;

// P0 fans out to P1 and P2, both forward to P3: two routes into C_{3,1},
// none between the middle processes.
TEST(OnlineZreachTable, Diamond) {
  const std::vector<StreamEvent> ops = {
      SE::send(0, 0, 1),    SE::send(1, 0, 2),    SE::checkpoint(0, 1),
      SE::deliver(0, 0, 1), SE::send(2, 1, 3),    SE::checkpoint(1, 1),
      SE::deliver(1, 0, 2), SE::send(3, 2, 3),    SE::checkpoint(2, 1),
      SE::deliver(2, 1, 3), SE::deliver(3, 2, 3), SE::checkpoint(3, 1)};
  // clang-format off
  expect_zreach_table(4, ops, {
      //         C00 C01 C10 C11 C20 C21 C30 C31
      /* C00 */ {0,  0,  0,  1,  0,  1,  0,  1},
      /* C01 */ {0,  0,  0,  1,  0,  1,  0,  1},
      /* C10 */ {0,  0,  0,  0,  0,  0,  0,  1},
      /* C11 */ {0,  0,  0,  0,  0,  0,  0,  1},
      /* C20 */ {0,  0,  0,  0,  0,  0,  0,  1},
      /* C21 */ {0,  0,  0,  0,  0,  0,  0,  1},
      /* C30 */ {0,  0,  0,  0,  0,  0,  0,  0},
      /* C31 */ {0,  0,  0,  0,  0,  0,  0,  0},
  });
  // clang-format on
}

// P0 -> P1 -> P2 over several intervals: m2 reaches P1's second interval
// after m1 left it, so C_{0,2} reaches C_{2,1} only through that
// non-causal Z-path.
TEST(OnlineZreachTable, MultiLevelChain) {
  const std::vector<StreamEvent> ops = {
      SE::send(0, 0, 1),    SE::checkpoint(0, 1), SE::deliver(0, 0, 1),
      SE::checkpoint(1, 1), SE::send(1, 1, 2),    SE::send(2, 0, 1),
      SE::checkpoint(0, 2), SE::deliver(2, 0, 1), SE::deliver(1, 1, 2),
      SE::checkpoint(1, 2), SE::checkpoint(2, 1)};
  // clang-format off
  expect_zreach_table(3, ops, {
      //         C00 C01 C02 C10 C11 C12 C20 C21
      /* C00 */ {0,  0,  0,  0,  1,  1,  0,  1},
      /* C01 */ {0,  0,  0,  0,  1,  1,  0,  1},
      /* C02 */ {0,  0,  0,  0,  0,  1,  0,  1},
      /* C10 */ {0,  0,  0,  0,  0,  0,  0,  1},
      /* C11 */ {0,  0,  0,  0,  0,  0,  0,  1},
      /* C12 */ {0,  0,  0,  0,  0,  0,  0,  1},
      /* C20 */ {0,  0,  0,  0,  0,  0,  0,  0},
      /* C21 */ {0,  0,  0,  0,  0,  0,  0,  0},
  });
  // clang-format on
}

// A Z-path that leaves P0 and comes back to it: C_{0,1} reaches C_{0,2}
// only through P1, while C_{0,0} -> C_{0,1} and C_{0,2} -> C_{0,3} are
// process edges alone. A TDV compare answers yes for every such pair, so
// the same-process case needs the walk.
TEST(OnlineZreachTable, ZPathReturnsToItsProcess) {
  const std::vector<StreamEvent> ops = {
      SE::send(0, 0, 1),    SE::checkpoint(0, 1), SE::deliver(0, 0, 1),
      SE::send(1, 1, 0),    SE::checkpoint(1, 1), SE::deliver(1, 1, 0),
      SE::checkpoint(0, 2), SE::checkpoint(0, 3)};
  // clang-format off
  expect_zreach_table(2, ops, {
      //         C00 C01 C02 C03 C10 C11
      /* C00 */ {0,  0,  1,  1,  0,  1},
      /* C01 */ {0,  0,  1,  1,  0,  1},
      /* C02 */ {0,  0,  0,  0,  0,  0},
      /* C03 */ {0,  0,  0,  0,  0,  0},
      /* C10 */ {0,  0,  1,  1,  0,  0},
      /* C11 */ {0,  0,  1,  1,  0,  0},
  });
  // clang-format on
}

// feed() must be bit-identical to the same events fed one at a time: at
// every batch boundary the two engines answer every cheap query the same,
// and at the end the batched engine matches the batch pipeline exactly
// (including the full z-reach matrix).
void check_batched_vs_single(int num_processes,
                             const std::vector<StreamEvent>& ops,
                             std::size_t batch) {
  SCOPED_TRACE("batch size " + std::to_string(batch));
  OnlineEngine single(EngineOptions{num_processes});
  OnlineEngine batched(EngineOptions{num_processes});
  const std::span<const StreamEvent> all(ops);
  for (std::size_t i = 0; i < all.size(); i += batch) {
    const std::size_t n = std::min(batch, all.size() - i);
    batched.feed(all.subspan(i, n));
    for (std::size_t k = 0; k < n; ++k) feed_one(single, all[i + k]);
    expect_same_live_state(single, batched);
    if (::testing::Test::HasFatalFailure()) return;
  }
  const std::vector<std::size_t> deliver_pos = deliver_positions(ops);
  expect_prefix_equivalence(
      batched, closed_prefix(num_processes, ops, ops.size(), deliver_pos),
      ops.size());
}

TEST(OnlineBatched, MatchesSingleAllProtocolsEnvironmentsBatchSizes) {
  constexpr std::size_t kBatchSizes[] = {1, 7, 64, 4096};
  for (const ProtocolKind kind : all_protocol_kinds()) {
    SCOPED_TRACE(ProtocolRegistry::instance().info(kind).id);
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      RandomEnvConfig rnd;
      rnd.num_processes = 4;
      rnd.duration = 25.0;
      rnd.basic_ckpt_mean = 5.0;
      rnd.seed = seed;
      GroupEnvConfig grp;
      grp.num_groups = 2;
      grp.group_size = 3;
      grp.overlap = 1;
      grp.duration = 20.0;
      grp.basic_ckpt_mean = 5.0;
      grp.seed = seed;
      ClientServerEnvConfig cs;
      cs.num_servers = 3;
      cs.num_requests = 16;
      cs.basic_ckpt_mean = 5.0;
      cs.seed = seed;
      const struct {
        const char* name;
        int processes;
        std::vector<StreamEvent> ops;
      } envs[] = {
          {"random", rnd.num_processes,
           record_replay(random_environment(rnd), kind)},
          {"group", grp.num_processes(),
           record_replay(group_environment(grp), kind)},
          {"client_server", cs.num_processes(),
           record_replay(client_server_environment(cs), kind)},
      };
      for (const auto& env : envs) {
        SCOPED_TRACE(env.name);
        for (const std::size_t batch : kBatchSizes) {
          check_batched_vs_single(env.processes, env.ops, batch);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

// feed() with an empty span is a no-op, and a batch can span the whole
// stream in one call.
TEST(OnlineBatched, EmptyAndWholeStreamBatches) {
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 12.0;
  cfg.basic_ckpt_mean = 5.0;
  cfg.seed = 3;
  const std::vector<StreamEvent> ops =
      record_replay(random_environment(cfg), ProtocolKind::kBhmr);

  OnlineEngine engine(EngineOptions{cfg.num_processes});
  engine.feed({});  // no-op
  EXPECT_EQ(engine.events_consumed(), 0);
  engine.feed(ops);
  engine.feed({});
  EXPECT_EQ(engine.events_consumed(),
            static_cast<long long>(ops.size()));

  OnlineEngine single(EngineOptions{cfg.num_processes});
  for (const StreamEvent& op : ops) feed_one(single, op);
  expect_same_live_state(single, engine);
}

// Live state plus the recovery outcome.
void expect_same_state(const OnlineEngine& a, const OnlineEngine& b) {
  expect_same_live_state(a, b);
  const RecoveryOutcome ra = a.recovery_line().value;
  const RecoveryOutcome rb = b.recovery_line().value;
  EXPECT_EQ(ra.line, rb.line);
  EXPECT_EQ(ra.rollback_intervals, rb.rollback_intervals);
  EXPECT_EQ(ra.total_rollback, rb.total_rollback);
}

// The failure contract: a precondition failure at event k leaves exactly
// events [0, k) applied and visible, whether the bad event sits mid-batch
// or arrives through on_*, and the engine then takes the valid remainder.
TEST(OnlineBatched, FailureAtEventKLeavesPrefixAppliedAndVisible) {
  constexpr int kProcs = 3;
  const std::vector<StreamEvent> ops = {
      StreamEvent::send(0, 0, 1),
      StreamEvent::deliver(0, 0, 1),
      StreamEvent::internal(2),
      StreamEvent::send(1, 1, 2),
      StreamEvent::checkpoint(1, 1),
      StreamEvent::deliver(1, 1, 2),  // k: every bad event lands before this
      StreamEvent::send(2, 2, 0),
      StreamEvent::checkpoint(0, 1),
      StreamEvent::deliver(2, 2, 0),
      StreamEvent::checkpoint(2, 1),
  };
  constexpr std::size_t kFail = 5;
  const std::span<const StreamEvent> all(ops);
  const struct {
    const char* precondition;
    StreamEvent bad;
  } cases[] = {
      {"unknown id", StreamEvent::deliver(7, 1, 2)},
      {"double delivery", StreamEvent::deliver(0, 0, 1)},
      {"endpoint mismatch", StreamEvent::deliver(1, 1, 0)},
      {"non-dense id", StreamEvent::send(5, 0, 2)},
      {"skipped checkpoint index", StreamEvent::checkpoint(1, 3)},
      {"process out of range", StreamEvent::internal(kProcs)},
  };

  for (const auto& c : cases) {
    SCOPED_TRACE(c.precondition);
    OnlineEngine reference(EngineOptions{kProcs});
    reference.feed(all.first(kFail));

    // Mid-batch: [0, 2) committed earlier, then one batch holding
    // [2, k) + bad + the remainder.
    OnlineEngine batched(EngineOptions{kProcs});
    batched.feed(all.first(2));
    std::vector<StreamEvent> batch(ops.begin() + 2, ops.begin() + kFail);
    batch.push_back(c.bad);
    batch.insert(batch.end(), ops.begin() + kFail, ops.end());
    EXPECT_THROW(batched.feed(batch), std::invalid_argument);
    expect_same_state(reference, batched);

    // Through the listener entry points.
    OnlineEngine single(EngineOptions{kProcs});
    for (const StreamEvent& op : all.first(kFail)) feed_one(single, op);
    EXPECT_THROW(feed_one(single, c.bad), std::invalid_argument);
    expect_same_state(reference, single);

    // The valid remainder is still accepted.
    reference.feed(all.subspan(kFail));
    batched.feed(all.subspan(kFail));
    for (const StreamEvent& op : all.subspan(kFail)) feed_one(single, op);
    expect_same_state(reference, batched);
    expect_same_state(reference, single);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Redelivery of an id below the message window base, after compaction
// moved its row out of the window: `head` is fed and compacted, then
// tail[0, k), then `bad`, which must fail with "message already delivered"
// and leave exactly the events before it applied and visible — mid-batch
// and through on_* — before the valid remainder is accepted. The end state
// must match a keep-all engine fed head + tail.
void check_redelivery_below_window(const std::vector<StreamEvent>& head,
                                   const std::vector<StreamEvent>& tail,
                                   std::size_t k, const StreamEvent& bad,
                                   long long evicted, long long parked) {
  constexpr int kProcs = 2;
  RetentionPolicy manual = RetentionPolicy::bounded(0);
  manual.min_evictable_checkpoints = 1;
  const auto compacted = [&] {
    auto engine = std::make_unique<OnlineEngine>(EngineOptions{kProcs, manual});
    engine->feed(head);
    EXPECT_TRUE(engine->compact());
    const RetentionStats stats = engine->retention_stats();
    EXPECT_EQ(stats.evicted_messages, evicted);
    EXPECT_EQ(stats.parked_sends, parked);
    return engine;
  };
  const auto expect_already_delivered = [](auto&& feed_bad) {
    try {
      feed_bad();
      ADD_FAILURE() << "redelivery was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("message already delivered"),
                std::string::npos)
          << e.what();
    }
  };
  const std::span<const StreamEvent> all(tail);

  const auto reference = compacted();
  reference->feed(all.first(k));

  const auto batched = compacted();
  std::vector<StreamEvent> batch(tail.begin(), tail.begin() + k);
  batch.push_back(bad);
  batch.insert(batch.end(), tail.begin() + k, tail.end());
  expect_already_delivered([&] { batched->feed(batch); });
  expect_same_state(*reference, *batched);

  const auto single = compacted();
  for (const StreamEvent& op : all.first(k)) feed_one(*single, op);
  expect_already_delivered([&] { feed_one(*single, bad); });
  expect_same_state(*reference, *single);

  OnlineEngine keepall(EngineOptions{kProcs});
  keepall.feed(head);
  keepall.feed(tail);
  reference->feed(all.subspan(k));
  batched->feed(all.subspan(k));
  for (const StreamEvent& op : all.subspan(k)) feed_one(*single, op);
  expect_same_state(keepall, *reference);
  expect_same_state(keepall, *batched);
  expect_same_state(keepall, *single);
  EXPECT_EQ(reference->retention_stats().parked_sends, 0);
}

// m0's row was dropped: delivered, and its send interval closed.
TEST(OnlineBatched, RedeliveryOfDroppedRowFailsAtEventK) {
  check_redelivery_below_window(
      {StreamEvent::send(0, 0, 1), StreamEvent::deliver(0, 0, 1),
       StreamEvent::checkpoint(0, 1)},
      {StreamEvent::internal(1), StreamEvent::send(1, 1, 0),
       StreamEvent::deliver(1, 1, 0), StreamEvent::checkpoint(1, 1)},
      2, StreamEvent::deliver(0, 0, 1), /*evicted=*/1, /*parked=*/0);
}

// m1 was parked undelivered, then delivered late: its row was erased, so a
// second delivery is a redelivery like any other.
TEST(OnlineBatched, RedeliveryOfParkedSendFailsAtEventK) {
  check_redelivery_below_window(
      {StreamEvent::send(0, 0, 1), StreamEvent::send(1, 0, 1),
       StreamEvent::deliver(0, 0, 1), StreamEvent::checkpoint(0, 1)},
      {StreamEvent::internal(1), StreamEvent::deliver(1, 0, 1),
       StreamEvent::send(2, 1, 0), StreamEvent::deliver(2, 1, 0),
       StreamEvent::checkpoint(1, 1)},
      3, StreamEvent::deliver(1, 0, 1), /*evicted=*/1, /*parked=*/1);
}

// reset() must hand back an engine bit-identical to a freshly constructed
// one: warm an engine on one stream (optionally only part of it, so
// in-flight messages sit in the recycled pools), reset, then replay a
// different stream into the recycled and a fresh engine side by side —
// every live answer must match at each batch boundary, and the end state
// must match the batch pipeline exactly.
void check_reset_matches_fresh(int warm_processes,
                               const std::vector<StreamEvent>& warm,
                               std::size_t warm_len, int num_processes,
                               const std::vector<StreamEvent>& ops) {
  SCOPED_TRACE("warmed on " + std::to_string(warm_len) + " of " +
               std::to_string(warm.size()) + " events, reset " +
               std::to_string(warm_processes) + " -> " +
               std::to_string(num_processes) + " processes");
  OnlineEngine recycled(EngineOptions{warm_processes});
  recycled.feed(std::span<const StreamEvent>(warm).first(warm_len));
  recycled.reset(EngineOptions{num_processes});

  OnlineEngine fresh(EngineOptions{num_processes});
  expect_same_live_state(fresh, recycled);
  const std::span<const StreamEvent> all(ops);
  constexpr std::size_t kBatch = 32;
  for (std::size_t i = 0; i < all.size(); i += kBatch) {
    const std::size_t n = std::min(kBatch, all.size() - i);
    recycled.feed(all.subspan(i, n));
    fresh.feed(all.subspan(i, n));
    expect_same_live_state(fresh, recycled);
    if (::testing::Test::HasFatalFailure()) return;
  }
  const std::vector<std::size_t> deliver_pos = deliver_positions(ops);
  expect_prefix_equivalence(
      recycled, closed_prefix(num_processes, ops, ops.size(), deliver_pos),
      ops.size());
}

TEST(OnlineReset, RecycledEngineMatchesFreshSameProcessCount) {
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 12.0;
  cfg.basic_ckpt_mean = 5.0;
  cfg.seed = 21;
  const std::vector<StreamEvent> warm =
      record_replay(random_environment(cfg), ProtocolKind::kNoForce);
  cfg.seed = 22;
  const std::vector<StreamEvent> ops =
      record_replay(random_environment(cfg), ProtocolKind::kBhmr);

  check_reset_matches_fresh(4, warm, warm.size(), 4, ops);
  // Mid-stream reset: undelivered sends' TDVs/clocks go back to the pools.
  check_reset_matches_fresh(4, warm, warm.size() / 2, 4, ops);
}

TEST(OnlineReset, RecycledEngineMatchesFreshAcrossProcessCounts) {
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 12.0;
  cfg.basic_ckpt_mean = 5.0;
  cfg.seed = 23;
  const std::vector<StreamEvent> warm =
      record_replay(random_environment(cfg), ProtocolKind::kFdas);
  RandomEnvConfig narrow;
  narrow.num_processes = 3;
  narrow.duration = 12.0;
  narrow.basic_ckpt_mean = 5.0;
  narrow.seed = 24;
  const std::vector<StreamEvent> ops =
      record_replay(random_environment(narrow), ProtocolKind::kBhmr);

  check_reset_matches_fresh(4, warm, warm.size(), 3, ops);  // shrink
  check_reset_matches_fresh(3, ops, ops.size(), 4, warm);   // grow
}

TEST(OnlineReset, RepeatedResetStaysFresh) {
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 12.0;
  cfg.basic_ckpt_mean = 5.0;
  cfg.seed = 25;
  const std::vector<StreamEvent> ops =
      record_replay(random_environment(cfg), ProtocolKind::kBhmr);

  OnlineEngine recycled(EngineOptions{cfg.num_processes});
  OnlineEngine fresh(EngineOptions{cfg.num_processes});
  fresh.feed(ops);
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    recycled.reset(EngineOptions{cfg.num_processes});
    EXPECT_EQ(recycled.events_consumed(), 0);
    recycled.feed(ops);
    expect_same_live_state(fresh, recycled);
    if (::testing::Test::HasFatalFailure()) return;
  }
  const std::vector<std::size_t> deliver_pos = deliver_positions(ops);
  expect_prefix_equivalence(
      recycled,
      closed_prefix(cfg.num_processes, ops, ops.size(), deliver_pos),
      ops.size());
}

bool same_answer(const RecoveryOutcome& a, const RecoveryOutcome& b) {
  return a.line == b.line && a.rollback_intervals == b.rollback_intervals &&
         a.total_rollback == b.total_rollback &&
         a.worst_fraction == b.worst_fraction;
}
bool same_answer(const ZreachResult& a, const ZreachResult& b) {
  return a == b;
}

// query(twin) at every batch boundary of a serial keep-all twin fed `ops`
// in `batch`-event batches; [0] is the empty engine's.
template <typename Query>
auto boundary_answers(int num_processes, const std::vector<StreamEvent>& ops,
                      std::size_t batch, Query query) {
  OnlineEngine twin(EngineOptions{num_processes});
  std::vector<decltype(query(twin))> out{query(twin)};
  const std::span<const StreamEvent> all(ops);
  for (std::size_t i = 0; i < all.size(); i += batch) {
    twin.feed(all.subspan(i, std::min(batch, all.size() - i)));
    out.push_back(query(twin));
  }
  return out;
}

std::vector<RecoveryOutcome> boundary_outcomes(
    int num_processes, const std::vector<StreamEvent>& ops,
    std::size_t batch) {
  return boundary_answers(num_processes, ops, batch,
                          [](const OnlineEngine& twin) {
                            return twin.recovery_line().value;
                          });
}

// One reader's position among the boundary answers. A concurrent answer
// is a snapshot taken between two batches, so it must equal the answer at
// some boundary, and a later answer can never match an earlier boundary.
template <typename T>
class BoundaryCursor {
 public:
  explicit BoundaryCursor(const std::vector<T>& answers) : answers_(answers) {}

  // Moves to the first boundary at or after the current one whose answer
  // equals `got`; false (and no move) when there is none.
  bool advance(const T& got) {
    for (std::size_t k = at_; k < answers_.size(); ++k) {
      if (same_answer(answers_[k], got)) {
        at_ = k;
        return true;
      }
    }
    return false;
  }

 private:
  const std::vector<T>& answers_;
  std::size_t at_ = 0;
};

TEST(OnlineConcurrency, QueriesDuringFeed) {
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 160.0;
  cfg.basic_ckpt_mean = 8.0;
  cfg.seed = 7;
  const std::vector<StreamEvent> ops =
      record_replay(random_environment(cfg), ProtocolKind::kBhmr);

  const std::vector<RecoveryOutcome> outcomes =
      boundary_outcomes(cfg.num_processes, ops, 1);
  // One Z-path query per reader. Each is kInvalid until both checkpoints
  // exist, then false for 30-odd boundaries, then true for good.
  const std::pair<CkptId, CkptId> pairs[3] = {{{0, 12}, {3, 15}},
                                              {{2, 5}, {3, 7}},
                                              {{0, 11}, {1, 15}}};
  std::vector<std::vector<ZreachResult>> reach_answers;
  for (const auto& pair : pairs) {
    reach_answers.push_back(boundary_answers(
        cfg.num_processes, ops, 1, [&pair](const OnlineEngine& twin) {
          return twin.zreach(pair.first, pair.second);
        }));
  }
  OnlineEngine engine(EngineOptions{cfg.num_processes});
  std::atomic<bool> done{false};
  std::atomic<long long> off_boundary{0};
  std::atomic<long long> reach_off_boundary{0};
  // The feed starts once every reader has run one round of queries.
  std::latch latch(3);

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      BoundaryCursor cursor(outcomes);
      BoundaryCursor reach_cursor(reach_answers[static_cast<std::size_t>(t)]);
      const auto [from, to] = pairs[t];
      long long sink = 0;
      for (bool first = true; first || !done.load(std::memory_order_acquire);
           first = false) {
        sink += engine.is_rdt_so_far() ? 1 : 0;
        if (!cursor.advance(engine.recovery_line().value)) ++off_boundary;
        sink += engine.stats().value.noncausal_junctions;
        if (!reach_cursor.advance(engine.zreach(from, to)))
          ++reach_off_boundary;
        sink += engine.live_tdv(0).size();
        if (first) latch.count_down();
      }
      EXPECT_GE(sink, 0);
    });
  }

  latch.wait();
  for (const StreamEvent& op : ops) feed_one(engine, op);
  done.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(off_boundary.load(), 0);
  EXPECT_EQ(reach_off_boundary.load(), 0);
  // Each pair's twin answers run kInvalid, false, true, so the readers'
  // answers are checked against all three kinds in their order.
  for (const std::vector<ZreachResult>& answers : reach_answers) {
    EXPECT_EQ(answers.front(), ZreachResult::invalid_result());
    EXPECT_NE(std::find(answers.begin(), answers.end(),
                        ZreachResult::make(false)),
              answers.end());
    EXPECT_EQ(answers.back(), ZreachResult::make(true));
  }

  // The feed's end state must still match the batch pipeline exactly.
  const std::vector<std::size_t> deliver_pos = deliver_positions(ops);
  expect_prefix_equivalence(
      engine,
      closed_prefix(cfg.num_processes, ops, ops.size(), deliver_pos),
      ops.size());
}

// The seqlock torture case: one feeder streaming batches while FOUR reader
// threads hammer every query — the wait-free ones (which retry under the
// seqlock) and the heavy cached ones (which serialize on the reader mutex
// only). Run under TSan in CI, this is the proof the read path takes no
// lock the feeder holds; every recovery answer must be a batch boundary's,
// and the end state must still be exact.
TEST(OnlineConcurrency, SeqlockTortureFourReaders) {
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 240.0;
  cfg.basic_ckpt_mean = 8.0;
  cfg.seed = 11;
  const std::vector<StreamEvent> ops =
      record_replay(random_environment(cfg), ProtocolKind::kBhmr);

  constexpr std::size_t kBatch = 64;
  const std::vector<RecoveryOutcome> outcomes =
      boundary_outcomes(cfg.num_processes, ops, kBatch);
  OnlineEngine engine(EngineOptions{cfg.num_processes});
  std::atomic<bool> done{false};
  std::atomic<long long> off_boundary{0};
  // The feed starts once every reader has run one round of queries.
  std::latch latch(4);

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&engine, &done, &outcomes, &off_boundary, &latch,
                          t] {
      BoundaryCursor cursor(outcomes);
      long long sink = 0;
      ProcessId p = static_cast<ProcessId>(t % engine.num_processes());
      for (bool first = true; first || !done.load(std::memory_order_acquire);
           first = false) {
        sink += engine.is_rdt_so_far() ? 1 : 0;
        sink += engine.events_consumed();
        sink += engine.current_interval(p);
        sink += engine.live_tdv(p).back();
        sink += engine.live_clock(p).get(p);
        const OnlineStats s = engine.stats().value;
        sink += s.events + s.checkpoints;
        if (t % 2 == 0) {
          if (!cursor.advance(engine.recovery_line().value)) ++off_boundary;
          sink += engine.zreach({p, 0}, {0, 0}).value ? 1 : 0;
        }
        p = static_cast<ProcessId>((p + 1) % engine.num_processes());
        if (first) latch.count_down();
      }
      EXPECT_GE(sink, 0);
    });
  }

  latch.wait();
  const std::span<const StreamEvent> all(ops);
  for (std::size_t i = 0; i < all.size(); i += kBatch)
    engine.feed(all.subspan(i, std::min(kBatch, all.size() - i)));
  done.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(off_boundary.load(), 0);

  const std::vector<std::size_t> deliver_pos = deliver_positions(ops);
  expect_prefix_equivalence(
      engine,
      closed_prefix(cfg.num_processes, ops, ops.size(), deliver_pos),
      ops.size());
}

// Readers racing compaction: the feeder interleaves feed() batches with
// compact() passes (which rebuild the published logs under the seqlock and
// the reader-cache under its mutex) while three reader threads hammer every
// query — including zreach on ids that cross the moving retention horizon,
// whose status may legitimately flip to kEvicted but must never tear or
// return a guessed value. Run under TSan in CI; every recovery answer must
// be a batch boundary's, and the retained end state must still match a
// keep-all engine's.
TEST(OnlineConcurrency, ReadersAcrossCompaction) {
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 240.0;
  cfg.basic_ckpt_mean = 4.0;
  cfg.seed = 19;
  const std::vector<StreamEvent> ops =
      record_replay(random_environment(cfg), ProtocolKind::kBhmr);

  RetentionPolicy policy;
  policy.enabled = true;
  policy.compact_every_events = 0;  // the feeder compacts explicitly below
  policy.min_evictable_checkpoints = 1;
  // Compaction never moves the recovery line, so the keep-all twin's
  // boundary outcomes hold for the compacted engine too.
  constexpr std::size_t kBatch = 48;
  const std::vector<RecoveryOutcome> outcomes =
      boundary_outcomes(cfg.num_processes, ops, kBatch);
  OnlineEngine engine(EngineOptions{cfg.num_processes, policy});
  std::atomic<bool> done{false};
  std::atomic<long long> off_boundary{0};
  // The feed starts once every reader has run one round of queries.
  std::latch latch(3);

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&engine, &done, &outcomes, &off_boundary, &latch,
                          t] {
      BoundaryCursor cursor(outcomes);
      long long sink = 0;
      ProcessId p = static_cast<ProcessId>(t % engine.num_processes());
      for (bool first = true; first || !done.load(std::memory_order_acquire);
           first = false) {
        sink += engine.is_rdt_so_far() ? 1 : 0;
        sink += engine.stats().value.checkpoints;
        sink += engine.first_retained(p);
        sink += engine.retention_stats().evicted_checkpoints;
        const ZreachResult z = engine.zreach({p, 0}, {0, 0});
        sink += z.ok() && z.value ? 1 : 0;
        if (!cursor.advance(engine.recovery_line().value)) ++off_boundary;
        p = static_cast<ProcessId>((p + 1) % engine.num_processes());
        if (first) latch.count_down();
      }
      EXPECT_GE(sink, 0);
    });
  }

  latch.wait();
  const std::span<const StreamEvent> all(ops);
  std::size_t batches = 0;
  for (std::size_t i = 0; i < all.size(); i += kBatch) {
    engine.feed(all.subspan(i, std::min(kBatch, all.size() - i)));
    if (++batches % 4 == 0) engine.compact();
  }
  engine.compact();
  done.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(off_boundary.load(), 0);

  // Retained-state answers still match a keep-all engine.
  OnlineEngine keepall(EngineOptions{cfg.num_processes});
  keepall.feed(ops);
  EXPECT_EQ(engine.is_rdt_so_far(), keepall.is_rdt_so_far());
  EXPECT_EQ(engine.stats().value, keepall.stats().value);
  const RecoveryOutcome got = engine.recovery_line().value;
  const RecoveryOutcome want = keepall.recovery_line().value;
  EXPECT_EQ(got.line, want.line);
  EXPECT_EQ(got.total_rollback, want.total_rollback);
  EXPECT_GT(engine.retention_stats().compactions, 0);
}

}  // namespace
}  // namespace rdt
