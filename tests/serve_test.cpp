// ServePool vs standalone OnlineEngine: every session served by the pool
// must answer its queries bit-identically to one engine fed the same
// events — across all protocol kinds, three environments and several shard
// counts, with *heterogeneous* streams (each session gets a different
// trace, so a cross-session mixup cannot cancel out). Plus the lifecycle
// error contract, malformed-frame rejection accounting, engine recycling,
// and the ServeConcurrency.* cases the TSan CI job runs: many producer
// threads and dedicated query threads hammering the pool at once.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "online/engine.hpp"
#include "protocols/registry.hpp"
#include "serve/driver.hpp"
#include "serve/pool.hpp"
#include "serve/wire.hpp"
#include "sim/environments.hpp"
#include "sim/replay.hpp"
#include "golden_hash.hpp"
#include "stream_fixtures.hpp"

namespace rdt::serve {
namespace {

using test::record_replay;

// encode_frame takes a span, which a braced event list cannot bind to;
// tests building literal frames route through this vector-taking wrapper.
void encode_events(SessionId session, const std::vector<StreamEvent>& events,
                   std::vector<std::uint8_t>& out) {
  encode_frame(session, events, out);
}

// Chop a stream into wire frames of `batch` events and submit them all.
void submit_stream(ServePool& pool, SessionId session,
                   std::span<const StreamEvent> events, std::size_t batch) {
  std::vector<std::uint8_t> frame;
  for (std::size_t i = 0; i < events.size(); i += batch) {
    frame.clear();
    encode_frame(session, events.subspan(i, std::min(batch, events.size() - i)),
                 frame);
    pool.submit(frame);
  }
}

// The pooled session must be indistinguishable from a standalone engine fed
// the same events, on every public query.
void expect_matches_standalone(const ServePool& pool, SessionId session,
                               const OnlineEngine& standalone) {
  SCOPED_TRACE("session " + std::to_string(session));
  EXPECT_EQ(pool.events_consumed(session), standalone.events_consumed());
  EXPECT_EQ(pool.is_rdt_so_far(session), standalone.is_rdt_so_far());
  EXPECT_EQ(pool.session_stats(session), standalone.stats());
  const RecoveryOutcome pooled = pool.recovery_line(session).value;
  const RecoveryOutcome direct = standalone.recovery_line().value;
  EXPECT_EQ(pooled.line, direct.line);
  EXPECT_EQ(pooled.rollback_intervals, direct.rollback_intervals);
  EXPECT_EQ(pooled.total_rollback, direct.total_rollback);
  EXPECT_EQ(pooled.worst_fraction, direct.worst_fraction);  // bit-identical
}

// One pool, many sessions, each with its own stream: per-session
// bit-identity against standalone engines.
void check_heterogeneous_sessions(
    int shards, int num_processes,
    const std::vector<std::vector<StreamEvent>>& streams) {
  ServePool pool({.shards = shards, .num_processes = num_processes});
  for (std::size_t i = 0; i < streams.size(); ++i)
    pool.open_session(static_cast<SessionId>(i + 1));
  // Interleave the sessions' frames (round-robin, uneven batch sizes) so a
  // shard queue holds several tenants' traffic at once.
  constexpr std::size_t kBatches[] = {1, 7, 64};
  std::vector<std::size_t> done(streams.size(), 0);
  std::vector<std::uint8_t> frame;
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t i = 0; i < streams.size(); ++i) {
      if (done[i] >= streams[i].size()) continue;
      const std::size_t batch = kBatches[(i + done[i]) % 3];
      const std::size_t n = std::min(batch, streams[i].size() - done[i]);
      frame.clear();
      encode_frame(static_cast<SessionId>(i + 1),
                   std::span<const StreamEvent>(streams[i]).subspan(done[i], n),
                   frame);
      pool.submit(frame);
      done[i] += n;
      progressed = true;
    }
  }
  pool.drain();
  for (std::size_t i = 0; i < streams.size(); ++i) {
    OnlineEngine standalone(EngineOptions{num_processes});
    standalone.feed(streams[i]);
    expect_matches_standalone(pool, static_cast<SessionId>(i + 1), standalone);
  }
}

TEST(ServeEquivalence, RandomEnvAllProtocolsAcrossShardCounts) {
  for (const int shards : {1, 2, 4}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    // One session per protocol kind, every session a different stream.
    std::vector<std::vector<StreamEvent>> streams;
    std::uint64_t seed = 1;
    for (const ProtocolKind kind : all_protocol_kinds()) {
      RandomEnvConfig cfg;
      cfg.num_processes = 4;
      cfg.duration = 12.0;
      cfg.basic_ckpt_mean = 5.0;
      cfg.seed = seed++;
      streams.push_back(record_replay(random_environment(cfg), kind));
    }
    check_heterogeneous_sessions(shards, 4, streams);
  }
}

TEST(ServeEquivalence, GroupEnvAllProtocolsAcrossShardCounts) {
  GroupEnvConfig cfg;
  cfg.num_groups = 2;
  cfg.group_size = 3;
  cfg.overlap = 1;
  cfg.duration = 10.0;
  cfg.basic_ckpt_mean = 5.0;
  for (const int shards : {1, 4}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    std::vector<std::vector<StreamEvent>> streams;
    for (const ProtocolKind kind : all_protocol_kinds()) {
      cfg.seed += 1;
      streams.push_back(record_replay(group_environment(cfg), kind));
    }
    check_heterogeneous_sessions(shards, cfg.num_processes(), streams);
  }
}

TEST(ServeEquivalence, ClientServerEnvAllProtocolsAcrossShardCounts) {
  ClientServerEnvConfig cfg;
  cfg.num_servers = 3;
  cfg.num_requests = 8;
  cfg.basic_ckpt_mean = 5.0;
  for (const int shards : {1, 4}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    std::vector<std::vector<StreamEvent>> streams;
    for (const ProtocolKind kind : all_protocol_kinds()) {
      cfg.seed += 1;
      streams.push_back(record_replay(client_server_environment(cfg), kind));
    }
    check_heterogeneous_sessions(shards, cfg.num_processes(), streams);
  }
}

TEST(ServePool, ShardRoutingIsStableAndInRange) {
  ServePool pool({.shards = 4, .num_processes = 2});
  EXPECT_EQ(pool.num_shards(), 4);
  for (SessionId id = 0; id < 64; ++id) {
    const int shard = pool.shard_of(id);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 4);
    EXPECT_EQ(pool.shard_of(id), shard);  // stable
  }
  ServePool single({.shards = 1, .num_processes = 2});
  for (SessionId id = 0; id < 8; ++id) EXPECT_EQ(single.shard_of(id), 0);
}

TEST(ServeLifecycle, RejectsBadSessionOperations) {
  ServePool pool({.shards = 2, .num_processes = 3});
  pool.open_session(1);
  EXPECT_THROW(pool.open_session(1), std::invalid_argument);  // duplicate

  std::vector<std::uint8_t> frame;
  encode_events(99, {StreamEvent::internal(0)}, frame);
  EXPECT_THROW(pool.submit(frame), std::invalid_argument);  // unknown session
  EXPECT_THROW(pool.is_rdt_so_far(99), std::invalid_argument);
  EXPECT_THROW(pool.recovery_line(99), std::invalid_argument);
  EXPECT_THROW(pool.session_stats(99), std::invalid_argument);
  EXPECT_THROW(pool.events_consumed(99), std::invalid_argument);
  EXPECT_THROW(pool.close_session(99), std::invalid_argument);

  pool.close_session(1);
  pool.drain();
  frame.clear();
  encode_events(1, {StreamEvent::internal(0)}, frame);
  EXPECT_THROW(pool.submit(frame), std::invalid_argument);  // closed session
  EXPECT_THROW(pool.is_rdt_so_far(1), std::invalid_argument);

  pool.open_session(1);  // the id is reusable after close
  pool.submit(frame);
  pool.drain();
  EXPECT_EQ(pool.events_consumed(1), 1);
}

TEST(ServeLifecycle, SubmitRequiresExactFrameSpan) {
  ServePool pool({.shards = 1, .num_processes = 2});
  pool.open_session(1);
  std::vector<std::uint8_t> frame;
  encode_events(1, {StreamEvent::internal(0)}, frame);
  frame.push_back(0x00);  // trailing byte past the frame end
  EXPECT_THROW(pool.submit(frame), std::invalid_argument);
  EXPECT_THROW(pool.submit(std::span<const std::uint8_t>()), std::invalid_argument);
}

TEST(ServeRejection, MalformedPayloadIsDroppedNotFatal) {
  ServePool pool({.shards = 1, .num_processes = 2});
  pool.open_session(1);

  std::vector<std::uint8_t> good;
  encode_events(1, {StreamEvent::internal(0), StreamEvent::checkpoint(0, 1)},
               good);
  pool.submit(good);

  // Valid envelope (session 1), malformed payload: checkpoint index 0 is
  // rejected at decode time inside the worker, after submit accepted it.
  const std::vector<std::uint8_t> bad_payload = {4, 1, 1, 3, 0};
  ASSERT_EQ(peek_frame(bad_payload, 0).session, 1u);
  pool.submit(bad_payload);

  // Well-formed wire bytes whose *events* the engine rejects (message id 7
  // where the engine requires dense ids): feed() throws, the frame is
  // dropped, the pool keeps serving.
  std::vector<std::uint8_t> bad_sequence;
  encode_events(1, {StreamEvent::send(7, 0, 1)}, bad_sequence);
  pool.submit(bad_sequence);

  good.clear();
  encode_events(1, {StreamEvent::internal(1)}, good);
  pool.submit(good);
  pool.drain();

  const ShardStats stats = pool.shard_stats(0);
  EXPECT_EQ(stats.rejected, 2);
  EXPECT_EQ(stats.frames, 2);  // only the good frames count as fed
  EXPECT_EQ(pool.events_consumed(1), 3);
  OnlineEngine standalone(EngineOptions{2});
  standalone.feed(std::vector<StreamEvent>{StreamEvent::internal(0),
                                           StreamEvent::checkpoint(0, 1),
                                           StreamEvent::internal(1)});
  expect_matches_standalone(pool, 1, standalone);
}

// The worker takes the whole queue per critical section: every frame and
// close rides some batch, and a batch holds at least one item.
TEST(ServePool, BatchesCountWorkerHandoffs) {
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 12.0;
  cfg.basic_ckpt_mean = 5.0;
  cfg.seed = 3;
  const std::vector<StreamEvent> stream =
      record_replay(random_environment(cfg), ProtocolKind::kFdas);

  ServePool pool({.shards = 1, .num_processes = 4, .queue_frames = 4});
  constexpr long long kSessions = 3;
  for (SessionId id = 1; id <= kSessions; ++id) {
    pool.open_session(id);
    submit_stream(pool, id, stream, 7);
  }
  for (SessionId id = 1; id <= kSessions; ++id) pool.close_session(id);
  pool.drain();
  const ShardStats stats = pool.shard_stats(0);
  EXPECT_EQ(stats.frames,
            kSessions * static_cast<long long>((stream.size() + 6) / 7));
  EXPECT_GE(stats.batches, 1);
  EXPECT_LE(stats.batches, stats.frames + kSessions);
  EXPECT_LE(stats.max_queue_depth, 4u);
}

TEST(ServeRecycle, ReopenedSessionReusesEngineBitIdentically) {
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 12.0;
  cfg.basic_ckpt_mean = 5.0;
  cfg.seed = 5;
  const std::vector<StreamEvent> warm =
      record_replay(random_environment(cfg), ProtocolKind::kNoForce);
  cfg.seed = 6;
  const std::vector<StreamEvent> fresh =
      record_replay(random_environment(cfg), ProtocolKind::kBhmr);

  ServePool pool({.shards = 1, .num_processes = 4});
  pool.open_session(1);
  submit_stream(pool, 1, warm, 32);
  pool.close_session(1);
  pool.drain();
  EXPECT_EQ(pool.shard_stats(0).engines_recycled, 0);

  // One shard, so the reopened session must be served by the warm engine.
  pool.open_session(2);
  EXPECT_EQ(pool.shard_stats(0).engines_recycled, 1);
  submit_stream(pool, 2, fresh, 32);
  pool.drain();
  OnlineEngine standalone(EngineOptions{4});
  standalone.feed(fresh);
  expect_matches_standalone(pool, 2, standalone);
}

TEST(ServeDriver, SummedAnswersMatchStandalone) {
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 12.0;
  cfg.basic_ckpt_mean = 5.0;
  cfg.seed = 9;
  const std::vector<StreamEvent> stream =
      record_replay(random_environment(cfg), ProtocolKind::kBhmr);

  ServePool pool({.shards = 2, .num_processes = 4});
  DriverOptions options;
  options.sessions = 8;
  options.clients = 4;
  options.batch_events = 16;
  const DriverReport report = run_clients(pool, stream, options);

  OnlineEngine standalone(EngineOptions{4});
  standalone.feed(stream);
  EXPECT_EQ(report.events,
            static_cast<long long>(stream.size()) * options.sessions);
  EXPECT_EQ(report.events_consumed, standalone.events_consumed() * 8);
  EXPECT_EQ(report.rdt_sessions, standalone.is_rdt_so_far() ? 8 : 0);
  EXPECT_EQ(report.rollback_total,
            standalone.recovery_line().value.total_rollback * 8);
  EXPECT_EQ(report.delivered_messages,
            static_cast<long long>(standalone.stats().value.messages) * 8);
  EXPECT_GT(report.cheap_queries, 0);
  EXPECT_EQ(report.cheap_query_us.size(),
            static_cast<std::size_t>(report.cheap_queries));
}

// --- piggyback ingestion ---------------------------------------------------

// The driver generates real codec traffic; every frame's section must
// decode in the pool (the serve-side mirror of the replay measurement) and
// the event answers must stay untouched by the extra section bytes.
TEST(ServePiggyback, DriverCarriesCodecTrafficEndToEnd) {
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 12.0;
  cfg.basic_ckpt_mean = 5.0;
  cfg.seed = 11;
  for (ProtocolKind kind :
       {ProtocolKind::kBhmr, ProtocolKind::kFdas, ProtocolKind::kBcs}) {
    SCOPED_TRACE(to_string(kind));
    const std::vector<StreamEvent> stream =
        record_replay(random_environment(cfg), kind);
    ServePool pool({.shards = 2, .num_processes = 4});
    DriverOptions options;
    options.sessions = 6;
    options.clients = 3;
    options.batch_events = 16;
    options.piggyback = kind;
    const DriverReport report = run_clients(pool, stream, options);
    EXPECT_EQ(report.piggyback_frames, report.frames);
    EXPECT_EQ(report.piggyback_rejected, 0);
    EXPECT_GT(report.piggyback_bits, 0);
    OnlineEngine standalone(EngineOptions{4});
    standalone.feed(stream);
    EXPECT_EQ(report.events_consumed, standalone.events_consumed() * 6);
    EXPECT_EQ(report.rdt_sessions, standalone.is_rdt_so_far() ? 6 : 0);
  }
}

// Pinned section bytes for a fixed recorded stream at n = 8 and n = 64. The
// stream is cut short, so some sends are never delivered; the sections
// must still carry every send's payload.
TEST(ServeGolden, PiggybackSectionsMatchPinnedBytes) {
  const std::vector<std::string> expected = {
      "n=8 bhmr: sections=24 bytes=0xdc0416b01d5447ac sizes=0x97885487f6ab2efb",
      "n=8 fdas: sections=24 bytes=0x9ae68938fec71b6e sizes=0xc92acf7296c7ea68",
      "n=8 bcs: sections=24 bytes=0x9ed5c4572f5dbf09 sizes=0x4a078af3031e5365",
      "n=64 bhmr: sections=30 bytes=0x48b83a08200c9852 sizes=0x3ce504c1937e5e7b",
      "n=64 fdas: sections=30 bytes=0xc24a6026a1b9cd3e sizes=0x9884c5f833cd7d2f",
      "n=64 bcs: sections=30 bytes=0x0ad5ceadccd94338 sizes=0xffad5166f5483de4",
  };
  std::vector<std::string> got;
  for (const int n : {8, 64}) {
    RandomEnvConfig cfg;
    cfg.num_processes = n;
    cfg.duration = n == 8 ? 40.0 : 6.0;
    cfg.basic_ckpt_mean = 5.0;
    cfg.seed = 21;
    std::vector<StreamEvent> stream =
        record_replay(random_environment(cfg), ProtocolKind::kBhmr);
    stream.resize(stream.size() * 9 / 10);
    for (const ProtocolKind kind :
         {ProtocolKind::kBhmr, ProtocolKind::kFdas, ProtocolKind::kBcs}) {
      const std::vector<PiggybackSection> sections =
          build_piggyback_sections(stream, kind, n, 32);
      test::Fnv1a bytes;
      test::Fnv1a sizes;
      for (const PiggybackSection& s : sections) {
        for (const std::uint8_t b : s.bytes) bytes.add_byte(b);
        for (const std::uint32_t len : s.sizes) sizes.add(len);
      }
      got.push_back("n=" + std::to_string(n) + " " + to_string(kind) +
                    ": sections=" + std::to_string(sections.size()) +
                    " bytes=" + bytes.hex() + " sizes=" + sizes.hex());
    }
  }
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], expected[i]);
}

// Past kMaxDeltaProcesses a delta-declared protocol's sections use its
// codec_for(n) — sparse — and a pool of that size decodes every one.
TEST(ServePiggyback, SectionsPastTheDeltaCapAreSparseAndDecode) {
  constexpr int kN = 65;
  RandomEnvConfig cfg;
  cfg.num_processes = kN;
  cfg.duration = 4.0;
  cfg.basic_ckpt_mean = 2.0;
  cfg.seed = 5;
  const std::vector<StreamEvent> stream =
      record_replay(random_environment(cfg), ProtocolKind::kBhmr);
  const std::vector<PiggybackSection> sections =
      build_piggyback_sections(stream, ProtocolKind::kBhmr, kN, 64);
  ASSERT_FALSE(sections.empty());
  for (const PiggybackSection& section : sections) {
    EXPECT_EQ(section.codec, PiggybackCodecKind::kSparse);
    EXPECT_EQ(section.num_processes, kN);
  }
  ServePool pool({.shards = 2, .num_processes = kN});
  DriverOptions options;
  options.sessions = 3;
  options.batch_events = 64;
  options.piggyback = ProtocolKind::kBhmr;
  const DriverReport report = run_clients(pool, stream, options);
  EXPECT_EQ(report.piggyback_frames, report.frames);
  EXPECT_EQ(report.piggyback_rejected, 0);
  EXPECT_GT(report.piggyback_bits, 0);
}

// A stream that delivers one message twice would make the receiver merge
// the same payload twice; the section builder rejects the repeat.
TEST(ServePiggyback, SecondDeliveryOfOneMessageIsRejected) {
  const std::vector<StreamEvent> stream = {StreamEvent::send(0, 0, 1),
                                           StreamEvent::deliver(0, 0, 1),
                                           StreamEvent::deliver(0, 0, 1)};
  EXPECT_THROW(build_piggyback_sections(stream, ProtocolKind::kBhmr, 2, 64),
               std::invalid_argument);
}

// A delivery naming other endpoints than its send would run the receiver's
// force decision and merge against the wrong sender, so
// build_piggyback_sections rejects it.
TEST(ServePiggyback, DeliveryEndpointsMustMatchTheSend) {
  const std::vector<StreamEvent> wrong_sender = {StreamEvent::send(0, 0, 1),
                                                 StreamEvent::deliver(0, 2, 1)};
  EXPECT_THROW(
      build_piggyback_sections(wrong_sender, ProtocolKind::kBhmr, 3, 64),
      std::invalid_argument);
  const std::vector<StreamEvent> wrong_receiver = {
      StreamEvent::send(0, 0, 1), StreamEvent::deliver(0, 0, 2)};
  EXPECT_THROW(
      build_piggyback_sections(wrong_receiver, ProtocolKind::kBhmr, 3, 64),
      std::invalid_argument);
}

// A bad section must not poison the frame's events or the pool: the events
// apply, the section is counted in piggyback_rejected, and the session
// keeps serving.
TEST(ServePiggyback, BadSectionIsCountedNotFatal) {
  ServePool pool({.shards = 1, .num_processes = 3});
  pool.open_session(1);
  // Each frame carries a fresh message (msg ids are single-use in a
  // session's stream); p is the sender for sends AND delivers.
  auto events = [](MsgId m) {
    return std::vector<StreamEvent>{StreamEvent::send(m, 0, 1),
                                    StreamEvent::deliver(m, 0, 1)};
  };
  std::vector<std::uint8_t> frame;

  // Process count disagrees with the pool's engines.
  PiggybackSection pb;
  pb.protocol = ProtocolKind::kFdas;
  pb.codec = PiggybackCodecKind::kDelta;
  pb.num_processes = 5;
  pb.sizes = {0};
  encode_frame(1, events(0), pb, frame);
  pool.submit(frame);

  // Right ids, but the blob is garbage for the declared delta codec (its
  // TDV change mask names entries past n = 3).
  pb.num_processes = 3;
  pb.sizes = {1};
  pb.bytes = {0xFF};
  frame.clear();
  encode_frame(1, events(1), pb, frame);
  pool.submit(frame);

  // A well-formed section decodes: one send whose TDV delta names entry 0
  // going to 1 (change mask 0b1, increment 1).
  pb.sizes = {2};
  pb.bytes = {1, 1};
  frame.clear();
  encode_frame(1, events(2), pb, frame);
  pool.submit(frame);
  pool.drain();

  const ShardStats stats = pool.shard_stats(0);
  EXPECT_EQ(stats.frames, 3);
  EXPECT_EQ(stats.rejected, 0);  // the events of all three frames applied
  EXPECT_EQ(stats.piggyback_rejected, 2);
  EXPECT_EQ(stats.piggyback_frames, 1);
  EXPECT_EQ(stats.piggyback_bits, 2 * 8);
  EXPECT_EQ(pool.events_consumed(1), 6);
  pool.close_session(1);
}

// --- TSan targets (the tsan CI job runs ServeConcurrency.*) ---------------

// Producer threads submitting into shared shards while dedicated query
// threads hammer every session's lock-free read path: no data race, and
// afterwards every session still answers bit-identically.
TEST(ServeConcurrency, QueryThreadsDuringConcurrentIngest) {
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 20.0;
  cfg.basic_ckpt_mean = 5.0;
  cfg.seed = 11;
  const std::vector<StreamEvent> stream =
      record_replay(random_environment(cfg), ProtocolKind::kBhmr);

  constexpr int kSessions = 8;
  constexpr int kProducers = 4;
  ServePool pool({.shards = 2, .num_processes = 4, .queue_frames = 16});
  for (SessionId id = 1; id <= kSessions; ++id) pool.open_session(id);

  std::atomic<bool> done{false};
  std::vector<std::thread> queriers;
  std::atomic<long long> query_fold{0};  // keeps the answers observable
  for (int t = 0; t < 2; ++t) {
    queriers.emplace_back([&pool, &done, &query_fold] {
      long long fold = 0;
      while (!done.load(std::memory_order_relaxed)) {
        for (SessionId id = 1; id <= kSessions; ++id) {
          fold += pool.is_rdt_so_far(id) ? 1 : 0;
          fold += pool.session_stats(id).value.checkpoints;
          fold += pool.recovery_line(id).value.total_rollback;
        }
      }
      query_fold.fetch_add(fold, std::memory_order_relaxed);
    });
  }

  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&pool, &stream, t] {
      // Producer t owns sessions t+1 and t+1+kProducers; tiny batches keep
      // the shard queues churning against the bounded-capacity waiters.
      for (const SessionId id :
           {static_cast<SessionId>(t + 1),
            static_cast<SessionId>(t + 1 + kProducers)})
        submit_stream(pool, id, stream, 5);
    });
  }
  for (std::thread& p : producers) p.join();
  pool.drain();
  done.store(true, std::memory_order_relaxed);
  for (std::thread& q : queriers) q.join();
  EXPECT_GE(query_fold.load(), 0);

  OnlineEngine standalone(EngineOptions{4});
  standalone.feed(stream);
  for (SessionId id = 1; id <= kSessions; ++id)
    expect_matches_standalone(pool, id, standalone);
}

// Sessions closed while their frames are still queued, then reopened under
// the same ids on recycled engines, with a two-frame queue so producers
// block on every handoff. Queued items carry raw engine and codec
// pointers: the close must not retire an engine before the batch holding
// the session's frames is applied. Query threads probe the same ids
// throughout (a closed id throws, which is part of the contract).
TEST(ServeConcurrency, CloseReopenWhileFramesQueued) {
  std::vector<std::vector<StreamEvent>> streams;
  for (std::uint64_t seed = 21; seed < 24; ++seed) {
    RandomEnvConfig cfg;
    cfg.num_processes = 4;
    cfg.duration = 10.0;
    cfg.basic_ckpt_mean = 5.0;
    cfg.seed = seed;
    streams.push_back(
        record_replay(random_environment(cfg), ProtocolKind::kBhmr));
  }
  constexpr int kProducers = 2;
  constexpr int kSessionsPerProducer = 2;
  constexpr int kSessions = kProducers * kSessionsPerProducer;
  constexpr int kRounds = 6;
  // Round r feeds session id a different stream than round r - 1, so a
  // reopened engine that kept any earlier tenant's state would diverge.
  auto stream_for = [&streams](SessionId id, int round) -> const auto& {
    return streams[(id + static_cast<std::size_t>(round)) % streams.size()];
  };
  ServePool pool({.shards = 2, .num_processes = 4, .queue_frames = 2});

  std::atomic<bool> done{false};
  std::atomic<long long> query_fold{0};
  std::vector<std::thread> queriers;
  for (int t = 0; t < 2; ++t) {
    queriers.emplace_back([&pool, &done, &query_fold] {
      long long fold = 0;
      while (!done.load(std::memory_order_relaxed)) {
        for (SessionId id = 1; id <= kSessions; ++id) {
          try {
            fold += pool.is_rdt_so_far(id) ? 1 : 0;
            fold += pool.recovery_line(id).value.total_rollback;
          } catch (const std::invalid_argument&) {
            // Between close and reopen the id is not open.
          }
        }
      }
      query_fold.fetch_add(fold, std::memory_order_relaxed);
    });
  }

  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&pool, &stream_for, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (int k = 0; k < kSessionsPerProducer; ++k) {
          const auto id = static_cast<SessionId>(1 + t * kSessionsPerProducer + k);
          // The previous round's close may still sit behind queued frames;
          // the id reopens once the worker has applied it.
          for (;;) {
            try {
              pool.open_session(id);
              break;
            } catch (const std::invalid_argument&) {
              std::this_thread::yield();
            }
          }
          submit_stream(pool, id, stream_for(id, round), 5);
          if (round + 1 < kRounds) pool.close_session(id);
        }
      }
    });
  }
  for (std::thread& p : producers) p.join();
  pool.drain();
  done.store(true, std::memory_order_relaxed);
  for (std::thread& q : queriers) q.join();
  EXPECT_GE(query_fold.load(), 0);

  // Every frame was fed into the engine of the session it was submitted
  // for: a frame applied to a reset engine would break that stream's
  // sequencing rules and be counted as rejected.
  long long frames = 0;
  for (SessionId id = 1; id <= kSessions; ++id)
    for (int round = 0; round < kRounds; ++round)
      frames += static_cast<long long>((stream_for(id, round).size() + 4) / 5);
  ShardStats total;
  for (int s = 0; s < pool.num_shards(); ++s) {
    const ShardStats shard = pool.shard_stats(s);
    total.frames += shard.frames;
    total.rejected += shard.rejected;
    total.engines_recycled += shard.engines_recycled;
  }
  EXPECT_EQ(total.frames, frames);
  EXPECT_EQ(total.rejected, 0);
  EXPECT_GT(total.engines_recycled, 0);
  for (SessionId id = 1; id <= kSessions; ++id) {
    OnlineEngine standalone(EngineOptions{4});
    standalone.feed(stream_for(id, kRounds - 1));
    expect_matches_standalone(pool, id, standalone);
  }
}

// The full driver workload — interleaved timed queries, session closes, a
// second round on recycled engines — under the race detector.
TEST(ServeConcurrency, DriverWorkloadWithRecycling) {
  RandomEnvConfig cfg;
  cfg.num_processes = 4;
  cfg.duration = 15.0;
  cfg.basic_ckpt_mean = 5.0;
  cfg.seed = 13;
  const std::vector<StreamEvent> stream =
      record_replay(random_environment(cfg), ProtocolKind::kFdas);

  ServePool pool({.shards = 4, .num_processes = 4, .queue_frames = 8});
  DriverOptions options;
  options.sessions = 16;
  options.clients = 4;
  options.batch_events = 8;
  options.cheap_query_stride = 2;
  options.recovery_query_stride = 5;

  OnlineEngine standalone(EngineOptions{4});
  standalone.feed(stream);
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const DriverReport report = run_clients(pool, stream, options);
    EXPECT_EQ(report.events_consumed, standalone.events_consumed() * 16);
    EXPECT_EQ(report.rdt_sessions, standalone.is_rdt_so_far() ? 16 : 0);
    EXPECT_EQ(report.rollback_total,
              standalone.recovery_line().value.total_rollback * 16);
  }
  long long recycled = 0;
  for (int s = 0; s < pool.num_shards(); ++s)
    recycled += pool.shard_stats(s).engines_recycled;
  EXPECT_EQ(recycled, 16);  // round 2 reopened every engine from round 1
}

}  // namespace
}  // namespace rdt::serve
