#include "serve/driver.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "protocols/registry.hpp"
#include "sim/protocol_driver.hpp"
#include "util/check.hpp"
#include "util/thread_annotations.hpp"

namespace rdt::serve {

namespace {

using Clock = std::chrono::steady_clock;

double micros_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

// One producer's accumulated results, merged into the report post-join.
struct ClientTally {
  long long frames = 0;
  long long cheap_queries = 0;
  long long recovery_queries = 0;
  long long checksum = 0;  // folds the racing answers; keeps them un-elidable
  std::vector<double> cheap_query_us;
  std::vector<double> recovery_query_us;
};

}  // namespace

std::vector<PiggybackSection> build_piggyback_sections(
    std::span<const StreamEvent> events, ProtocolKind kind, int num_processes,
    std::size_t batch) {
  // Message ids index the arena; undelivered sends keep their slot. Each
  // send's endpoints are recorded, so a delivery must name them, and a
  // delivered send's are cleared, so a second delivery is rejected.
  const auto num_sends = static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(), [](const StreamEvent& e) {
        return e.kind == EventKind::kSend;
      }));
  struct Endpoints {
    ProcessId sender = -1;
    ProcessId receiver = -1;
  };
  MsgId next_send = 0;
  std::vector<Endpoints> open_sends(num_sends);
  const auto codec =
      ProtocolRegistry::instance().info(kind).codec_for(num_processes);
  PayloadArena arena;
  ProtocolDriver driver(kind, num_processes, num_sends, codec, arena,
                        /*observer=*/nullptr, /*save_tdv_history=*/false);
  const std::size_t num_frames = (events.size() + batch - 1) / batch;
  std::vector<PiggybackSection> sections(num_frames);
  for (std::size_t f = 0; f < num_frames; ++f) {
    PiggybackSection& section = sections[f];
    section.protocol = kind;
    section.codec = codec;
    section.num_processes = num_processes;
    const std::span<const StreamEvent> chunk =
        events.subspan(f * batch, std::min(batch, events.size() - f * batch));
    for (const StreamEvent& e : chunk) {
      RDT_REQUIRE(e.p >= 0 && e.p < num_processes &&
                      (e.kind == EventKind::kInternal ||
                       e.kind == EventKind::kCheckpoint ||
                       (e.q >= 0 && e.q < num_processes)),
                  "piggyback generation needs stream processes inside the "
                  "pool's process count");
      // e.p is the sender of a send or delivery, e.q its receiver.
      switch (e.kind) {
        case EventKind::kSend: {
          RDT_REQUIRE(e.msg == next_send,
                      "piggyback generation needs the stream's sends "
                      "numbered 0, 1, 2, ... in stream order");
          ++next_send;
          open_sends[static_cast<std::size_t>(e.msg)] = {e.p, e.q};
          driver.send(e.p, e.q, e.msg);
          const std::span<const std::uint8_t> bytes = arena.last_encoded();
          section.bytes.insert(section.bytes.end(), bytes.begin(), bytes.end());
          section.sizes.push_back(static_cast<std::uint32_t>(bytes.size()));
          break;
        }
        case EventKind::kDeliver: {
          RDT_REQUIRE(e.msg >= 0 && e.msg < next_send,
                      "deliver of a message the stream never sent");
          Endpoints& send = open_sends[static_cast<std::size_t>(e.msg)];
          RDT_REQUIRE(send.sender != -1, "second delivery of one message");
          RDT_REQUIRE(send.sender == e.p && send.receiver == e.q,
                      "delivery's sender and receiver differ from its send's");
          send = Endpoints{};
          driver.deliver(e.p, e.q, e.msg);
          break;
        }
        case EventKind::kCheckpoint:
          driver.basic_checkpoint(e.p);
          break;
        case EventKind::kInternal:
          break;
      }
    }
  }
  return sections;
}

namespace {

// The producer body: round-robin the owned sessions, one frame each per
// pass, so every shard sees interleaved multi-tenant traffic. The frame
// scratch buffer and the per-session cursors live for the thread's whole
// run — steady-state submission allocates nothing once the buffer warms up.
void run_one_client(ServePool& pool, std::span<const StreamEvent> events,
                    const DriverOptions& options,
                    std::span<const PiggybackSection> sections, SessionId first,
                    int num_sessions, ClientTally& tally) {
  const std::size_t batch = options.batch_events;
  const std::size_t num_frames = (events.size() + batch - 1) / batch;
  std::vector<std::uint8_t> frame;
  long long submitted = 0;
  for (std::size_t f = 0; f < num_frames; ++f) {
    const std::span<const StreamEvent> chunk =
        events.subspan(f * batch, std::min(batch, events.size() - f * batch));
    for (int k = 0; k < num_sessions; ++k) {
      const SessionId sid = first + static_cast<SessionId>(k);
      frame.clear();
      if (sections.empty())
        encode_frame(sid, chunk, frame);
      else
        encode_frame(sid, chunk, sections[f], frame);
      pool.submit(frame);
      ++tally.frames;
      ++submitted;
      // Live queries against the session just fed: answers race the shard
      // worker by design — the timing is the point, the values are checked
      // after drain().
      if (options.cheap_query_stride > 0 &&
          submitted % options.cheap_query_stride == 0) {
        const auto start = Clock::now();
        const bool rdt = pool.is_rdt_so_far(sid);
        const OnlineStats stats = pool.session_stats(sid).value;
        tally.cheap_query_us.push_back(micros_since(start));
        ++tally.cheap_queries;
        tally.checksum += (rdt ? 1 : 0) + stats.messages;
      }
      if (options.recovery_query_stride > 0 &&
          submitted % options.recovery_query_stride == 0) {
        const auto start = Clock::now();
        const RecoveryOutcome rec = pool.recovery_line(sid).value;
        tally.recovery_query_us.push_back(micros_since(start));
        ++tally.recovery_queries;
        tally.checksum += rec.total_rollback;
      }
    }
  }
}

}  // namespace

DriverReport run_clients(ServePool& pool, std::span<const StreamEvent> events,
                         const DriverOptions& options) {
  RDT_REQUIRE(options.sessions >= 1, "need at least one session");
  RDT_REQUIRE(options.clients >= 1, "need at least one client");
  RDT_REQUIRE(options.batch_events >= 1, "need at least one event per frame");
  RDT_REQUIRE(!events.empty(), "need a non-empty event stream");

  DriverReport report;
  report.events =
      static_cast<long long>(events.size()) * options.sessions;

  // Generated before the timed window opens: the encode work is the
  // client's, the pool only ever decodes.
  std::vector<PiggybackSection> sections;
  if (options.piggyback)
    sections = build_piggyback_sections(events, *options.piggyback,
                                        pool.num_processes(),
                                        options.batch_events);

  const auto start = Clock::now();
  for (int k = 0; k < options.sessions; ++k)
    pool.open_session(options.first_session + static_cast<SessionId>(k));

  // Split the sessions into `clients` contiguous ranges; the last range
  // absorbs the remainder (every session is owned by exactly one producer,
  // which keeps per-session frame order = submission order).
  const int clients = std::min(options.clients, options.sessions);
  const int per_client = options.sessions / clients;
  std::vector<ClientTally> tallies(static_cast<std::size_t>(clients));
  std::vector<std::thread> producers;
  producers.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    const SessionId first =
        options.first_session + static_cast<SessionId>(c * per_client);
    const int owned =
        c + 1 == clients ? options.sessions - c * per_client : per_client;
    ClientTally& tally = tallies[static_cast<std::size_t>(c)];
    producers.emplace_back(
        [&pool, events, &options, &sections, first, owned, &tally] {
          run_one_client(pool, events, options, sections, first, owned, tally);
        });
  }
  for (std::thread& t : producers) t.join();
  pool.drain();
  report.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  for (ClientTally& tally : tallies) {
    report.frames += tally.frames;
    report.cheap_queries += tally.cheap_queries;
    report.recovery_queries += tally.recovery_queries;
    report.cheap_query_us.insert(report.cheap_query_us.end(),
                                 tally.cheap_query_us.begin(),
                                 tally.cheap_query_us.end());
    report.recovery_query_us.insert(report.recovery_query_us.end(),
                                    tally.recovery_query_us.begin(),
                                    tally.recovery_query_us.end());
  }

  for (int i = 0; i < pool.num_shards(); ++i) {
    const ShardStats shard = pool.shard_stats(i);
    report.piggyback_frames += shard.piggyback_frames;
    report.piggyback_bits += shard.piggyback_bits;
    report.piggyback_rejected += shard.piggyback_rejected;
  }

  // Final audit sweep (outside the timed window): every session's settled
  // answers, summed for the caller's equivalence check.
  for (int k = 0; k < options.sessions; ++k) {
    const SessionId sid = options.first_session + static_cast<SessionId>(k);
    report.rdt_sessions += pool.is_rdt_so_far(sid) ? 1 : 0;
    report.rollback_total += pool.recovery_line(sid).value.total_rollback;
    report.events_consumed += pool.events_consumed(sid);
    report.delivered_messages += pool.session_stats(sid).value.messages;
  }

  if (options.close_sessions) {
    for (int k = 0; k < options.sessions; ++k)
      pool.close_session(options.first_session + static_cast<SessionId>(k));
    pool.drain();
  }
  return report;
}

}  // namespace rdt::serve
