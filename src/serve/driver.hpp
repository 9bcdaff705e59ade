// Multi-client workload driver for ServePool — the simulated serving load
// behind bench/bench_serve.cpp and the concurrency tests.
//
// run_clients() plays one recorded event stream into every session of a
// pool, the way N real clients would: `clients` producer threads own
// disjoint session ranges, chop the stream into wire frames of
// `batch_events`, and submit them round-robin across their sessions (so a
// shard sees interleaved traffic from many tenants, not one session at a
// time). Producers interleave *timed* live queries with their submits — a
// cheap query (is_rdt_so_far + stats) every cheap_query_stride frames and a
// recovery_line every recovery_query_stride — and the per-query latencies
// come back in the report for percentile aggregation.
//
// Every session receives the identical stream, which makes the pool
// self-checking: after drain(), each session must answer exactly like one
// standalone OnlineEngine fed the same events, so the report's summed
// answers must equal sessions x the standalone value (bench_serve fails the
// run otherwise; tests/serve_test.cpp checks the stronger per-session
// bit-identity on heterogeneous streams).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "serve/pool.hpp"

namespace rdt::serve {

struct DriverOptions {
  SessionId first_session = 1;  // sessions are first_session .. +sessions-1
  int sessions = 16;
  int clients = 2;              // producer threads, disjoint session ranges
  std::size_t batch_events = 64;   // events per wire frame
  int cheap_query_stride = 4;      // timed cheap query every k frames
  int recovery_query_stride = 32;  // timed recovery_line every k frames
  bool close_sessions = true;      // close + drain at the end of the run
  // When set, every frame also carries the piggyback section this
  // protocol's codec (build_piggyback_sections) produces for the chunk's
  // send events. The
  // sections are generated once per run (real protocol instances replayed
  // over the stream) and shared by all sessions — each session receives
  // the identical frame sequence, so each per-session decoder walks the
  // same shadow evolution the one generator-side encoder did.
  std::optional<ProtocolKind> piggyback;
};

struct DriverReport {
  long long frames = 0;            // frames submitted
  long long events = 0;            // events submitted (sessions x stream)
  long long cheap_queries = 0;
  long long recovery_queries = 0;
  double wall_seconds = 0.0;       // open_session -> drain() returning
  std::vector<double> cheap_query_us;     // one sample per timed query
  std::vector<double> recovery_query_us;
  // Summed final per-session answers — the equivalence anchors.
  long long rdt_sessions = 0;      // sessions with is_rdt_so_far() == true
  long long rollback_total = 0;    // sum of recovery_line().total_rollback
  long long events_consumed = 0;   // sum of engine-reported intake counts
  long long delivered_messages = 0;  // sum of stats().messages
  // Pool-side piggyback accounting, summed over shards after drain().
  long long piggyback_frames = 0;
  long long piggyback_bits = 0;
  long long piggyback_rejected = 0;
};

// Drives `kind` over `events` through replay's per-event steps
// (sim/protocol_driver.hpp; checkpoint events count as basic) and chops
// each send's payload, encoded with ProtocolInfo::codec_for(num_processes),
// into one PiggybackSection per `batch`-event frame. The stream's sends
// must number their messages 0, 1, 2, ... as a recorded stream does.
// run_clients calls it once per run and shares the sections read-only
// across its producer threads.
std::vector<PiggybackSection> build_piggyback_sections(
    std::span<const StreamEvent> events, ProtocolKind kind, int num_processes,
    std::size_t batch);

DriverReport run_clients(ServePool& pool, std::span<const StreamEvent> events,
                         const DriverOptions& options);

}  // namespace rdt::serve
