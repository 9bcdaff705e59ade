// Multi-tenant serving throughput — the wall-clock workload for the
// session-sharded pool (serve/pool.hpp): N simulated clients stream the
// same recorded event trace into N sessions through the wire format, with
// live queries interleaved, swept over shard counts x session counts.
// The total event volume is held constant across every cell of the sweep,
// so the aggregate events/s figures are directly comparable: more shards
// should buy throughput (up to the core count), more sessions should cost
// only fixed per-session memory, never per-event time.
//
// Reported per "s{shards}x{sessions}" section (--json, rdt-bench-v2):
//   events_per_sec            aggregate drained ingest throughput
//   frames, events, wall_seconds
//   cheap_query_us_p50/p99    is_rdt_so_far+stats latency percentiles
//   recovery_query_us_p50/p99 recovery_line latency percentiles
//   queue_max_depth, equivalence_ok
// plus a "scaling" section (ratio of the 8-shard to the 1-shard rate per
// session count — the perf-smoke gate reads this, conditioned on the
// runner's core count, recorded here as hardware_concurrency) and a
// "reuse" section demonstrating engine recycling: a second driver round on
// the same pool must serve every reopened session from a reset() engine.
//
// Every session feeds the identical stream, so the pool is self-checking:
// the summed per-session answers must equal sessions x the standalone
// OnlineEngine's answers on that stream. Any divergence fails the run
// (exit 1) — throughput numbers from a wrong-answer server are worthless.
//
// Usage: bench_serve [--events N] [--batch N] [--clients N]
//                    [--shards LIST] [--sessions LIST] [--json <path>]
//                    [--trace <path>]
// LIST is comma-separated positive integers, such as 1,2,4.
#include <cstddef>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "serve/driver.hpp"
#include "serve/pool.hpp"
#include "util/stats.hpp"

namespace {

using namespace rdt;
using namespace rdt::bench;

// Captures a replay's builder stream as a feedable event list.
class Recorder final : public PatternListener {
 public:
  void on_send(MsgId m, ProcessId sender, ProcessId receiver) override {
    ops.push_back(StreamEvent::send(m, sender, receiver));
  }
  void on_deliver(MsgId m, ProcessId sender, ProcessId receiver) override {
    ops.push_back(StreamEvent::deliver(m, sender, receiver));
  }
  void on_internal(ProcessId p) override {
    ops.push_back(StreamEvent::internal(p));
  }
  void on_checkpoint(ProcessId p, CkptIndex index) override {
    ops.push_back(StreamEvent::checkpoint(p, index));
  }

  std::vector<StreamEvent> ops;
};

// A random-environment stream of at least `min_events` events (scaled from
// a probe run, like bench_stream's calibration).
std::vector<StreamEvent> recorded_stream(std::size_t min_events) {
  RandomEnvConfig cfg = random_env_preset();
  cfg.seed = 1;
  Recorder probe;
  replay(random_environment(cfg), ProtocolKind::kBhmr, {.online = &probe});
  const double scale = static_cast<double>(min_events) /
                       static_cast<double>(std::max<std::size_t>(probe.ops.size(), 1));
  if (scale <= 1.0) return std::move(probe.ops);
  cfg.duration *= scale * 1.1;  // headroom: the scaling is only linear-ish
  Recorder full;
  replay(random_environment(cfg), ProtocolKind::kBhmr, {.online = &full});
  return std::move(full.ops);
}

// The standalone reference: one engine fed the stream directly. Every
// pool session must land on exactly these answers.
struct Reference {
  bool rdt = false;
  long long rollback = 0;
  long long events = 0;
  long long messages = 0;
};

Reference standalone_reference(int num_processes,
                               std::span<const StreamEvent> ops) {
  OnlineEngine engine(EngineOptions{num_processes});
  engine.feed(ops);
  Reference ref;
  ref.rdt = engine.is_rdt_so_far();
  ref.rollback = engine.recovery_line().value.total_rollback;
  ref.events = engine.events_consumed();
  ref.messages = engine.stats().value.messages;
  return ref;
}

bool matches_reference(const serve::DriverReport& r, const Reference& ref,
                       int sessions) {
  return r.rdt_sessions == (ref.rdt ? sessions : 0) &&
         r.rollback_total == ref.rollback * sessions &&
         r.events_consumed == ref.events * sessions &&
         r.delivered_messages == ref.messages * sessions;
}

bench::JsonValue to_json(const PercentileSummary& s) {
  return bench::JsonObject{{"count", static_cast<long long>(s.count)},
                           {"p50", s.p50},
                           {"p90", s.p90},
                           {"p99", s.p99},
                           {"min", s.min},
                           {"max", s.max}};
}

}  // namespace

int main(int argc, char** argv) try {
  constexpr BenchFlag kFlags[] = {{"--events", "N"},   {"--batch", "N"},
                                  {"--clients", "N"},  {"--shards", "LIST"},
                                  {"--sessions", "LIST"}};
  const BenchArgs args(argc, argv, kFlags);
  BenchReport report("serve", args);
  const auto total_events = static_cast<std::size_t>(
      std::max(1, args.flag_or("--events", 1000000)));
  const auto batch = static_cast<std::size_t>(
      std::max(1, args.flag_or("--batch", 64)));
  const int clients = std::max(1, args.flag_or("--clients", 2));
  const std::vector<int> shard_counts =
      args.positive_list("--shards", {1, 2, 4, 8});
  const std::vector<int> session_counts =
      args.positive_list("--sessions", {16, 256, 4096});
  const int num_processes = random_env_preset().num_processes;
  const int cores =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  std::cout << "==================================================================\n"
            << "serve throughput — session-sharded multi-tenant OnlineEngine pool\n"
            << "constant ~" << total_events << " total events per cell; frame "
            << batch << " events; " << clients << " clients; host cores "
            << cores << "\n"
            << "==================================================================\n\n";

  report.add_metrics(
      "host",
      bench::JsonObject{{"hardware_concurrency", cores},
                        {"clients", clients},
                        {"batch_events", static_cast<long long>(batch)},
                        {"total_events", static_cast<long long>(total_events)}});

  // One recorded stream serves every cell: cell (shards, sessions) feeds
  // each of its sessions the prefix of total_events / sessions events.
  const std::size_t max_per_session =
      total_events / static_cast<std::size_t>(session_counts.front());
  const std::vector<StreamEvent> ops = recorded_stream(max_per_session);

  Table table({"shards", "sessions", "events", "wall s", "events/s",
               "cheap p99 us", "recovery p99 us", "queue max", "equivalence"});
  bool all_match = true;
  // rates[sessions][shards] for the scaling section.
  std::vector<std::vector<double>> rates(
      session_counts.size(), std::vector<double>(shard_counts.size(), 0.0));

  for (std::size_t si = 0; si < session_counts.size(); ++si) {
    const int sessions = session_counts[si];
    const std::size_t per_session = std::max<std::size_t>(
        std::size_t{1}, total_events / static_cast<std::size_t>(sessions));
    const std::span<const StreamEvent> stream =
        std::span(ops).subspan(0, std::min(per_session, ops.size()));
    const Reference ref = standalone_reference(num_processes, stream);
    for (std::size_t hi = 0; hi < shard_counts.size(); ++hi) {
      const int shards = shard_counts[hi];
      serve::PoolOptions pool_options;
      pool_options.shards = shards;
      pool_options.num_processes = num_processes;
      serve::ServePool pool(pool_options);

      serve::DriverOptions options;
      options.sessions = sessions;
      options.clients = clients;
      options.batch_events = batch;
      const serve::DriverReport r = serve::run_clients(pool, stream, options);

      const bool match = matches_reference(r, ref, sessions);
      all_match = all_match && match;
      const double rate = r.wall_seconds > 0
                              ? static_cast<double>(r.events) / r.wall_seconds
                              : 0.0;
      rates[si][hi] = rate;

      std::vector<double> cheap = r.cheap_query_us;
      std::vector<double> recovery = r.recovery_query_us;
      const PercentileSummary cheap_p = percentile_summary(cheap);
      const PercentileSummary recovery_p = percentile_summary(recovery);
      std::size_t queue_max = 0;
      long long recycled = 0;
      for (int s = 0; s < pool.num_shards(); ++s) {
        const serve::ShardStats ss = pool.shard_stats(s);
        queue_max = std::max(queue_max, ss.max_queue_depth);
        recycled += ss.engines_recycled;
      }
      pool.flush_metrics();  // no-op without --trace / -DRDT_OBS=ON

      table.begin_row()
          .add(shards)
          .add(sessions)
          .add(r.events)
          .add(r.wall_seconds, 3)
          .add(rate, 0)
          .add(cheap_p.p99, 1)
          .add(recovery_p.p99, 1)
          .add(static_cast<long long>(queue_max))
          .add(match ? "ok" : "DIVERGED");

      std::ostringstream section_name;
      section_name << 's' << shards << 'x' << sessions;
      const std::string section = section_name.str();
      report.add_metrics(
          section,
          bench::JsonObject{
              {"shards", shards},
              {"sessions", sessions},
              {"events_per_session", static_cast<long long>(stream.size())},
              {"events", r.events},
              {"frames", r.frames},
              {"wall_seconds", r.wall_seconds},
              {"events_per_sec", rate},
              {"cheap_queries", r.cheap_queries},
              {"recovery_queries", r.recovery_queries},
              {"cheap_query_us", to_json(cheap_p)},
              {"recovery_query_us", to_json(recovery_p)},
              {"queue_max_depth", static_cast<long long>(queue_max)},
              {"engines_recycled", recycled},
              {"equivalence_ok", match}});
    }
  }
  table.print(std::cout);

  // Scaling: 8-shard (max-shard) aggregate rate over the 1-shard rate from
  // the same run. The perf-smoke gate conditions on hardware_concurrency —
  // a 1-core container cannot (and should not pretend to) show a speedup.
  bench::JsonObject scaling{{"hardware_concurrency", cores}};
  std::cout << "\nscaling (max shards vs 1 shard, same total events):\n";
  for (std::size_t si = 0; si < session_counts.size(); ++si) {
    const double base = rates[si].front();
    const double top = rates[si].back();
    const double ratio = base > 0 ? top / base : 0.0;
    std::cout << "  sessions " << session_counts[si] << ": "
              << shard_counts.back() << "-shard/" << shard_counts.front()
              << "-shard = " << ratio << "x\n";
    std::ostringstream key;
    key << "ratio_sessions_" << session_counts[si];
    scaling.emplace_back(key.str(), ratio);
  }
  std::cout << "(host has " << cores
            << " cores; the >=3x CI gate applies on multi-core runners)\n";
  report.add_metrics("scaling", std::move(scaling));

  // Engine recycling: round two on the same pool reopens every session id,
  // which must be served from reset() engines, answering identically.
  {
    const int sessions = session_counts.front();
    const std::span<const StreamEvent> stream = std::span(ops).subspan(
        0, std::min(total_events / static_cast<std::size_t>(sessions),
                    ops.size()));
    const Reference ref = standalone_reference(num_processes, stream);
    serve::PoolOptions pool_options;
    pool_options.shards = shard_counts.front();
    pool_options.num_processes = num_processes;
    serve::ServePool pool(pool_options);
    serve::DriverOptions options;
    options.sessions = sessions;
    options.clients = clients;
    options.batch_events = batch;
    const serve::DriverReport round1 = serve::run_clients(pool, stream, options);
    const serve::DriverReport round2 = serve::run_clients(pool, stream, options);
    long long recycled = 0;
    for (int s = 0; s < pool.num_shards(); ++s)
      recycled += pool.shard_stats(s).engines_recycled;
    const bool reuse_ok = matches_reference(round1, ref, sessions) &&
                          matches_reference(round2, ref, sessions) &&
                          recycled == sessions;
    all_match = all_match && reuse_ok;
    std::cout << "\nengine reuse: round 2 recycled " << recycled << "/"
              << sessions << " engines, answers "
              << (reuse_ok ? "identical" : "DIVERGED") << "\n";
    report.add_metrics("reuse",
                       bench::JsonObject{{"sessions", sessions},
                                         {"engines_recycled", recycled},
                                         {"reuse_ok", reuse_ok}});
  }

  report.finish();
  if (!all_match) {
    std::cerr << "\nbench_serve: pool answers DIVERGED from the standalone "
                 "engine\n";
    return 1;
  }
  return 0;
} catch (const UsageError&) {
  return 2;
}
